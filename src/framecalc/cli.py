"""Command-line front end.

Every command prints exactly one JSON document to stdout: an envelope

    {"tool_version", "command", "config", "results", "summary"}

with summary counts {total, passed, failed, borderline, max_rel_diff}.
No timestamps or environment data appear anywhere, so identical
invocations produce byte-identical output. Each command returns its
document; `main` alone prints it and reads the exit status off its
summary: 1 when `failed` is nonzero, else 0, so a borderline check and a
frame document (`gen` without --out, no summary) exit 0. An error prints
a JSON error object: exit 2 for usage, IO and memory problems, else 1.

Randomized inputs (--J random, --f random, embeddings) draw from
deterministic streams derived from --seed: child 0 feeds J, child 1
feeds E, child 2 feeds f, and the subspace embedding isometry is drawn
from SplitMix64(--seed) itself.

A size above 2**24 (--dim, --count, --ambient-dim, either end of
--dim-range and --count-range) is a usage error at parse time; a size
below it that cannot be allocated is a MemoryError document, exit 2.
"""

import argparse
import gc
import json
import re
import sys

import numpy as np

from . import SUITE_NAMES, __version__
from .errors import BadParams, FrameError, FrameFormatError, IndexOutOfRange
from .frames import (
    _GENERATORS,
    TAU_ID,
    as_tolerance,
    canonical_dual,
    complete_to_tight,
    embed_subspace_frame,
    frame_bounds,
    generate,
    norm_sq,
    parsevalize,
    random_isometry,
    subset_mask,
    tight_deviation,
)
from .frame_io import frame_to_document, json_complex, json_pairs, read_frame, write_frame
from .linalg import frobenius
from .rng import SplitMix64


def _dump(doc, indent: int | None = 2) -> str:
    """Strict JSON: a NaN or infinity raises FrameError, never reaches stdout."""
    try:
        text = json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FrameError(f"result is not finite: {exc}") from None
    return text + "\n"


def _envelope(argv: list[str], args: argparse.Namespace, results: list, summary: dict,
              omit: tuple[str, ...] = ()) -> dict:
    """The output document; its config echoes every parsed argument but those
    in `omit`, each under its flag's name."""
    config = {"lambda" if key == "lam" else key: value for key, value in vars(args).items()
              if key not in ("command", "func", *omit)}
    return {
        "tool_version": __version__,
        "command": " ".join(argv),
        "config": config,
        "results": results,
        "summary": summary,
    }


def _single_summary(passed: bool, rel_diff: float = 0.0, borderline: bool = False) -> dict:
    return {
        "total": 1,
        "passed": 0 if borderline else int(passed),
        "failed": 0 if borderline else int(not passed),
        "borderline": int(borderline),
        "max_rel_diff": float(rel_diff),
    }


def _frame_out(result: dict, frame, out: str | None) -> list[dict]:
    """[result] with `frame` written to --out and its path recorded, or else embedded."""
    if out is not None:
        write_frame(frame, out)
        result["path"] = out
    else:
        result["frame"] = frame_to_document(frame)
    return [result]


def _parse_subset_spec(spec: str, n: int, rng: SplitMix64) -> list[int]:
    """The index list a --J or --E spec names, checked against the frame's n:
    an index that does not fit the frame is a usage error, as a repeated one is."""
    spec = spec.strip()
    bad = BadParams(
        f"bad index subset {spec!r}; use '', 'all', 'random', 'random:k', 'a-b', or 'i,j,k'"
    )
    try:
        if spec == "all":
            subset = list(range(n))
        elif spec == "random":
            subset = rng.subset(n)
        elif m := re.fullmatch(r"random:(\d+)", spec):
            k = int(m.group(1))
            if k > n:
                raise BadParams(f"random:{k} needs k <= {n}")
            subset = rng.sample(n, k)
        elif m := re.fullmatch(r"(\d+)-(\d+)", spec):
            a, b = int(m.group(1)), int(m.group(2))
            if a > b:
                raise BadParams(f"bad range {spec!r}")
            # past n, the largest index alone gives subset_mask's error
            subset = list(range(a, b + 1)) if b < n else [b]
        elif re.fullmatch(r"(\d+(,\d+)*)?", spec):
            subset = [int(x) for x in spec.split(",") if x]
        else:
            raise bad
    except ValueError:  # more digits than int() converts
        raise bad from None
    try:
        subset_mask(subset, n)
    except IndexOutOfRange as exc:
        raise BadParams(str(exc)) from None
    return subset


def _parse_vector_spec(spec: str, dim: int, field: str, rng: SplitMix64) -> np.ndarray:
    spec = spec.strip()
    if spec == "random":
        return rng.unit_vector(dim, field)
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise BadParams(f"vector file is not valid JSON: {exc}") from None
        if not isinstance(data, list):
            raise BadParams("vector file must hold a JSON array")
        out = np.empty(len(data), dtype=np.complex128)
        for i, entry in enumerate(data):
            z = json_complex(entry if isinstance(entry, list) else [entry, 0.0])
            if z is None:
                raise BadParams(f"vector entry {i} must be a number or [re, im]")
            out[i] = z
    else:
        parts = [p for p in spec.split(",") if p.strip() != ""]
        if not parts:
            raise BadParams(f"empty vector spec {spec!r}")
        out = np.empty(len(parts), dtype=np.complex128)
        for i, part in enumerate(parts):
            try:
                out[i] = complex(part.strip().replace(" ", ""))
            except ValueError:
                raise BadParams(f"bad vector component {part!r}") from None
    # every identity term is degree 2 in f, so ||f||^2 must be finite
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(norm_sq(out)):
            raise BadParams("vector has a non-finite squared norm")
    return out


def _parse_lambda(text: str | None) -> float | None:
    if text is None or text == "auto":
        return None
    try:
        lam = float(text)
    except ValueError:
        raise BadParams(f"bad lambda {text!r}; use a number or 'auto'") from None
    if not np.isfinite(lam):
        raise BadParams(f"lambda must be finite, got {text!r}")
    return lam


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args, argv: list[str]) -> dict:
    params = {}
    if args.dim is not None:
        params["dim"] = args.dim
    if args.count is not None:
        params["count"] = args.count
    if args.kind in ("random-gaussian", "random-parseval"):
        params["seed"] = args.seed
        params["field"] = args.field
    frame = generate(args.kind, **params)
    if args.out is None:
        return frame_to_document(frame)
    write_frame(frame, args.out)
    bounds = frame_bounds(frame)
    result = {
        "kind": args.kind,
        "dim": frame.dim,
        "count": frame.count,
        "field": frame.field,
        "path": args.out,
        "bounds": bounds._asdict(),
    }
    config = argparse.Namespace(kind=args.kind, **params, out=args.out)
    return _envelope(argv, config, [result], _single_summary(True))


def cmd_analyze(args, argv: list[str]) -> dict:
    frame = read_frame(args.frame)
    tol = args.tolerance
    if args.mode == "bounds":
        bounds = frame_bounds(frame)
        result = {
            "mode": "bounds",
            "dim": frame.dim,
            "count": frame.count,
            "field": frame.field,
            "bounds": bounds._asdict(),
        }
        return _envelope(argv, args, [result], _single_summary(True), omit=("tolerance",))
    if args.mode == "dual":
        derived = canonical_dual(frame)
        # reconstruction through the dual is the identity operator,
        # sum_i f_i dual_i^* = I; the error is relative to ||I||_F
        identity = np.eye(frame.dim)
        recon = frame.vectors.T @ derived.vectors.conj()
        err = frobenius(recon - identity) / frobenius(identity)
        passed = err <= tol
        result = {
            "mode": "dual",
            "reconstruction_err": err,
            "count": derived.count,
        }
    else:
        derived = parsevalize(frame)
        dev = tight_deviation(derived, 1.0)
        err = float(dev)
        passed = dev <= tol
        result = {
            "mode": "parsevalize",
            "parseval_dev": err,
            "count": derived.count,
        }
    return _envelope(argv, args, _frame_out(result, derived, args.out),
                     _single_summary(passed, err), omit=("tolerance",))


def cmd_identity(args, argv: list[str]) -> dict:
    frame = read_frame(args.frame)
    if args.parsevalize:
        frame = parsevalize(frame)
    tol = args.tolerance
    master = SplitMix64(args.seed)
    subset = _parse_subset_spec(args.J, frame.count, master.derive(0))
    result: dict = {"variant": args.variant, "subset": subset}
    dim = frame.dim
    if args.variant == "subspace":
        if args.ambient_dim is None:
            raise BadParams("--ambient-dim is required for --variant subspace")
        iso = random_isometry(args.ambient_dim, frame.dim, args.seed, frame.field)
        sub = embed_subspace_frame(frame, args.ambient_dim, iso)
        dim = args.ambient_dim
    f = _parse_vector_spec(args.f, dim, frame.field, master.derive(2))
    if args.variant == "tight":
        lam = _parse_lambda(args.lam)
    elif args.variant == "overlap":
        result["subset_e"] = _parse_subset_spec(args.E, frame.count, master.derive(1))
    # imported only once every input has parsed: a usage error never loads it
    from .identities import (
        general_identity_report,
        overlap_identity_report,
        parseval_identity_report,
        subspace_identity_report,
        tight_identity_report,
    )

    if args.variant == "pfi":
        report = parseval_identity_report(frame, subset, f, tol)
    elif args.variant == "general":
        report = general_identity_report(frame, subset, f, tol)
    elif args.variant == "tight":
        report = tight_identity_report(frame, subset, f, lam, tol)
    elif args.variant == "overlap":
        report = overlap_identity_report(frame, subset, result["subset_e"], f, tol)
    else:
        report = subspace_identity_report(sub, subset, f, tol)
    result["f"] = json_pairs(f)
    result["report"] = report._asdict()
    return _envelope(argv, args, [result], _single_summary(report.passed, report.rel_diff))


def cmd_equiv(args, argv: list[str]) -> dict:
    frame = read_frame(args.frame)
    if args.parsevalize:
        frame = parsevalize(frame)
    master = SplitMix64(args.seed)
    subset = _parse_subset_spec(args.J, frame.count, master.derive(0))
    f = _parse_vector_spec(args.f, frame.dim, frame.field, master.derive(2))
    from .identities import equivalence_conditions

    report = equivalence_conditions(frame, subset, f, args.tolerance)
    result = {
        "subset": subset,
        "f": json_pairs(f),
        "conditions": [c._asdict() for c in report.conditions],
        "consistent": report.consistent,
        "borderline": report.borderline,
    }
    return _envelope(argv, args, [result],
                     _single_summary(report.consistent, 0.0, report.borderline))


def cmd_extend(args, argv: list[str]) -> dict:
    frame = read_frame(args.frame)
    lam = _parse_lambda(args.lam)
    lam_used = frame_bounds(frame).upper if lam is None else lam
    completion = complete_to_tight(frame, lam_used, mix_seed=args.mix_seed)

    # the printed completion against one mixed by the next seed
    base_mix = args.mix_seed if args.mix_seed is not None else 0
    second = complete_to_tight(frame, lam_used, mix_seed=base_mix + 1)
    probe = np.zeros(frame.dim, dtype=np.complex128)
    probe[0] = 1.0
    from .identities import tight_extension_compare

    cmp = tight_extension_compare(frame, completion, second, lam_used, probe, trials=100,
                                  seed=base_mix, tolerance=args.tolerance)
    result = {
        "lambda_used": lam_used,
        "added_count": completion.count,
        "union_tight_dev": cmp.union_tight_devs[0],
        "compare": cmp._asdict(),
    }
    return _envelope(argv, args, _frame_out(result, completion, args.out),
                     _single_summary(cmp.passed, cmp.max_energy_rel_diff))


def cmd_property_run(args, argv: list[str]) -> dict:
    from .sweeps import RunConfig, run_suites

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    config = RunConfig(
        seed=args.seed,
        trials=args.trials,
        dim_range=args.dim_range,
        count_range=args.count_range,
        tolerance=args.tolerance,
    )
    results, summary = run_suites(names, config)
    env = _envelope(argv, args, results, summary, omit=("quiet", "out"))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump(env))
    return env


# ---------------------------------------------------------------------------
# argument parsing


# Past this, numpy can report an oversized shape as a ValueError or an
# OverflowError instead of a MemoryError. At or below it, even a stack of
# 1,024 (one sweep block) complex 2**24 x 2**24 matrices, 2**62 bytes, is
# inside numpy's size limit, so an oversize is a MemoryError.
_MAX_SIZE = 2**24


def _size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value > _MAX_SIZE:
        raise argparse.ArgumentTypeError(f"{text!r} is above the largest size, 2**24")
    return value


def _range_pair(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+),(\d+)", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return _size(m.group(1)), _size(m.group(2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecalc",
        description="Numerical checks for finite frame identities and bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a frame and write it as JSON")
    p.add_argument("kind", choices=[k.replace("_", "-") for k in _GENERATORS])
    p.add_argument("--dim", type=_size)
    p.add_argument("--count", type=_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="frame bounds, canonical dual, or Parseval conversion")
    p.add_argument("frame")
    p.add_argument("--mode", choices=("bounds", "dual", "parsevalize"), default="bounds")
    p.add_argument("--tolerance", type=float, default=TAU_ID)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("identity", help="check one energy-split identity")
    p.add_argument("frame")
    p.add_argument("--variant", choices=("pfi", "general", "tight", "overlap", "subspace"),
                   default="pfi")
    p.add_argument("--J", default="", help="'', 'all', 'random', 'random:k', 'a-b', or 'i,j,k'")
    p.add_argument("--E", default="", help="second subset for --variant overlap")
    p.add_argument("--f", default="random",
                   help="components '1,0' or '0.5+0.5j,...', '@file.json', or 'random'")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="tight value for --variant tight (number or 'auto')")
    p.add_argument("--ambient-dim", type=_size, default=None)
    p.add_argument("--parsevalize", action="store_true",
                   help="convert the frame before checking")
    p.add_argument("--tolerance", type=float, default=TAU_ID)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("equiv", help="check the six-way exact-split equivalence")
    p.add_argument("frame")
    p.add_argument("--J", default="")
    p.add_argument("--f", default="random")
    p.add_argument("--parsevalize", action="store_true")
    p.add_argument("--tolerance", type=float, default=TAU_ID)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("extend", help="complete a family to a tight frame")
    p.add_argument("frame")
    p.add_argument("--lambda", dest="lam", default=None, help="tight value (number or 'auto')")
    p.add_argument("--mix-seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=TAU_ID)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("property-run", help="run a randomized verification suite")
    p.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dim-range", type=_range_pair, default=(2, 16))
    p.add_argument("--count-range", type=_range_pair, default=(2, 64))
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--quiet", action="store_true", help="print only the summary")
    p.add_argument("--out", help="also write the envelope to a file")
    p.set_defaults(func=cmd_property_run)

    return parser


def _error(exc: Exception, code: int) -> int:
    # numpy raises subclasses of MemoryError; the document names the builtin
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    print(_dump({"error": {"type": name, "message": str(exc)}}), end="")
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status.

    Without `argv`, main runs as the program: the console script,
    `python -m framecalc.cli` and `sys.exit(main())` each end the process
    when it returns. In that case it freezes the garbage collector first,
    so the objects the imports made are never traversed again, by the
    command's own full collections or by those at interpreter shutdown.
    With `argv` (tests, benchmarks, library callers) the process goes on,
    and the collector is left alone.
    """
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tolerance", None) is not None:
            as_tolerance(args.tolerance)
        doc = args.func(args, argv)
        summary = doc.get("summary", {})  # a frame document has none
        quiet = getattr(args, "quiet", False)
        print(_dump(summary if quiet else doc, None if quiet else 2), end="")
    except (BadParams, FrameFormatError, OSError, MemoryError) as exc:
        return _error(exc, 2)
    except FrameError as exc:
        return _error(exc, 1)
    return 1 if summary.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
