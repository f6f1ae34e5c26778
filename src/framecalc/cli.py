"""Command-line front end.

Every command prints exactly one JSON document to stdout: an envelope

    {"tool_version", "command", "config", "results", "summary"}

with summary counts {total, passed, failed, borderline, max_rel_diff}.
No timestamps or environment data appear anywhere, so identical
invocations produce byte-identical output. Exit status: 0 when nothing
failed, 1 on a check failure or domain error (reported as a JSON error
object), 2 on usage or IO problems.

Randomized inputs (--J random, --f random, embeddings) draw from
deterministic streams derived from --seed: child 0 feeds J, child 1
feeds E, child 2 feeds f, and the subspace embedding isometry is drawn
from SplitMix64(--seed) itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from . import __version__
from .errors import BadParams, FrameError, FrameFormatError
from .frames import (
    _GENERATORS,
    as_tolerance,
    canonical_dual,
    coefficients,
    complete_to_tight,
    embed_subspace_frame,
    frame_bounds,
    generate,
    norm_sq,
    parsevalize,
    random_isometry,
    tight_deviation,
    union,
)
from .frame_io import frame_to_document, read_frame, write_frame
from .identities import (
    equivalence_conditions,
    general_identity_report,
    overlap_identity_report,
    parseval_identity_report,
    subspace_identity_report,
    tight_extension_compare,
    tight_identity_report,
)
from .rng import SplitMix64
from .sweeps import SUITE_NAMES, RunConfig, run_suites

def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump(doc, indent: int | None = 2) -> str:
    """Strict JSON: a NaN or infinity raises FrameError, never reaches stdout."""
    try:
        text = json.dumps(doc, indent=indent, sort_keys=True, default=_json_default,
                          allow_nan=False)
    except ValueError as exc:
        raise FrameError(f"result is not finite: {exc}") from None
    return text + "\n"


def _envelope(argv: list[str], config: dict, results: list, summary: dict) -> dict:
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


def _parse_subset_spec(spec: str, n: int, rng: SplitMix64) -> list[int]:
    spec = spec.strip()
    if spec == "":
        return []
    if spec == "all":
        return list(range(n))
    if spec == "random":
        return rng.subset(n)
    m = re.fullmatch(r"random:(\d+)", spec)
    if m:
        k = int(m.group(1))
        if k > n:
            raise BadParams(f"random:{k} needs k <= {n}")
        return rng.sample(n, k)
    m = re.fullmatch(r"(\d+)-(\d+)", spec)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a > b:
            raise BadParams(f"bad range {spec!r}")
        return list(range(a, b + 1))
    if re.fullmatch(r"\d+(,\d+)*", spec):
        return [int(x) for x in spec.split(",")]
    raise BadParams(
        f"bad index subset {spec!r}; use '', 'all', 'random', 'random:k', 'a-b', or 'i,j,k'"
    )


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
            if isinstance(entry, list) and len(entry) == 2:
                out[i] = complex(float(entry[0]), float(entry[1]))
            elif isinstance(entry, (int, float)) and not isinstance(entry, bool):
                out[i] = complex(float(entry), 0.0)
            else:
                raise BadParams(f"vector entry {i} must be a number or [re, im]")
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


def _vector_echo(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


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


def cmd_gen(args, argv: list[str]) -> tuple[dict | None, int]:
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
        print(_dump(frame_to_document(frame)), end="")
        return None, 0
    write_frame(frame, args.out)
    bounds = frame_bounds(frame)
    result = {
        "kind": args.kind,
        "dim": frame.dim,
        "count": frame.count,
        "field": frame.field,
        "path": args.out,
        "bounds": dataclasses.asdict(bounds),
    }
    config = {"kind": args.kind, **params, "out": args.out}
    env = _envelope(argv, config, [result], _single_summary(True))
    return env, 0


def cmd_analyze(args, argv: list[str]) -> tuple[dict | None, int]:
    frame = read_frame(args.frame)
    config = {"frame": args.frame, "mode": args.mode, "out": args.out}
    tol = args.tolerance
    if args.mode == "bounds":
        bounds = frame_bounds(frame)
        result = {
            "mode": "bounds",
            "dim": frame.dim,
            "count": frame.count,
            "field": frame.field,
            "bounds": dataclasses.asdict(bounds),
        }
        env = _envelope(argv, config, [result], _single_summary(True))
        return env, 0
    if args.mode == "dual":
        derived = canonical_dual(frame)
        # reconstruction through the dual must give back the input vector
        probe = np.zeros(frame.dim, dtype=np.complex128)
        probe[0] = 1.0
        recon = coefficients(derived, probe) @ frame.vectors
        err = float(np.linalg.norm(recon - probe))
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
    if args.out is not None:
        write_frame(derived, args.out)
        result["path"] = args.out
    else:
        result["frame"] = frame_to_document(derived)
    env = _envelope(argv, config, [result], _single_summary(passed, err))
    return env, 0 if passed else 1


def cmd_identity(args, argv: list[str]) -> tuple[dict | None, int]:
    frame = read_frame(args.frame)
    if args.parsevalize:
        frame = parsevalize(frame)
    tol = args.tolerance
    master = SplitMix64(args.seed)
    subset = _parse_subset_spec(args.J, frame.count, master.derive(0))
    result: dict = {"variant": args.variant, "subset": subset}
    if args.variant == "subspace":
        if args.ambient_dim is None:
            raise BadParams("--ambient-dim is required for --variant subspace")
        iso = random_isometry(args.ambient_dim, frame.dim, args.seed, frame.field)
        sub = embed_subspace_frame(frame, args.ambient_dim, iso)
        f = _parse_vector_spec(args.f, args.ambient_dim, frame.field, master.derive(2))
        report = subspace_identity_report(sub, subset, f, tol)
    else:
        f = _parse_vector_spec(args.f, frame.dim, frame.field, master.derive(2))
        if args.variant == "pfi":
            report = parseval_identity_report(frame, subset, f, tol)
        elif args.variant == "general":
            report = general_identity_report(frame, subset, f, tol)
        elif args.variant == "tight":
            report = tight_identity_report(frame, subset, f, _parse_lambda(args.lam), tol)
        else:
            e = _parse_subset_spec(args.E, frame.count, master.derive(1))
            result["subset_e"] = e
            report = overlap_identity_report(frame, subset, e, f, tol)
    result["f"] = _vector_echo(f)
    result["report"] = dataclasses.asdict(report)
    config = {
        "frame": args.frame,
        "variant": args.variant,
        "J": args.J,
        "E": args.E,
        "f": args.f,
        "lambda": args.lam,
        "ambient_dim": args.ambient_dim,
        "parsevalize": args.parsevalize,
        "tolerance": tol,
        "seed": args.seed,
    }
    env = _envelope(argv, config, [result], _single_summary(report.passed, report.rel_diff))
    return env, 0 if report.passed else 1


def cmd_equiv(args, argv: list[str]) -> tuple[dict | None, int]:
    frame = read_frame(args.frame)
    if args.parsevalize:
        frame = parsevalize(frame)
    tol = args.tolerance
    master = SplitMix64(args.seed)
    subset = _parse_subset_spec(args.J, frame.count, master.derive(0))
    f = _parse_vector_spec(args.f, frame.dim, frame.field, master.derive(2))
    report = equivalence_conditions(frame, subset, f, tol)
    result = {
        "subset": subset,
        "f": _vector_echo(f),
        "conditions": [dataclasses.asdict(c) for c in report.conditions],
        "consistent": report.consistent,
        "borderline": report.borderline,
    }
    config = {
        "frame": args.frame,
        "J": args.J,
        "f": args.f,
        "parsevalize": args.parsevalize,
        "tolerance": tol,
        "seed": args.seed,
    }
    summary = _single_summary(report.consistent, 0.0, report.borderline)
    env = _envelope(argv, config, [result], summary)
    return env, 0 if summary["failed"] == 0 else 1


def cmd_extend(args, argv: list[str]) -> tuple[dict | None, int]:
    frame = read_frame(args.frame)
    tol = args.tolerance
    lam = _parse_lambda(args.lam)
    lam_used = frame_bounds(frame).upper if lam is None else lam
    completion = complete_to_tight(frame, lam, mix_seed=args.mix_seed)
    combined = union(frame, completion)
    dev = tight_deviation(combined, lam_used)
    tight_ok = dev <= tol * max(1.0, lam_used)

    # shared-property comparison across two differently mixed completions
    base_mix = args.mix_seed if args.mix_seed is not None else 0
    first = complete_to_tight(frame, lam, mix_seed=base_mix + 1)
    second = complete_to_tight(frame, lam, mix_seed=base_mix + 2)
    probe = np.zeros(frame.dim, dtype=np.complex128)
    probe[0] = 1.0
    cmp = tight_extension_compare(
        frame, first, second, lam_used, probe, trials=100, seed=base_mix, tolerance=tol
    )
    passed = bool(tight_ok and cmp.passed)
    result = {
        "lambda_used": lam_used,
        "added_count": completion.count,
        "union_tight_dev": float(dev),
        "union_tight": bool(tight_ok),
        "compare": dataclasses.asdict(cmp),
    }
    if args.out is not None:
        write_frame(completion, args.out)
        result["path"] = args.out
    else:
        result["frame"] = frame_to_document(completion)
    config = {
        "frame": args.frame,
        "lambda": args.lam,
        "mix_seed": args.mix_seed,
        "tolerance": tol,
        "out": args.out,
    }
    env = _envelope(argv, config, [result], _single_summary(passed, cmp.max_energy_rel_diff))
    return env, 0 if passed else 1


def cmd_property_run(args, argv: list[str]) -> tuple[dict | None, int]:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    config = RunConfig(
        seed=args.seed,
        trials=args.trials,
        dim_range=args.dim_range,
        count_range=args.count_range,
        tolerance=args.tolerance,
    )
    results, summary = run_suites(names, config)
    config_echo = {
        "suite": args.suite,
        "seed": args.seed,
        "trials": args.trials,
        "dim_range": list(args.dim_range),
        "count_range": list(args.count_range),
        "tolerance": args.tolerance,
    }
    env = _envelope(argv, config_echo, results, summary)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump(env))
    if args.quiet:
        print(_dump(summary, indent=None), end="")
        return None, 0 if summary["failed"] == 0 else 1
    return env, 0 if summary["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def _range_pair(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+),(\d+)", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return int(m.group(1)), int(m.group(2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecalc",
        description="Numerical checks for finite frame identities and bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a frame and write it as JSON")
    p.add_argument("kind", choices=[k.replace("_", "-") for k in _GENERATORS])
    p.add_argument("--dim", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", choices=("real", "complex"), default="real")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="frame bounds, canonical dual, or Parseval conversion")
    p.add_argument("frame")
    p.add_argument("--mode", choices=("bounds", "dual", "parsevalize"), default="bounds")
    p.add_argument("--tolerance", type=float, default=1e-9)
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
    p.add_argument("--ambient-dim", type=int, default=None)
    p.add_argument("--parsevalize", action="store_true",
                   help="convert the frame before checking")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("equiv", help="check the six-way exact-split equivalence")
    p.add_argument("frame")
    p.add_argument("--J", default="")
    p.add_argument("--f", default="random")
    p.add_argument("--parsevalize", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("extend", help="complete a family to a tight frame")
    p.add_argument("frame")
    p.add_argument("--lambda", dest="lam", default=None, help="tight value (number or 'auto')")
    p.add_argument("--mix-seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-9)
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


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tolerance", None) is not None:
            as_tolerance(args.tolerance)
        env, code = args.func(args, argv)
        if env is not None:
            print(_dump(env), end="")
    except (BadParams, FrameFormatError, OSError) as exc:
        print(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}), end="")
        return 2
    except FrameError as exc:
        print(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}), end="")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
