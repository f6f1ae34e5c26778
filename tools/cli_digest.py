"""Digest of the CLI's output over a fixed command set.

Runs every command below as `python -W error -m framecalc.cli ...` in a
fresh temporary directory, with relative file names, so the echoed
`command` field does not depend on where the tool runs. The vector files
of VECTOR_FILES and the frame files of FRAME_FILES are written there
first. Commands run in order; the first few write the frame files the
later ones read. Prints one line per command:

    <exit code> <sha256> <stderr bytes> <argv>

The hash covers stdout, followed by the bytes of the `--out` file when
the command writes one. Comparing the output of two checkouts shows
whether a change kept every byte the CLI prints:

    python3 tools/cli_digest.py --src path/to/src

With `--against OTHER_SRC` it digests both trees and prints only the
commands whose `exit sha256 stderr-bytes` differ, as a `-` line for
OTHER_SRC and a `+` line for `--src`; it exits 1 when any command differs:

    python3 tools/cli_digest.py --against path/to/parent/src

Adding `--leaves` checks that a difference is only in floating-point
digits. Both stdouts (and `--out` files) of each differing command are
parsed as JSON and compared leaf by leaf; a line after the pair gives the
number of float leaves that differ and the worst gap |new - old| /
max(1, |old|). The command fails the check, and the tool exits 1, when
its exit code, its stderr length or any non-float leaf differs, or when a
float gap exceeds 1e-12:

    python3 tools/cli_digest.py --against path/to/parent/src --leaves

With `--write` it digests `--src` and writes the lines to
tests/golden/cli_digest.txt, after a header line naming the numpy and
OpenBLAS versions they were made with; tests/test_golden.py reruns the
digest and compares it with that file line by line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    "gen mercedes --out merc.json",
    "gen random-parseval --dim 16 --count 40 --seed 1 --field complex --out p16.json",
    "gen random-gaussian --dim 16 --count 40 --seed 2 --out g16.json",
    "gen doubled-onb --dim 3 --out d3.json",
    "gen random-parseval --dim 3 --count 5 --seed 3 --field complex",
    # the first Gaussian attempt is rejected, so random_parseval redraws
    "gen random-parseval --dim 6 --count 6 --seed 1",
    "gen doubled-onb --dim 3",
    "gen harmonic --dim 3 --count 7",
    "analyze g16.json",
    "analyze g16.json --mode dual",
    "analyze g16.json --mode parsevalize --out g16p.json",
    "identity p16.json --J random --seed 7",
    "identity g16.json --variant general --J random --seed 7",
    "identity p16.json --variant tight --lambda auto --J 0-3",
    "identity p16.json --variant overlap --J 0,1 --E random --seed 7",
    "identity merc.json --variant subspace --ambient-dim 4 --J random --seed 7",
    "identity p16.json --variant subspace --ambient-dim 19 --J random:5 --seed 8",
    "identity g16.json --parsevalize --J all --f random --seed 9",
    "equiv p16.json --J random --seed 7",
    "equiv merc.json --J 0 --f 1,0",
    # J holds both copies of e1, so S_J is a projection: every condition holds
    "equiv d3.json --J 0,1 --f 1,2,3",
    # --f @file: plain numbers and [re, im] pairs
    "identity merc.json --J 0 --f @v2.json",
    "identity p16.json --variant general --J 1,4,9 --f @v16.json",
    "equiv p16.json --J 0-7 --f @v16.json",
    "extend g16.json --out ext.json",
    "extend merc.json --lambda 2 --mix-seed 5",
    # merc.json is already tight at the default lambda: an empty completion
    "extend merc.json",
    # lambda_max about 0.0105: the union is judged at tol * lambda, below tol
    "extend small.json",
    # lambda 5e-13 below lambda_max = 1, inside tau = 1e-12 * max(1, lambda_max):
    # an empty completion; 2e-12 below it is LambdaTooSmall (exit 1)
    "extend merc.json --lambda 0.9999999999995",
    "extend merc.json --lambda 0.999999999998",
    "property-run --help",
    "property-run --suite all --trials 300 --seed 101 --quiet",
    "property-run --suite all --trials 300 --seed 918273",
    "property-run --suite all --trials 300 --seed 7",
    "property-run --suite all --trials 300 --seed 2024",
    # one process: 40 trials per block is below the split threshold
    "property-run --suite all --trials 40 --seed 5 --quiet",
    # two blocks, each split between processes
    "property-run --suite pfi --trials 1100 --seed 11 --quiet",
    # every row through --leaves: empty completions, conditioned-draw fallbacks
    "property-run --suite extension --trials 50 --seed 3 --dim-range 1,3 --count-range 1,5",
    # raw resolutions at d <= 3, among them the exempt real d = 1 one (trial 35)
    "property-run --suite sj --trials 60 --seed 3 --dim-range 1,3 --count-range 1,5",
    "property-run --suite general --trials 60 --seed 5 --dim-range 6,6 --count-range 6,7",
    "property-run --suite bounds --trials 60 --seed 5 --dim-range 6,6 --count-range 6,7",
    # every suite at d <= 4, each d group holding real and complex trials
    "property-run --suite all --trials 120 --seed 11 --dim-range 1,4 --count-range 1,8",
    # exit 1: a check fails or the input is outside a domain
    "identity g16.json",
    "extend merc.json --lambda 0.1",
    "identity p16.json --variant overlap --J 0,1 --E 1,2",
    # no square 64 x 64 Gaussian attempt is conditioned enough: the draw gives up
    "gen random-parseval --dim 64 --count 64 --seed 1",
    # the same in a sweep: the conditioned stack gives up after 1,000 attempts
    "property-run --suite general --trials 1 --seed 1 --dim-range 64,64 --count-range 64,64",
    # exit 2: usage and IO errors
    "identity merc.json --J 0,5",
    "equiv merc.json --J 3 --f 1,0",
    "identity missing.json",
    "identity merc.json --J 1-x",
    "identity merc.json --J 1,1",
    "identity merc.json --f 1,2,3",
    "property-run --suite bogus",
    "property-run --trials 0",
    # non-finite inputs
    "extend g16.json --lambda inf",
    "identity p16.json --variant tight --lambda inf",
    "identity merc.json --J 0 --f 1e308,1e308",
]

# the vector files the `--f @file` commands read, as exact JSON text
VECTOR_FILES = {
    "v2.json": "[1, [0.5, -0.25]]\n",
    "v16.json": "[0.5, [0, 1], -2, [1e-3, -4.5], [0.25, 0.25], 3, -0.0, [7, 0],"
                " 1.5e-2, [-1, -1], 0, [2.5, 0.5], -0.75, [0, -3], 4, [1, 2]]\n",
}

# the frame files read before any command writes one, as exact JSON text
FRAME_FILES = {
    "small.json": '{"dim": 2, "field": "real", "vectors": [[[0.1, 0], [0, 0]],'
                  ' [[0.02, 0], [0.05, 0]]]}\n',
}

FLOAT_GAP = 1e-12

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def golden_header() -> str:
    """The first line of a golden file: the numpy and OpenBLAS versions of this interpreter."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, {blas['name']} {blas['version']}"


def write_golden(name: str, lines: list[str]) -> None:
    """Write tests/golden/<name> as the header line and then the digest lines."""
    (GOLDEN / name).write_text("\n".join([golden_header(), *lines]) + "\n", encoding="utf-8")


def _out_file(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_commands(src: Path) -> list[tuple[str, int, bytes, bytes | None, int]]:
    """(command, exit code, stdout, --out file bytes or None, stderr length) per command."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    runs = []
    with tempfile.TemporaryDirectory() as work:
        for name, text in {**VECTOR_FILES, **FRAME_FILES}.items():
            (Path(work) / name).write_text(text, encoding="utf-8")
        for command in COMMANDS:
            argv = command.split()
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "framecalc.cli", *argv],
                cwd=work, env=env, capture_output=True, check=False,
            )
            out = _out_file(argv)
            path = Path(work) / out if out is not None else None
            written = path.read_bytes() if path is not None and path.exists() else None
            runs.append((command, proc.returncode, proc.stdout, written, len(proc.stderr)))
    return runs


def digest_line(run) -> str:
    command, code, stdout, written, stderr_bytes = run
    h = hashlib.sha256(stdout)
    if written is not None:
        h.update(written)
    return f"{code} {h.hexdigest()} {stderr_bytes} {command}"


def digest(src: Path) -> list[str]:
    return [digest_line(run) for run in run_commands(src)]


def compare_leaves(old, new, path: str = "") -> tuple[list[str], list[float]]:
    """(paths of non-float leaves that differ, gaps of float leaves that differ)."""
    if type(old) is float and type(new) is float:
        return [], ([abs(new - old) / max(1.0, abs(old))] if new != old else [])
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        pairs = [(old[k], new[k], f"{path}/{k}") for k in sorted(old)]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(a, b, f"{path}/{i}") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return ([] if old == new and type(old) is type(new) else [path or "/"]), []
    mismatches, gaps = [], []
    for a, b, p in pairs:
        m, g = compare_leaves(a, b, p)
        mismatches += m
        gaps += g
    return mismatches, gaps


def _documents(run) -> list:
    _, _, stdout, written, _ = run
    docs = [stdout] + ([written] if written is not None else [])
    return [json.loads(doc) for doc in docs]


def leaf_check(old_run, new_run) -> tuple[bool, str]:
    """Whether new_run differs from old_run only in float digits, and a summary line."""
    if old_run[1] != new_run[1] or old_run[4] != new_run[4]:
        return False, (f"exit {old_run[1]} -> {new_run[1]}, stderr bytes "
                       f"{old_run[4]} -> {new_run[4]}")
    try:
        old_docs, new_docs = _documents(old_run), _documents(new_run)
    except ValueError as exc:
        return False, f"output is not JSON: {exc}"
    mismatches, gaps = compare_leaves(old_docs, new_docs)
    worst = max(gaps, default=0.0)
    ok = not mismatches and worst <= FLOAT_GAP
    line = f"{len(gaps)} float leaves differ, worst gap {worst:.3e}"
    if mismatches:
        line += f"; {len(mismatches)} other leaves differ, first at {mismatches[0]}"
    return ok, line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the framecalc package (default: this checkout)")
    parser.add_argument("--against", type=Path,
                        help="another framecalc source tree; print only the commands that differ")
    parser.add_argument("--leaves", action="store_true",
                        help="with --against: pass commands that differ only in float digits")
    parser.add_argument("--write", action="store_true",
                        help="write the digest of --src to tests/golden/cli_digest.txt")
    args = parser.parse_args()
    if args.write:
        write_golden("cli_digest.txt", digest(args.src.resolve()))
        return
    if args.against is None:
        for line in digest(args.src.resolve()):
            print(line, flush=True)
        return
    failed = False
    for old, new in zip(run_commands(args.against.resolve()), run_commands(args.src.resolve())):
        if digest_line(old) == digest_line(new):
            continue
        print(f"- {digest_line(old)}\n+ {digest_line(new)}", flush=True)
        if args.leaves:
            ok, line = leaf_check(old, new)
            print(f"  {'ok' if ok else 'FAIL'}: {line}", flush=True)
            failed = failed or not ok
        else:
            failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
