"""Digest of the sweep rows over a fixed set of run configurations.

Runs `sweeps.run_suite` for every suite on every configuration below,
once with `sweeps._PROCS` = 1 and once with 2 (a 200-trial block is then
shared with a forked worker), and prints one line per run:

    <sha256> procs=<P> <suite> seed=<S> dims=<lo,hi> counts=<lo,hi> trials=<T>

The hash covers the JSON text of the run's rows and summary, so two
checkouts print the same line only when every row is bitwise the same.
The configurations are seeds 1, 101, 918273 and 2^64 - 3 at the range
pairs (2,16)/(2,64), (1,3)/(1,5) and (1,16)/(1,64), 200 trials each, and
the redraw-heavy configuration of the row-oracle tests (seed 5, 60
trials, d = 6, n in 6..7):

    python3 tools/rows_digest.py --src path/to/src

With `--against OTHER_SRC` it digests both trees, each in its own
process, and prints only the lines that differ, as a `-` line for
OTHER_SRC and a `+` line for `--src`; it exits 1 when any line differs:

    python3 tools/rows_digest.py --against path/to/parent/src

With `--write` it digests `--src` in a fresh interpreter and writes the
lines to tests/golden/rows_digest.txt, after cli_digest's header line of
numpy and OpenBLAS versions; tests/test_golden.py compares a rerun with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from cli_digest import write_golden

SEEDS = (1, 101, 918273, 2**64 - 3)
RANGES = (((2, 16), (2, 64)), ((1, 3), (1, 5)), ((1, 16), (1, 64)))
TRIALS = 200
# ORACLE_CONFIGS["redraws"] of tests/test_sweeps.py
REDRAWS = (5, (6, 6), (6, 7), 60)


def configs() -> list[tuple[int, tuple, tuple, int]]:
    """(seed, dim_range, count_range, trials) of every digested run."""
    return [(seed, dims, counts, TRIALS) for seed in SEEDS for dims, counts in RANGES] + [REDRAWS]


def digest(src: Path) -> list[str]:
    """The digest lines of the framecalc package under src, in this process."""
    sys.path.insert(0, str(src))
    from framecalc import SUITE_NAMES, RunConfig, run_suite, sweeps

    lines = []
    for procs in (1, 2):
        sweeps._PROCS = procs
        for seed, dims, counts, trials in configs():
            config = RunConfig(seed=seed, trials=trials, dim_range=dims, count_range=counts)
            for name in SUITE_NAMES:
                text = json.dumps(run_suite(name, config))
                lines.append(f"{hashlib.sha256(text.encode()).hexdigest()} procs={procs} {name} "
                             f"seed={seed} dims={dims[0]},{dims[1]} "
                             f"counts={counts[0]},{counts[1]} trials={trials}")
    return lines


def digest_in_process(src: Path) -> list[str]:
    """The digest lines of src, from a fresh interpreter that imports only it."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--src", str(src)], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the framecalc package (default: this checkout)")
    parser.add_argument("--against", type=Path,
                        help="another framecalc source tree; print only the lines that differ")
    parser.add_argument("--write", action="store_true",
                        help="write the digest of --src to tests/golden/rows_digest.txt")
    args = parser.parse_args()
    if args.write:
        write_golden("rows_digest.txt", digest_in_process(args.src.resolve()))
        return
    if args.against is None:
        for line in digest(args.src.resolve()):
            print(line, flush=True)
        return
    old, new = digest_in_process(args.against.resolve()), digest_in_process(args.src.resolve())
    differing = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in differing:
        print(f"- {a}\n+ {b}", flush=True)
    sys.exit(1 if differing or len(old) != len(new) else 0)


if __name__ == "__main__":
    main()
