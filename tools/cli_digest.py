"""Digest of the CLI's output over a fixed command set.

Runs every command below as `python -W error -m framecalc.cli ...` in a
fresh temporary directory, with relative file names, so the echoed
`command` field does not depend on where the tool runs. Commands run in
order; the first few write the frame files the later ones read. Prints
one line per command:

    <exit code> <sha256> <stderr bytes> <argv>

The hash covers stdout, followed by the bytes of the `--out` file when
the command writes one. Comparing the output of two checkouts shows
whether a change kept every byte the CLI prints:

    python3 tools/cli_digest.py --src path/to/src

With `--against OTHER_SRC` it digests both trees and prints only the
commands whose `exit sha256 stderr-bytes` differ, as a `-` line for
OTHER_SRC and a `+` line for `--src`; it exits 1 when any command differs:

    python3 tools/cli_digest.py --against path/to/parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    "gen mercedes --out merc.json",
    "gen random-parseval --dim 16 --count 40 --seed 1 --field complex --out p16.json",
    "gen random-gaussian --dim 16 --count 40 --seed 2 --out g16.json",
    "gen random-parseval --dim 3 --count 5 --seed 3 --field complex",
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
    "extend g16.json --out ext.json",
    "extend merc.json --lambda 2 --mix-seed 5",
    "property-run --suite all --trials 300 --seed 101 --quiet",
    "property-run --suite all --trials 300 --seed 918273",
    "property-run --suite all --trials 300 --seed 7",
    "property-run --suite all --trials 300 --seed 2024",
    # exit 1: a check fails or the input is outside a domain
    "identity g16.json",
    "extend merc.json --lambda 0.1",
    "identity merc.json --J 0,5",
    "identity p16.json --variant overlap --J 0,1 --E 1,2",
    "equiv merc.json --J 3 --f 1,0",
    # exit 2: usage and IO errors
    "identity missing.json",
    "identity merc.json --J 1-x",
    "identity merc.json --J 1,1",
    "identity merc.json --f 1,2,3",
    # non-finite inputs
    "extend g16.json --lambda inf",
    "identity p16.json --variant tight --lambda inf",
    "identity merc.json --J 0 --f 1e308,1e308",
]


def _out_file(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def digest(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for command in COMMANDS:
            argv = command.split()
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "framecalc.cli", *argv],
                cwd=work, env=env, capture_output=True, check=False,
            )
            h = hashlib.sha256(proc.stdout)
            out = _out_file(argv)
            if out is not None and (Path(work) / out).exists():
                h.update((Path(work) / out).read_bytes())
            lines.append(f"{proc.returncode} {h.hexdigest()} {len(proc.stderr)} {command}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the framecalc package (default: this checkout)")
    parser.add_argument("--against", type=Path,
                        help="another framecalc source tree; print only the commands that differ")
    args = parser.parse_args()
    if args.against is None:
        for line in digest(args.src.resolve()):
            print(line, flush=True)
        return
    changed = [(old, new) for old, new in zip(digest(args.against.resolve()),
                                              digest(args.src.resolve())) if old != new]
    for old, new in changed:
        print(f"- {old}\n+ {new}", flush=True)
    sys.exit(1 if changed else 0)


if __name__ == "__main__":
    main()
