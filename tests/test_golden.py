"""The committed digests of the CLI output and of the sweep rows, rerun here.

tests/golden holds the output of tools/cli_digest.py and tools/rows_digest.py
after a header naming the numpy and OpenBLAS versions it was made with. A
change that moves output on purpose regenerates a file with the tool's
`--write` flag and lists the moved lines, explained by `--against`, in
CHANGES.md.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_digest  # noqa: E402
import rows_digest  # noqa: E402


def _compare(name: str, lines: list[str], explain: str) -> None:
    header, *golden = (cli_digest.GOLDEN / name).read_text(encoding="utf-8").splitlines()
    assert header == cli_digest.golden_header(), (
        f"tests/golden/{name} was made with {header[2:]}, this run has "
        f"{cli_digest.golden_header()[2:]}: regenerate it with `--write` on this stack")
    moved = [f"- {a}\n+ {b}" for a, b in zip(golden, lines) if a != b]
    assert not moved and len(lines) == len(golden), (
        f"{len(moved)} of {len(golden)} lines of tests/golden/{name} moved "
        f"({len(golden)} golden lines, {len(lines)} now):\n" + "\n".join(moved)
        + f"\nexplain them with `{explain}`; regenerate with `--write`")


def test_cli_output_matches_the_committed_digest():
    _compare("cli_digest.txt", cli_digest.digest(ROOT / "src"),
             "python3 tools/cli_digest.py --against <parent>/src --leaves")


def test_sweep_rows_match_the_committed_digest():
    _compare("rows_digest.txt", rows_digest.digest_in_process(ROOT / "src"),
             "python3 tools/rows_digest.py --against <parent>/src")
