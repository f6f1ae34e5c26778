"""The committed digests of the CLI output and of the sweep rows, rerun here.

tests/golden holds the output of tools/cli_digest.py and tools/rows_digest.py
after a header naming the numpy and OpenBLAS versions it was made with. A
change that moves output on purpose regenerates a file with the tool's
`--write` flag and lists the moved lines, explained by `--against`, in
CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import cli_digest  # noqa: E402
import loc  # noqa: E402
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


def test_the_digest_runs_its_frame_writers_before_the_concurrent_rest():
    assert cli_digest.parallel_start(cli_digest.COMMANDS) == 4


@pytest.mark.parametrize("commands", [
    ["identity b.json", "gen mercedes --out b.json"],
    ["gen mercedes --out a.json", "identity a.json", "extend a.json --out b.json",
     "analyze a.json --out b.json"],
    ["identity a.json --f @v.json", "gen harmonic --dim 2 --count 3 --out v.json"],
])
def test_the_digest_refuses_to_run_commands_sharing_a_file_concurrently(commands):
    with pytest.raises(ValueError):
        cli_digest.parallel_start(commands)


def test_the_line_counter_skips_blanks_comments_and_docstrings():
    text = ('"""Module\ndoc."""\n\nimport os  # kept\n\n\ndef f():\n    """One line."""\n'
            '    # a comment alone\n    return "not a docstring"\n')
    assert loc.counts(text) == (10, 3)
    assert loc.report({"a.py": (9, 3)}, {"a.py": (10, 5), "b.py": (2, 1)}) == [
        "     9    -1      3    -2 a.py", "     0    -2      0    -1 b.py",
        "     9    -3      3    -3 total"]
