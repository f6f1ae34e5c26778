"""Line counts of a Python source tree, module by module.

Prints one line per module under `--src` (every `*.py` below it, by
relative path) and a total line:

    <total lines> <code lines> <module>

Total lines are the lines of the file. Code lines are the lines that are
not blank, not a comment alone and not inside a docstring (the leading
string of a module, class or function body):

    python3 tools/loc.py --src path/to/src

With `--against OTHER_SRC` each line also gives the change from OTHER_SRC,
as `+n`/`-n` after each count; a module in only one of the trees counts
as zero lines in the other:

    python3 tools/loc.py --against path/to/parent/src
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def counts(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source text."""
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return len(lines), code


def tree_counts(src: Path) -> dict[str, tuple[int, int]]:
    """counts() of every *.py file below src, keyed by its path relative to src."""
    return {path.relative_to(src).as_posix(): counts(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def _total(tree: dict) -> tuple[int, int]:
    return sum(total for total, _ in tree.values()), sum(code for _, code in tree.values())


def report(new: dict, old: dict | None = None) -> list[str]:
    """The module lines and the total line; with `old`, each count's change."""
    before = old or {}
    rows = [(name, new.get(name, (0, 0)), before.get(name, (0, 0)))
            for name in sorted(set(new) | set(before))]
    rows.append(("total", _total(new), _total(before)))
    if old is None:
        return [f"{total:6d} {code:6d} {name}" for name, (total, code), _ in rows]
    return [f"{total:6d} {total - was_total:+5d} {code:6d} {code - was_code:+5d} {name}"
            for name, (total, code), (was_total, was_code) in rows]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="source tree to count (default: this checkout's src)")
    parser.add_argument("--against", type=Path,
                        help="another source tree; print the change from it")
    args = parser.parse_args()
    old = tree_counts(args.against) if args.against is not None else None
    print("\n".join(report(tree_counts(args.src), old)))


if __name__ == "__main__":
    main()
