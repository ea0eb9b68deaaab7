"""Count the source size of the package, per module and in total.

    python3 tools/src_lines.py [DIR]

DIR defaults to ``src/zetaseries``.  For each ``*.py`` file in it, in name
order, it prints the physical lines (what ``wc -l`` reads) and the code
lines: the physical lines that are not blank, not a comment alone and not
part of a docstring (the first statement of a module, class or function,
when it is a string).  A last line gives both totals.  Needs only the
standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _docstring_lines(source: str) -> set:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(physical lines, code lines) of one module's source."""
    physical = source.splitlines()
    docstrings = _docstring_lines(source)
    code = sum(1 for number, line in enumerate(physical, 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return len(physical), code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else ROOT / "src" / "zetaseries"
    total_physical = total_code = 0
    print(f"{'module':<20} {'physical':>8} {'code':>6}")
    for path in sorted(directory.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical, total_code = total_physical + physical, total_code + code
        print(f"{path.name:<20} {physical:>8} {code:>6}")
    print(f"{'total':<20} {total_physical:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
