"""The source-size counter on a small fixture module.

``tools/src_lines.py`` is a script, not a package module, so it is loaded
by its path."""

import contextlib
import importlib.util
import io
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# 16 physical lines: 5 of module, class and function docstrings, 4 blank,
# 2 comments alone, and 5 of code, one of them a string that is no
# docstring and one a line with a trailing comment
FIXTURE = '''"""A module
docstring."""

# a comment alone
import math


class Box:
    """One line."""

    def area(self):
        """Two
        lines."""
        # another comment
        note = """not a docstring"""
        return math.pi  # trailing comment
'''


def test_count_skips_blank_lines_comments_and_docstrings():
    assert src_lines.count(FIXTURE) == (16, 5)


def test_main_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert src_lines.main([str(tmp_path)]) == 0
    assert [line.split() for line in out.getvalue().splitlines()] == [
        ["module", "physical", "code"],
        ["a.py", "2", "1"],
        ["b.py", "16", "5"],
        ["total", "18", "6"],
    ]
