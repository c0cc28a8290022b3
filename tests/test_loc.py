"""tools/loc.py counts code lines: not blank lines, comments or
docstrings, and a line a multi-line expression spans only once."""

import importlib.util
from pathlib import Path

_LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _LOC)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 8 code lines: the import, def f, the three lines of its dict, class C
# and the two lines of a string that is not a docstring
SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment after code


# a comment line
def f(x):
    """A function docstring."""
    return {
        "a": x,
        # a comment inside an expression
    }


class C:
    """A class docstring."""

    y = """not a docstring,
    two lines"""
'''


def test_counts_code_lines_only():
    assert loc.code_lines(SNIPPET) == 8
    assert loc.code_lines("") == 0
    # a docstring on the line of its def leaves the def counted
    assert loc.code_lines('def g(): """doc"""\n') == 1


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1 a.py",
        "     8 b.py",
        "     9 total",
    ]
