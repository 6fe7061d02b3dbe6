"""tools/src_lines.py: code lines leave out docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line


class A:
    """Class docstring."""

    def f(self):
        # a comment line
        """Still f's docstring: a comment is not a statement."""
        text = """a string
        over two lines"""
        return text
'''


def test_counts_total_and_code_lines():
    # Code: import, class, def, text = (two lines) and return.
    assert src_lines.count(SOURCE) == (15, 6)

