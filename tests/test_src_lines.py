"""tools/src_lines.py: code lines leave out docstrings, comments and blank lines;
the export count is the length of ``__all__``."""

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


def test_counts_the_names_in_all():
    source = 'from .a import f\n\n__version__ = "1"\n\n__all__ = [\n    "f",\n    "g",\n]\n'
    assert src_lines.exported(source) == 2
