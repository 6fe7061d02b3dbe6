"""Count the total and code lines of each module of the cpjoint package.

Code lines are those that hold a token of code: blank lines, comments
and docstrings (module, class and function docstrings, found with ast)
do not count.  The last line gives the number of names in the package's
``__all__``, read from its __init__.py with ast.  Standard library only.

    python tools/src_lines.py [package_dir]

The package directory defaults to src/cpjoint beside this script's
parent directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def exported(source: str) -> int:
    """Number of names in the ``__all__`` list that a module's source assigns."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return len(node.value.elts)
    raise ValueError("no __all__ assignment")


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cpjoint"
    totals = [0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        total, code = count(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{path.name:<16}{total:>7}{code:>7}")
    print(f"{'all':<16}{totals[0]:>7}{totals[1]:>7}")
    print(f"names in __all__: {exported((root / '__init__.py').read_text(encoding='utf-8'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
