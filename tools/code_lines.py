"""Print the code lines of each `src/balseq` module and their total.

A code line is a physical line that holds part of a statement: blank lines,
comment lines and the lines of docstrings (a string literal that is the
first statement of a module, class or function) do not count.  A statement
that spans three lines counts three.  This is the count that the
simplicity entries of CHANGES.md and ROADMAP.md quote.

    python tools/code_lines.py

prints one `<lines>  <module>` line per module, in name order, then
`<total>  total`.  It imports only the standard library.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "balseq"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
