"""Count the lines of a Python package: raw, and code outside docstrings,
comments and blank lines.

A docstring is the string that opens a module, class or function body
(found with ``ast``); its lines do not count.  Every other line counts as
code if ``tokenize`` finds a token on it that is not a comment or a line
break, so a line inside a multi-line string or bracket counts.

Usage: ``python tools/code_lines.py [PACKAGE_DIR]`` (default ``src/volfpl``).
Prints one row per module and the total.  It only reports; it never fails
on a count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/volfpl")
    total_raw = total_code = 0
    print(f"{'module':<24} {'raw':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        raw, code = count(path.read_text())
        total_raw += raw
        total_code += code
        print(f"{str(path.relative_to(root)):<24} {raw:>6} {code:>6}")
    print(f"{'total':<24} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
