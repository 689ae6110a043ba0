"""Count the lines of each module of a package: all of them, and code lines.

A code line holds at least one token outside comments and docstrings, so
blank, comment-only and docstring lines are left out.  A docstring is the
leading string of a module, class or function, as ast.get_docstring finds
it.  The package's C sources (*.c) count too: there a code line holds a
character that is neither blank nor part of a /* */ or // comment, and
is not only the backslash that continues a macro.

Usage: python tools/code_lines.py [DIR]   (DIR defaults to src/btas)
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> "tuple[int, int]":
    """(total lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


# a C comment, or a string or character literal, which may hold "/*" or "//"
_C_SKIPPED = re.compile(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.DOTALL)


def count_c_lines(source: str) -> "tuple[int, int]":
    """(total lines, code lines) of one C source."""
    # comments become blanks that keep their newlines; literals are code
    code = _C_SKIPPED.sub(lambda m: re.sub(r"[^\n]", " ", m[0]) if m[0][0] == "/" else m[0], source)
    # a lone backslash only splices a macro's lines
    return len(source.splitlines()), sum(1 for line in code.splitlines() if line.strip() not in ("", "\\"))


def main(argv: "list[str]") -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "btas"
    totals = [0, 0]
    print(f"{'module':<24} {'lines':>6} {'code':>6}")
    for path in sorted([*package.glob("*.py"), *package.glob("*.c")]):
        counter = count_c_lines if path.suffix == ".c" else count_lines
        lines, code = counter(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<24} {lines:>6} {code:>6}")
    print(f"{'total':<24} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
