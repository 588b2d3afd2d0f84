#!/usr/bin/env python3
"""Count the code lines of each module of ``src/stemsize``: lines that hold a
token other than a comment, and that are not part of a docstring (the first
statement of a module, class or function, if it is a string).  Blank lines
do not count either.

    python3 scripts/code_lines.py

prints one ``count  module`` line per module, sorted by name, then
``count  total``.
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "stemsize"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
