"""Count the code lines of Python modules: lines that carry a token outside
comments and docstrings.

    python tests/code_lines.py src/pinrig

prints each module's count and the total.  Blank lines, comment lines and
the docstrings of modules, classes and functions do not count; every line
that a statement spans does, so a call split over three lines counts three.
Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(source):
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that carry code."""
    docs = _docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tests/code_lines.py DIRECTORY")
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem:12} {n:6,}")
    print(f"{'total':12} {total:6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
