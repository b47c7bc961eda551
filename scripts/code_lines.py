#!/usr/bin/env python3
"""Count the code lines of each module of src/confsim, and their total.

A code line holds at least one token that is not a comment, a docstring or
whitespace; blank lines, comment-only lines and the lines of module, class
and function docstrings are not counted.  A token that spans several lines
(a multi-line string that is not a docstring) counts each line it spans.

usage: scripts/code_lines.py [package directory, default src/confsim]
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _SKIPPED or tok.type == tokenize.ENCODING:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "confsim"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:<20} {n:>6}")
    print(f"{'total':<20} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
