"""Count the code lines of Python files: the lines that carry a code token.

Comments, blank lines and the docstrings of modules, classes and functions
are left out; every line a code token spans counts, so each line of a
multi-line string that is not a docstring counts.  Prints each file's count
and the total, largest first:

    python tools/counted_lines.py src/girardlab
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counted_lines(path: Path) -> int:
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = sorted({p for arg in map(Path, argv)
                    for p in (arg.rglob("*.py") if arg.is_dir() else [arg])})
    counts = sorted(((counted_lines(p), str(p)) for p in files), key=lambda c: (-c[0], c[1]))
    for count, name in counts:
        print(f"{count:6,} {name}")
    print(f"{sum(c for c, _ in counts):6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
