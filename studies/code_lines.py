"""Code lines of a Python package, per module and in total.

A code line is a line that holds a Python token other than a comment.
Blank lines, comment-only lines and docstrings (a string expression that
is the first statement of a module, class or function) are not code; a
string that spans lines counts each line it covers. This is the count
ROADMAP quotes for ``src/uprop``:

    python3 studies/code_lines.py              # src/uprop of this checkout
    python3 studies/code_lines.py DIR          # every *.py under DIR

Prints one ``lines path`` row per module, sorted by path, then
``lines total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tokens that never make a line code on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list:
    """The (start, end) positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(a <= tok.start < b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "uprop")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.relative_to(args.package)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
