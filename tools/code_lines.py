"""Count the code lines of src/topdowndt, per module and in total.

    python3 tools/code_lines.py [DIR]

A code line holds at least one token that is not a comment and not part of
a docstring: blank lines, comment-only lines and docstring lines do not
count.  A docstring is a string literal standing alone as the first
statement of a module, class or function body.  A line that a multi-line
token spans (a string, say) counts once for each line it covers.  DIR
defaults to the package's source directory; every *.py file directly in
it is counted, in name order.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topdowndt"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each docstring literal begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docs = _docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(directory: Path) -> dict[str, int]:
    """Code lines of each *.py file directly in directory, by file name."""
    return {p.name: code_lines(p.read_text()) for p in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    counts = count(directory)
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
