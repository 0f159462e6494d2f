"""Count the code lines of each module of a Python package.

A code line is a line that holds a code token: comments, blank lines and
docstrings (the string that opens a module, class or function body) do not
count, and a statement that spans several lines counts each line that
holds one of its tokens.  Standard library only.

    python tools/code_lines.py [PACKAGE_DIR]

prints one `lines  module` row per module of PACKAGE_DIR (default
`src/qtoda`, next to this script), then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path
from typing import Sequence, Set

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers spanned by the docstrings of tree."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the module at path."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines: Set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: Sequence[str]) -> int:
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parent.parent / "src" / "qtoda"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,d}  {path.stem}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
