"""Print the code lines of each module of a package and their total.

A code line is a non-blank line that holds something other than a comment and
is not part of a module, class or function docstring; a line of any other
string counts. Usage::

    python3 tools/code_lines.py [directory]

The directory defaults to ``src/qudual``. Each ``*.py`` file under it prints as
``<count> <path relative to the directory>``, sorted by path, and a last line
``<total> total``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of the module ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "qudual")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path.relative_to(root).as_posix()}")
    print(f"{total} total")


if __name__ == "__main__":
    main(sys.argv[1:])
