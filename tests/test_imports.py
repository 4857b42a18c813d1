"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "demos", "tools", "tests") for p in (ROOT / d).rglob("*.py"))


def unread_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads.

    ``from __future__`` imports and star imports (the re-exports of a
    package ``__init__``) bind no name to read, so they are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_sees_an_unread_import():
    assert unread_imports("import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(sep)\n") == [
        "line 1: math",
        "line 3: path",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unread_imports(path):
    assert unread_imports(path.read_text()) == []
