"""Every cross-reference that the library's docstrings and comments make names something that exists.

A reference is a ``:func:``, ``:class:``, ``:data:``, ``:meth:``, ``:attr:`` or ``:mod:`` role, as Sphinx
writes it, a leading ``~`` or ``.`` aside. It resolves in its own module, in the ``qudual`` namespace, as an
absolute dotted name, or, for ``:meth:`` and ``:attr:``, in a class that encloses it. A name that is removed
or renamed leaves its references dangling, and this test lists them.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import qudual

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "qudual").glob("*.py"))

REFERENCE = re.compile(r":(func|class|data|meth|attr|mod):`[~.]?([\w.]+)`")


def lookup(scope, dotted: str) -> bool:
    """Whether ``dotted`` names an attribute of ``scope``, one dotted part after another."""
    for part in dotted.split("."):
        if not hasattr(scope, part):
            return False
        scope = getattr(scope, part)
    return True


def absolute(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute of the longest module that it starts with."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        return i == len(parts) or lookup(module, ".".join(parts[i:]))
    return False


def dangling_references(source: str, module: types.ModuleType) -> list[str]:
    """Each reference of ``source``, the text of ``module``, that resolves nowhere."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    found = []
    for match in REFERENCE.finditer(source):
        role, name = match.groups()
        line = source.count("\n", 0, match.start()) + 1
        scopes = [module, qudual]
        if role in ("meth", "attr"):
            scopes += [getattr(module, c.name) for c in classes if c.lineno <= line <= c.end_lineno]
        if not (any(lookup(scope, name) for scope in scopes) or absolute(name)):
            found.append(f"line {line}: {match.group()}")
    return found


def test_the_scan_sees_a_dangling_reference():
    source = (
        '"""See :func:`helper`, :class:`~qudual.states.Observable`, :mod:`qudual.verify` and :data:`GAUGE`.\n'
        "\n"
        ":func:`couple` and :data:`qudual.states.TAU` are gone, and :mod:`qudual.meter` never was.\n"
        '"""\n'
        "def helper():\n"
        "    pass\n"
        "class Box:\n"
        '    """:meth:`open` and :attr:`size` are its own, :meth:`.Box.open` too; :meth:`close` is not."""\n'
        "    size = 1\n"
        "    def open(self):\n"
        '        """Not :attr:`lid` either, and not :meth:`Box.lid`."""\n'
        "# a comment's :func:`_missing` counts too, and :attr:`size` outside Box\n"
    )
    module = types.ModuleType("selftest")
    exec(compile(source, "selftest", "exec"), module.__dict__)
    assert dangling_references(source, module) == [
        "line 3: :func:`couple`",
        "line 3: :data:`qudual.states.TAU`",
        "line 3: :mod:`qudual.meter`",
        "line 8: :meth:`close`",
        "line 11: :attr:`lid`",
        "line 11: :meth:`Box.lid`",
        "line 12: :func:`_missing`",
        "line 12: :attr:`size`",
    ]


@pytest.mark.parametrize("path", LIBRARY, ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_every_reference_resolves(path):
    module = qudual if path.stem == "__init__" else importlib.import_module(f"qudual.{path.stem}")
    assert dangling_references(path.read_text(), module) == []
