"""Every name a module imports is read somewhere in that module, and every library parameter in its function's body."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "demos", "tools", "tests") for p in (ROOT / d).rglob("*.py"))
LIBRARY = sorted((ROOT / "src" / "qudual").glob("*.py"))

# The suite protocol of qudual.verify: every suite takes these, and reads what it needs.
SUITE_PARAMETERS = ["t", "run", "rng"]


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


def unread_parameters(source: str) -> list[str]:
    """Parameters of the functions and lambdas of ``source`` that their bodies never read.

    A body includes the functions nested in it, so a closure's read counts.
    A ``_suite_*`` function with exactly the suite protocol's parameters is
    skipped.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *(p for p in (a.vararg, a.kwarg) if p)]
        name = getattr(node, "name", "lambda")
        if name.startswith("_suite_") and [p.arg for p in params] == SUITE_PARAMETERS:
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"line {p.lineno}: {name}.{p.arg}" for p in params if p.arg not in read]
    return unread


def test_the_scan_sees_an_unread_parameter():
    source = (
        "def f(a, b=1, *args, c, **kw):\n"
        "    g = lambda x, y: x\n"
        "    return a + c\n"
        "def _suite_x(t, run, rng):\n"
        "    pass\n"
        "def _suite_y(t, run, rng, extra):\n"
        "    return t\n"
    )
    assert unread_parameters(source) == [
        "line 1: f.b",
        "line 1: f.args",
        "line 1: f.kw",
        "line 6: _suite_y.run",
        "line 6: _suite_y.rng",
        "line 6: _suite_y.extra",
        "line 2: lambda.y",
    ]


@pytest.mark.parametrize("path", LIBRARY, ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


# A modulus is qudual.linalg._hypot and a square is x * x. np.hypot and x ** 2 round as the C library's hypot
# and pow do, which may differ between hosts, and math.hypot takes no arrays, so a stack could not round as its
# scalar. The sweep grid sin(alpha) ** 2 of cli._sweep_rows is the one exception: its pinned bytes depend on
# math.sin, and so on the C library, anyway.
LIBM_EXEMPT = {"cli.py": {"_sweep_rows"}}


def libm_roundings(source: str, exempt=frozenset()) -> list[str]:
    """Each ``hypot`` that ``source`` names and each ``x ** 2``, outside the functions named in ``exempt``."""
    tree = ast.parse(source)
    exempt_functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in exempt]
    skipped = {id(n) for f in exempt_functions for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if getattr(node, "attr", None) == "hypot" or (isinstance(node, ast.alias) and node.name == "hypot"):
            found.append((node.lineno, "hypot"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and getattr(node.right, "value", None) == 2:
            found.append((node.lineno, "** 2"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_sees_libm_roundings():
    source = (
        "import math\n"
        "from numpy import hypot\n"
        "r = math.hypot(x, y) + np.hypot(x, y) + x ** 2 + x ** 2.0 + 2.0 ** 500 + x * x\n"
        "def grid(a):\n"
        "    return a ** 2\n"
    )
    assert libm_roundings(source) == [
        "line 2: hypot",
        "line 3: ** 2",
        "line 3: ** 2",
        "line 3: hypot",
        "line 3: hypot",
        "line 5: ** 2",
    ]
    assert libm_roundings(source, {"grid"})[-1] == "line 3: hypot"


@pytest.mark.parametrize("path", LIBRARY, ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_no_libm_roundings(path):
    assert libm_roundings(path.read_text(), LIBM_EXEMPT.get(path.name, frozenset())) == []


# Public float input enters through qudual.errors' check_scalar, check_array or as_float_array: they reject NaN and
# out-of-range values as the caller asks and read an integer past the double range as an infinity, where a bare
# np.asarray(x, dtype=float) passes NaN on and raises a raw OverflowError. verify draws its own inputs.
FLOAT_READ_EXEMPT = {"errors.py", "verify.py"}


def unchecked_float_reads(source: str) -> list[str]:
    """Each ``asarray`` call of ``source`` that asks for a ``float`` dtype, by keyword or by position."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "asarray":
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
            if any(getattr(d, "id", None) == "float" for d in dtypes):
                found.append(f"line {node.lineno}: asarray(..., float)")
    return found


def test_the_scan_sees_an_unchecked_float_read():
    source = (
        "import numpy as np\n"
        "from numpy import asarray\n"
        "w = np.asarray(x, dtype=float)\n"
        "r = asarray(x, float) + np.asarray(x, dtype=complex) + np.asarray(x) + np.array(x, dtype=float)\n"
    )
    assert unchecked_float_reads(source) == ["line 3: asarray(..., float)", "line 4: asarray(..., float)"]


@pytest.mark.parametrize("path", LIBRARY, ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_no_unchecked_float_reads(path):
    assert path.name in FLOAT_READ_EXEMPT or unchecked_float_reads(path.read_text()) == []


# Names public by their spelling that their module's __all__ leaves out, each for a reason. The validation helpers of
# errors are how every module of the package reads its input, not a part of the physics; verify's three independent
# routes are documented for direct use from qudual.verify but stay out of the package namespace, which holds the
# closed forms they check.
UNLISTED_EXEMPT = {
    "errors.py": {"as_float", "as_float_array", "check_scalar", "check_count", "check_array"},
    "verify.py": {"projected_readout_moments", "minimum_product_routes", "which_way_routes"},
}


def unlisted_public_definitions(source: str) -> list[str]:
    """Each top-level ``def`` and ``class`` of ``source`` without a leading underscore that ``__all__`` leaves out."""
    tree = ast.parse(source)
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed = {getattr(item, "value", None) for item in getattr(node.value, "elts", [])}
    return [
        f"line {node.lineno}: {node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in listed
    ]


def test_the_scan_sees_an_unlisted_public_definition():
    source = (
        '__all__ = ["listed", "Listed"]\n'
        "def listed():\n"
        "    def inner(): pass\n"
        "class Listed: pass\n"
        "def purity(w): pass\n"
        "class Report: pass\n"
        "def _private(): pass\n"
    )
    assert unlisted_public_definitions(source) == ["line 5: purity", "line 6: Report"]


def test_every_public_definition_is_listed_or_exempt():
    found = {(p.name, line.split(": ")[1]) for p in LIBRARY for line in unlisted_public_definitions(p.read_text())}
    assert found == {(module, name) for module, names in UNLISTED_EXEMPT.items() for name in names}


# One state runs on Python floats and a stack on arrays. qudual.linalg._ops alone tells the two apart, and a kernel
# or a validator takes its functions from the table it returns, so no other function tests for a float or an array,
# or asks which of the two tables it was handed.
FLOAT_OR_STACK_EXEMPT = {"linalg.py": {"_ops"}}
TABLES = {"_FLOAT_OPS", "_ARRAY_OPS"}


def float_or_stack_tests(source: str, exempt=frozenset()) -> list[str]:
    """Each ``isinstance`` of ``source`` that names ``float`` or ``ndarray``, each ``in`` test naming ``ndarray``,
    and each ``is`` or ``is not`` test naming a table of :func:`qudual.linalg._ops`.

    A name bound at module level, such as ``NUMBER = (int, float)``, is read through to its value. The functions
    named in ``exempt`` are skipped.
    """
    tree = ast.parse(source)
    bound = {t.id: n.value for n in tree.body if isinstance(n, ast.Assign) for t in n.targets if hasattr(t, "id")}
    exempt_functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in exempt]
    skipped = {id(n) for f in exempt_functions for n in ast.walk(f)}

    def named(node) -> set:
        """The names and attributes that ``node`` reads, those of a module-level name's value included."""
        nodes = [n for m in ast.walk(node) for n in ast.walk(bound.get(getattr(m, "id", None), m))]
        return {getattr(n, "id", getattr(n, "attr", None)) for n in nodes}

    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            hits = sorted(named(node.args[1]) & {"float", "ndarray"})
            found += [(node.lineno, f"isinstance of {name}") for name in hits]
        elif isinstance(node, ast.Compare):
            ops = set(map(type, node.ops))
            if {ast.In, ast.NotIn} & ops and "ndarray" in named(node):
                found.append((node.lineno, "in test of ndarray"))
            if {ast.Is, ast.IsNot} & ops:
                found += [(node.lineno, f"is test of {name}") for name in sorted(named(node) & TABLES)]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_sees_a_float_or_stack_test():
    source = (
        "import numpy as np\n"
        "NUMBER = (int, float)\n"
        "a = isinstance(x, np.ndarray) or np.ndarray in map(type, parts)\n"
        "b = isinstance(v, float) and isinstance(w, NUMBER)\n"
        "c = isinstance(v, (int, float)) or np.ndarray not in kinds\n"
        "d = isinstance(v, (int, np.integer)) or x in (1, 2) or type(v) is float\n"
        "ONE = linalg._FLOAT_OPS\n"
        "e = _ops(v) is _FLOAT_OPS or ops is not _ARRAY_OPS or ops is ONE or ops is None or ops == _FLOAT_OPS\n"
        "def _ops(v):\n"
        "    return _FLOAT_OPS if isinstance(v, float) else _ARRAY_OPS\n"
    )
    assert float_or_stack_tests(source, {"_ops"}) == [
        "line 3: in test of ndarray",
        "line 3: isinstance of ndarray",
        "line 4: isinstance of float",
        "line 4: isinstance of float",
        "line 5: in test of ndarray",
        "line 5: isinstance of float",
        "line 8: is test of _ARRAY_OPS",
        "line 8: is test of _FLOAT_OPS",
        "line 8: is test of _FLOAT_OPS",
    ]
    assert float_or_stack_tests(source)[-1] == "line 10: isinstance of float"


@pytest.mark.parametrize("path", LIBRARY, ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_only_linalg_ops_tells_a_float_from_a_stack(path):
    assert float_or_stack_tests(path.read_text(), FLOAT_OR_STACK_EXEMPT.get(path.name, frozenset())) == []


# A public function that only hands its own parameters on to another public name is a second name for one path:
# the library keeps one, and a caller calls the other directly. A wrapper over a private kernel is not one of them.


def passed_through(arg) -> str | None:
    """The parameter that the call argument ``arg`` passes on as is, spelled as in a signature, or ``None``."""
    if isinstance(arg, ast.Starred):
        return f"*{arg.value.id}" if isinstance(arg.value, ast.Name) else None
    if isinstance(arg, ast.keyword):
        if not isinstance(arg.value, ast.Name) or arg.arg not in (None, arg.value.id):
            return None
        return arg.arg or f"**{arg.value.id}"
    return getattr(arg, "id", None)


def public_aliases(source: str) -> list[str]:
    """Each public function of ``source`` that only calls another public name on its own parameters, in order.

    Its body, docstring aside, is one ``return`` of that call, and the call's arguments are the function's
    parameters passed on as they are: ``*args`` and ``**kwargs`` as such, a keyword-only one as ``name=name``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        if not isinstance(call, ast.Call):
            continue
        callee = getattr(call.func, "id", getattr(call.func, "attr", "_"))
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args)] + [f"*{p.arg}" for p in (a.vararg,) if p]
        params += [p.arg for p in a.kwonlyargs] + [f"**{p.arg}" for p in (a.kwarg,) if p]
        if not callee.startswith("_") and [*map(passed_through, call.args + call.keywords)] == params:
            found.append((node.lineno, f"{node.name} -> {callee}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_sees_a_public_alias():
    source = (
        "def entangle(w_plus, theta, c):\n"
        '    """Couple the state to a meter."""\n'
        "    return EntangledState(w_plus, theta, c)\n"
        "def zeros(*shape, order, **kwargs):\n"
        "    return np.zeros(*shape, order=order, **kwargs)\n"
        "class Meter:\n"
        "    def readout(self, c):\n"
        "        return meter_projectors(self, c)\n"
        "def swapped(a, b):\n"
        "    return g(b, a)\n"
        "def dropped(a, b):\n"
        "    return g(a)\n"
        "def extra(a):\n"
        "    return g(a, 1)\n"
        "def renamed(a, b):\n"
        "    return g(a, c=b)\n"
        "def read(psi):\n"
        "    return g(psi.rows)\n"
        "def kernel(a):\n"
        "    return _kernel(a)\n"
        "def _private(a):\n"
        "    return g(a)\n"
        "def two_statements(a):\n"
        "    check(a)\n"
        "    return g(a)\n"
    )
    assert public_aliases(source) == [
        "line 1: entangle -> EntangledState",
        "line 4: zeros -> zeros",
        "line 7: readout -> meter_projectors",
    ]


@pytest.mark.parametrize("path", LIBRARY, ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_no_public_aliases(path):
    assert public_aliases(path.read_text()) == []


# Every product of matrix entries in the library is written in real parts, through qudual.linalg's kernels, so that no
# BLAS kernel or SIMD level moves its bits; a matrix product ``@`` would hand it to whichever the host has.


def matrix_products(source: str) -> list[str]:
    """Each ``@`` and ``@=`` of ``source``: a matrix product, which a decorator's ``@`` is not."""
    found = [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    return [f"line {line}: @" for line in sorted(found)]


def test_the_scan_sees_a_matrix_product():
    source = (
        "@functools.cache\n"
        "def gram(m):\n"
        '    """``m^dagger @ m``, in a docstring."""\n'
        "    g = m.conj().T @ m\n"
        "    g @= m\n"
        "    return np.matmul(g, m)  # @ in a comment\n"
    )
    assert matrix_products(source) == ["line 4: @", "line 5: @"]


@pytest.mark.parametrize("path", LIBRARY, ids=[str(p.relative_to(ROOT)) for p in LIBRARY])
def test_no_matrix_products(path):
    assert matrix_products(path.read_text()) == []
