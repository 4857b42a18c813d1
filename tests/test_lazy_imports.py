"""``qudual`` loads ``montecarlo`` and ``verify`` on first access, so the closed-form commands never import them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qudual
from qudual import duality, errors, montecarlo, simultaneous, states, uncertainty, verify

ROOT = Path(__file__).resolve().parents[1]
LAZY = {"qudual.montecarlo", "qudual.verify", "numpy.random"}

# A fresh process runs ``-c CODE``, or ``-m qudual ARGS`` as the interpreter runs it, through runpy, and then
# prints the name of every module it loaded to stderr, one a line.
_MODULES_CHILD = """
import runpy, sys
flag, *rest = sys.argv[1:]
if flag == "-c":
    exec(rest[0])
else:
    sys.argv = rest
    try:
        runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        assert stop.code == 0, stop.code
print(*sys.modules, sep="\\n", file=sys.stderr)
"""


def imported(*args: str) -> set[str]:
    """The modules that a fresh process loads to run ``python *args``, which must succeed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    return set(child.stderr.splitlines())


@pytest.mark.parametrize("args", [
    ("-c", "import qudual"),
    ("-c", "import qudual.cli"),
    ("-m", "qudual", "compute", "--w-plus", "0.3", "--pure", "--c", "0.6"),
    ("-m", "qudual", "compute", "--w-plus", "0.9", "--rho12", "0.1", "--theta", "0.3"),
    ("-m", "qudual", "sweep", "--figure", "3", "--points", "201"),
], ids=["import-qudual", "import-cli", "compute-pure", "compute-mixed", "sweep"])
def test_closed_form_commands_load_no_sampler_or_checking_layer(args):
    assert imported(*args) & LAZY == set()


def test_the_scan_sees_the_lazy_modules_load():
    assert imported("-m", "qudual", "mc", "--n", "1000") & LAZY == {"qudual.montecarlo", "numpy.random"}
    assert imported("-c", "import qudual; qudual.SUITE_NAMES") & LAZY == LAZY


def test_all_keeps_its_names_and_order():
    modules = (errors, states, duality, uncertainty, simultaneous, montecarlo, verify)
    assert qudual.__all__ == ["__version__"] + [name for module in modules for name in module.__all__]
    assert len(qudual.__all__) == 41


def test_the_lazy_names_are_their_modules_all():
    assert qudual._LAZY == {"montecarlo": tuple(montecarlo.__all__), "verify": tuple(verify.__all__)}


# A fresh process: each lazy name resolves on first access, and a star import binds every name of __all__ to the
# object of its module.
_STAR_CHILD = """
import json, sys
import qudual
loaded_before = sorted(m for m in ("qudual.montecarlo", "qudual.verify") if m in sys.modules)
namespace = {}
exec("from qudual import *", namespace)
namespace.pop("__builtins__")
homes = {}
for name in qudual.__all__:
    home = next((m for m in (qudual.montecarlo, qudual.verify) if name in m.__all__), qudual)
    homes[name] = namespace[name] is getattr(home, name) is getattr(qudual, name)
print(json.dumps({"before": loaded_before, "bound": sorted(namespace), "same": homes}))
"""


def test_a_star_import_binds_every_public_name_to_its_modules_object():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", _STAR_CHILD], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout
    report = json.loads(out)
    assert report["before"] == []
    assert report["bound"] == sorted(qudual.__all__)
    assert report["same"] == {name: True for name in qudual.__all__}


def test_the_lazy_modules_are_attributes_and_other_names_raise():
    assert qudual.verify is verify and qudual.montecarlo is montecarlo
    assert qudual.run_suites is verify.run_suites and qudual.SampleReport is montecarlo.SampleReport
    with pytest.raises(AttributeError, match="has no attribute 'entangle'"):
        qudual.entangle
