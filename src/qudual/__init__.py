"""Two-path qubit duality, variance bounds, and unsharp joint readout.

The package models a two-level system through its density matrix in the
reference basis, the complementary observables built from equal-weight
superpositions of that basis, and a meter entangled with the system through
a population-preserving coupling. Every quantity of interest has a closed
form here, and every closed form has at least one independent check: a grid
oracle for the fringe contrast, explicit matrix algebra behind the variance
bound, redundant routes to the minimal variance product, and sampling
oracles for the measurement statistics.

Two modules load lazily, on first access (PEP 562): :mod:`qudual.montecarlo`
and :mod:`qudual.verify`, as attributes of the package or through any of
their public names. ``import qudual`` and the ``compute`` and ``sweep``
commands load neither, nor ``numpy.random``.
"""

import importlib

from . import duality, errors, simultaneous, states, uncertainty
from .duality import *  # noqa: F403
from .errors import *  # noqa: F403
from .simultaneous import *  # noqa: F403
from .states import *  # noqa: F403
from .uncertainty import *  # noqa: F403

__version__ = "0.1.0"

# The public names of each lazy module, its __all__ in order.
_LAZY = {
    "montecarlo": ("SampleReport", "sample_sharp", "sample_fringe", "sample_simultaneous"),
    "verify": ("SuiteResult", "run_suite", "run_suites", "render_report", "SUITE_NAMES"),
}

__all__ = ["__version__"] + [
    name for module in (errors, states, duality, uncertainty, simultaneous) for name in module.__all__
] + [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    """A lazy module, imported on first access, or one of its public names."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
