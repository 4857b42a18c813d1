"""Two-path qubit duality, variance bounds, and unsharp joint readout.

The package models a two-level system through its density matrix in the
reference basis, the complementary observables built from equal-weight
superpositions of that basis, and a meter entangled with the system through
a population-preserving coupling. Every quantity of interest has a closed
form here, and every closed form has at least one independent check: a grid
oracle for the fringe contrast, explicit matrix algebra behind the variance
bound, redundant routes to the minimal variance product, and sampling
oracles for the measurement statistics.
"""

from . import duality, errors, linalg, montecarlo, simultaneous, states, uncertainty, verify
from .duality import *  # noqa: F403
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .simultaneous import *  # noqa: F403
from .states import *  # noqa: F403
from .uncertainty import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, linalg, states, duality, uncertainty, simultaneous, montecarlo, verify)
    for name in module.__all__
]
