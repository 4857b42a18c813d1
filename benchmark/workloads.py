"""Seeded inputs for the three workloads.

A workload is a stream of rounds. A round is a fixed list of operations, and
each operation is one argument vector for ``qudual.cli.main``. Every round of
one workload holds the same kinds of operation in the same proportions, so a
run that attempts whole rounds fails exactly the same share of operations
whatever its seed or length. Only the scalar inputs come from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("signoff", "compute", "mc")

MC_SHOTS = 10_000_000

# How each workload's time splits between the two kinds of code that
# ``pace.Pace`` times, from the traced run in README.md. signoff: 73 % in
# ``fringe_probability``'s element-wise NumPy (vector), the rest in the
# suites' Python loops (scalar). compute: argparse, formatting and small
# 2x2 / 4x4 matrices. mc: Philox draws, a scalar integer loop, and page
# faults on fresh 80 MB arrays take most of the time; compares, ``where``
# and counts over those arrays the rest. Set-up is the interpreter's start
# and its imports.
PACE_WEIGHTS = {
    "signoff": {"scalar": 0.3, "vector": 0.7},
    "compute": {"scalar": 0.9, "vector": 0.1},
    "mc": {"scalar": 0.8, "vector": 0.2},
}
SETUP_PACE_WEIGHTS = {"scalar": 1.0}

# compute: per round, pure states with an interior overlap, mixed states with
# no overlap, and one operation for each of the two edge-overlap faults.
COMPUTE_PURE = 15
COMPUTE_MIXED = 3

# The edge operations use fixed inputs: they fail on every run, whatever the
# seed. estimate_a rejects every state at c = 1 - 1e-6 (the meter sign probe
# compares means at an absolute 1e-12 while a' = a / sqrt(1 - c^2) amplifies
# round-off); estimate_b rejects this state at c = 1e-6 (its cross-check
# tolerance does not scale with 1/c).
EDGE_OPS = (
    ("0.9", "0.3", "0.999999", "no outcome sign assignment reproduces the sharp mean"),
    ("0.9", "0.3", "1e-06", "closed-form readout moments disagree with explicit projection"),
)


@dataclass(frozen=True)
class Op:
    """One call of ``qudual.cli.main``.

    ``items`` is the work the operation was asked for, fixed by the inputs.
    ``fault`` names the error text of a known fault that makes the operation
    fail today; ``None`` for an operation that must succeed.
    """

    argv: tuple[str, ...]
    items: int
    fault: str | None = None


def _fmt(x: float) -> str:
    return repr(float(x))


def _signoff_round(rng: np.random.Generator) -> list[Op]:
    # The same seed twice: the second call checks the report is byte-identical.
    # rounds() gives each call a round of its own.
    argv = ("verify", "--level", "full", "--seed", str(int(rng.integers(1, 2**31 - 1))))
    return [Op(argv, 1), Op(argv, 1)]


def _compute_round(rng: np.random.Generator) -> list[Op]:
    ops = []
    for _ in range(COMPUTE_PURE):
        w = rng.uniform(0.01, 0.99)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c = rng.uniform(0.01, 0.99)
        argv = ("compute", "--w-plus", _fmt(w), "--pure", "--theta", _fmt(theta), "--c", _fmt(c))
        ops.append(Op(argv, 1))
    for _ in range(COMPUTE_MIXED):
        w = rng.uniform(0.01, 0.99)
        rho12 = rng.uniform(0.0, 0.99) * math.sqrt(w * (1.0 - w))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        argv = ("compute", "--w-plus", _fmt(w), "--rho12", _fmt(rho12), "--theta", _fmt(theta))
        ops.append(Op(argv, 1))
    for w, theta, c, fault in EDGE_OPS:
        ops.append(Op(("compute", "--w-plus", w, "--pure", "--theta", theta, "--c", c), 1, fault))
    # Interleave so the edge operations do not always run last.
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _mc_round(rng: np.random.Generator) -> list[Op]:
    # Away from w_plus in {0, 1/2, 1}, where the default optimal overlap is
    # singular for the meter readout.
    w = rng.uniform(0.05, 0.45)
    if rng.random() < 0.5:
        w = 1.0 - w
    theta = rng.uniform(0.0, 2.0 * math.pi)
    seed = int(rng.integers(1, 2**31 - 1))
    argv = ("mc", "--n", str(MC_SHOTS), "--w-plus", _fmt(w), "--theta", _fmt(theta), "--seed", str(seed))
    return [Op(argv, MC_SHOTS)]


_ROUNDS = {
    "signoff": _signoff_round,
    "compute": _compute_round,
    "mc": _mc_round,
}


def rounds(workload: str, seed: int):
    """Endless generator of rounds for ``workload``; the same seed gives the same rounds."""
    make = _ROUNDS[workload]
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    while True:
        ops = make(rng)
        if workload == "signoff":
            # One verify run of 10-17 s per round, so that a run stops close
            # to its length; the seed's second call comes in the next round.
            yield from ([op] for op in ops)
        else:
            yield ops
