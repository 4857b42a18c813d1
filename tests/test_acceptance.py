"""Sign-off checks, one per criterion, each printing a single PASS/FAIL line.

Criteria 01-09 run named suites of ``qudual.verify``, the one registry of
checks, at ``level="full"`` and seed 42. Each criterion pins the check count
of its suites, and some also a wall-clock gate. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines. Every check uses
fixed seeds, so the suite is deterministic end to end.
"""

import shutil
import subprocess
import sys
import time

from qudual import verify
from qudual.errors import QudualError

# criterion: ({suite: its checks at level full, seed 42}, wall-clock gate in seconds or None)
CRITERIA = {
    "01_duality_relation": ({"duality": 30000}, 1.0),
    "02_basis_invariance": ({"linalg_core": 402, "state_round_trip": 2003, "complementary_family": 5200}, None),
    "03_fringe_extremum": ({"fringe_oracle": 45}, 10.0),
    "04_robertson_and_intelligent_states": ({"robertson": 25000, "intelligent_states": 588}, None),
    "05_product_bound_curves": ({"product_bounds": 1137}, None),
    "06_entangled_duality": ({"entangled_duality": 10404}, None),
    "07_unbiasedness": ({"unbiasedness": 4008}, None),
    "08_simultaneous_minimum": ({"minimum_product": 211}, None),
    "09_monte_carlo_oracle": ({"monte_carlo": 7}, 60.0),
}


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def criterion_test(criterion):
    """The sign-off test of one criterion: run its suites, pin their counts, apply its gate."""

    def test():
        suites, gate = CRITERIA[criterion]
        start = time.perf_counter()
        results = [verify.run_suite(name, "full", 42) for name in suites]
        elapsed = time.perf_counter() - start
        ok = all(r.failures == 0 and r.checks == suites[r.name] for r in results)
        detail = "; ".join(
            f"{r.name} {r.checks} checks (pinned {suites[r.name]}), {r.failures} failures{''.join(f' [{n}]' for n in r.notes)}"
            for r in results
        )
        if gate is not None:
            ok = ok and elapsed < gate
            detail += f"; {elapsed:.2f}s (< {gate:g}s)"
        number, _, title = criterion.partition("_")
        report(f"criterion-{number} {title.replace('_', ' ')}", ok, detail)

    return test


# One body for criteria 01-09, collected as test_criterion_01_duality_relation and so on.
globals().update({f"test_criterion_{criterion}": criterion_test(criterion) for criterion in CRITERIA})


def test_every_suite_signs_off_exactly_one_criterion():
    named = [name for suites, _ in CRITERIA.values() for name in suites]
    assert sorted(named) == sorted(verify.SUITE_NAMES)
    assert sum(checks for suites, _ in CRITERIA.values() for checks in suites.values()) == 79005


def test_criterion_10_determinism():
    if shutil.which("qudual"):
        cmd = ["qudual", "verify", "--seed", "42"]
    else:
        cmd = [sys.executable, "-m", "qudual.cli", "verify", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    report(
        "criterion-10 determinism",
        ok,
        f"two runs of `{' '.join(cmd[-3:])}`: exit codes ({first.returncode}, {second.returncode}), "
        f"stdout identical: {first.stdout == second.stdout} ({len(first.stdout)} bytes)",
    )


def test_every_error_type_is_a_library_error():
    # keeps the CLI's exit-code contract honest: anything user-facing derives
    # from the package root error
    from qudual import ContractViolationError, ParameterError, SingularConfigurationError

    for exc in (ContractViolationError, ParameterError, SingularConfigurationError):
        assert issubclass(exc, QudualError)
