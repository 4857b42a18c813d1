import math
from pathlib import Path

import numpy as np
import pytest

from qudual import DensityMatrix, duality, montecarlo, simultaneous, states, uncertainty, verify
from qudual.cli import main
from qudual.errors import ParameterError
from qudual.states import TWO_PI

GOLDEN = Path(__file__).parent / "golden"


def _loop_state(rng, i):
    """The state draws as one loop step each: clearly mixed at even ``i``, pure at odd ``i``."""
    if i % 2:
        w = rng.uniform(0.0, 1.0)
        return DensityMatrix(w, math.sqrt(w * (1.0 - w)), rng.uniform(0.0, TWO_PI))
    w = rng.uniform(0.05, 0.95)
    u = rng.uniform(0.0, 0.99)
    return DensityMatrix(w, u * math.sqrt(w * (1.0 - w)), rng.uniform(0.0, TWO_PI))


@pytest.mark.parametrize("n, phases", [(0, 0), (1, 1), (7, 0), (10, 1), (9, 2)])
def test_batched_draw_reproduces_the_state_loop(n, phases):
    loop_rng = montecarlo._generator(42, stream=1005)
    batch_rng = montecarlo._generator(42, stream=1005)
    w, rho12, theta, extra = verify._random_states(batch_rng, n, phases)
    assert extra.shape == (n, phases)
    for i in range(n):
        rho = _loop_state(loop_rng, i)
        assert (rho.w_plus, rho.rho12, rho.theta) == (w[i], rho12[i], theta[i])
        assert [loop_rng.uniform(0.0, TWO_PI) for _ in range(phases)] == extra[i].tolist()
    # both generators stop at the same point of the stream
    assert loop_rng.random() == batch_rng.random()


def test_batch_tally_matches_a_loop_over_the_elements():
    rng = np.random.default_rng(3)
    ok = [rng.random(50) > 0.8, rng.random(50) > 0.5, rng.random(50) > 0.3]
    where = rng.random(50) > 0.4
    loop, batch = verify._Tally("loop"), verify._Tally("batch")
    for tally in (loop, batch):
        tally.check(False, "earlier note")
        tally.check(False, "another earlier note")
    for i in range(50):
        loop.check(bool(ok[0][i]), f"first #{i}")
        loop.check(bool(ok[1][i]), f"second #{i}")
        if where[i]:
            loop.check(bool(ok[2][i]), f"third #{i}")
    batch.check_batch(
        (ok[0], lambda i: f"first #{i}"),
        (ok[1], lambda i: f"second #{i}"),
        (ok[2], lambda i: f"third #{i}", where),
    )
    assert (batch.checks, batch.failures, batch.notes) == (loop.checks, loop.failures, loop.notes)
    assert len(batch.notes) == verify._Tally._MAX_NOTES


@pytest.mark.parametrize("level", ["fast", "full"])
def test_selftest_corrupt_report_is_pinned(capsys, level):
    code = main(["verify", "--level", level, "--selftest-corrupt"])
    assert code == 1
    assert capsys.readouterr().out == (GOLDEN / f"verify_selftest_corrupt_{level}.txt").read_text()


def test_batched_suites_make_one_kernel_call_each(count_calls):
    kernels = {
        "robertson": count_calls(uncertainty, "robertson_arrays"),
        "duality": count_calls(duality, "duality_arrays"),
        "entangled_duality": count_calls(simultaneous, "entangled_arrays"),
    }
    scalar_calls = [
        count_calls(uncertainty, "robertson"),
        count_calls(duality, "duality_report"),
        count_calls(simultaneous, "entangle"),
        count_calls(simultaneous, "distinguishability"),
        count_calls(simultaneous, "entangled_visibility"),
        count_calls(states.DensityMatrix, "__init__"),
    ]
    checks = {"robertson": 25000, "duality": 30000, "entangled_duality": 10404}
    for name in ("robertson", "duality", "entangled_duality"):
        result = verify.run_suite(name, "full", 42)
        assert (result.checks, result.failures) == (checks[name], 0)
        assert len(kernels[name]) == 1
    assert scalar_calls == [[]] * 6

    # The fringe oracle scans one row of the unitaries per state, never the full matrices.
    scans = count_calls(duality, "fringe_probability")
    unitaries = [count_calls(states, "beam_splitter"), count_calls(states, "phase_shift")]
    result = verify.run_suite("fringe_oracle", "full", 42)
    assert (result.checks, result.failures) == (45, 0)
    assert len(scans) == 23
    assert unitaries == [[], []]


def test_run_suite_names_the_allowed_suites_and_levels():
    with pytest.raises(ParameterError, match=r"suite must be one of \['linalg_core', .*'monte_carlo'\], got 'nope'"):
        verify.run_suite("nope")
    with pytest.raises(ParameterError, match=r"level must be one of \['fast', 'full'\], got 'medium'"):
        verify.run_suite("duality", "medium")
