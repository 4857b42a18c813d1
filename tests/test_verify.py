import math
from pathlib import Path

import numpy as np
import pytest

from qudual import DensityMatrix, duality, linalg, montecarlo, simultaneous, states, uncertainty, verify
from qudual.cli import main
from qudual.errors import ParameterError
from qudual.simultaneous import entangle, estimate_a, estimate_b
from qudual.states import REFERENCE, TWO_PI, complementary_observable, pure_state

GOLDEN = Path(__file__).parent / "golden"
TENTHS = [k / 10.0 for k in range(1, 10)]
# The unbiasedness grid in loop order: w, then theta, then c.
READOUT_GRID = [(w, TWO_PI * j / 8.0, c) for w in TENTHS for j in range(8) for c in TENTHS]


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
        "state_round_trip": count_calls(states, "density_params"),
    }
    scalar_calls = [
        count_calls(uncertainty, "robertson"),
        count_calls(uncertainty, "mean_var"),
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
    assert scalar_calls == [[]] * 7

    # The round trip reads all 500 matrices back in one call; the only
    # single-matrix read is the rejection check of a non-Hermitian matrix.
    for calls in kernels.values():
        calls.clear()
    result = verify.run_suite("state_round_trip", "full", 42)
    assert (result.checks, result.failures) == (2003, 0)
    assert [np.shape(call[0]) for call in kernels["state_round_trip"]] == [(500, 2, 2), (2, 2)]
    for calls in scalar_calls:
        calls.clear()

    # Every variance of the extremality grid comes from one kernel call.
    result = verify.run_suite("product_bounds", "full", 42)
    assert (result.checks, result.failures) == (1137, 0)
    assert len(kernels["robertson"]) == 1
    assert scalar_calls[1] == []

    # Both projection routes run once each, over the grid and over the probes.
    projections = count_calls(verify, "projected_readout_moments")
    result = verify.run_suite("unbiasedness", "full", 42)
    assert (result.checks, result.failures) == (4008, 0)
    assert len(projections) == 2

    # The intelligent states read both variances off their one robertson report.
    residuals = count_calls(uncertainty, "is_residual")
    for calls in scalar_calls:
        calls.clear()
    result = verify.run_suite("intelligent_states", "full", 42)
    assert (result.checks, result.failures) == (588, 0)
    assert len(scalar_calls[0]) == 126
    assert len(scalar_calls[1]) == 2 * len(residuals) > 0

    # The fringe oracle scans one row of the unitaries per state, never the full matrices.
    scans = count_calls(duality, "fringe_probability")
    result = verify.run_suite("fringe_oracle", "full", 42)
    assert (result.checks, result.failures) == (45, 0)
    assert len(scans) == 23


def test_stacked_projection_matches_one_state_calls():
    psi = [entangle(w, theta, c) for w, theta, c in READOUT_GRID]
    varrho = [0.3 * k for k in range(len(psi))]  # a distinct member for every state
    stacked = verify.projected_readout_moments(np.stack([p.system_meter() for p in psi]), [p.c for p in psi], varrho)
    stacked = np.array(stacked).reshape(4, -1)
    for i, (p, v) in enumerate(zip(psi, varrho)):
        single = np.array(verify.projected_readout_moments(p.system_meter(), p.c, v)).ravel()
        assert stacked[:, i].tolist() == single.tolist()
        closed = (*estimate_a(p), *estimate_b(p, v))
        assert np.abs(single - closed).max() <= 1e-12 * max(1.0, *np.abs(closed))


def test_linalg_core_draws_reproduce_the_matrix_loop(count_calls):
    halves = count_calls(linalg, "_mean_half_gap")
    result = verify.run_suite("linalg_core", "full", 42)
    assert (result.checks, result.failures) == (402, 0)

    loop_rng = montecarlo._generator(42, stream=1000 + verify.SUITE_NAMES.index("linalg_core"))
    herm = []
    for _ in range(200):
        m = loop_rng.normal(size=(2, 2)) + 1j * loop_rng.normal(size=(2, 2))
        herm.append(m + m.conj().T)
    # two frozen trace norms, then the drawn stack: its eigenvalues, then trace_norm
    assert [np.shape(call[0]) for call in halves] == [(2, 2), (2, 2), (200, 2, 2), (200, 2, 2)]
    assert all(np.array_equal(call[0], herm) for call in halves[2:])


@pytest.mark.parametrize("faulty_c", [(0.3,), (0.3, 0.7)])
def test_planted_readout_fault_keeps_the_loop_notes(monkeypatch, faulty_c):
    """A fault at each faulty c fails 72 checks; the six notes come in grid order: w, then theta, then c."""
    varrho = math.pi / 5.0
    exact = verify.estimate_b

    def planted(psi, phase):
        mean, var = exact(psi, phase)
        return mean, var + 1e-9 if psi.c in faulty_c else var

    monkeypatch.setattr(verify, "estimate_b", planted)
    result = verify.run_suite("unbiasedness", "full", 42)
    notes = []
    for w, theta, c in READOUT_GRID:
        if c in faulty_c and len(notes) < 6:
            psi = entangle(w, theta, c)
            (_, var), (_, var_x) = planted(psi, varrho), verify.projected_readout_moments(psi.system_meter(), c, varrho)[1]
            notes.append(f"system readout variance by projection w={w} theta={theta:.2f} c={c}: {var!r} vs {float(var_x)!r}")
    assert (result.checks, result.failures) == (4008, 72 * len(faulty_c))
    assert list(result.notes) == notes


def test_planted_floor_fault_keeps_the_loop_notes(monkeypatch):
    """A floor raised by 1e-9 at four grid points fails two checks at each, noted in loop order."""
    grid = np.linspace(0.08, 0.92, 21).tolist()
    faulty = {grid[2], grid[5], grid[9], grid[14]}
    exact = verify.normalized_product_bounds

    def planted(w):
        lo, hi = exact(w)
        return (lo + 1e-9 if w in faulty else lo), hi

    monkeypatch.setattr(verify, "normalized_product_bounds", planted)
    result = verify.run_suite("product_bounds", "full", 42)
    b_obs = complementary_observable(REFERENCE, 0.6)
    notes = []
    for w in sorted(faulty):
        rho = pure_state(w, 0.6)
        product = uncertainty.mean_var(rho, REFERENCE)[1] * uncertainty.mean_var(rho, b_obs)[1]
        notes.append(f"product within bounds w={w:.3f} d=0.000")
        notes.append(f"proper choice reaches the floor w={w:.3f}: {product!r} vs {planted(w)[0]!r}")
    assert (result.checks, result.failures) == (1137, 8)
    assert list(result.notes) == notes[:6]


def test_planted_round_trip_fault_keeps_the_loop_notes(monkeypatch):
    """Coherence read back 1e-9 short above w_plus = 0.9 fails there, noted by state index."""
    exact = verify.density_params

    def planted(m):
        w, rho12, theta = exact(m)
        return w, np.where((w > 0.9) & (rho12 > 1e-9), rho12 - 1e-9, rho12), theta

    monkeypatch.setattr(verify, "density_params", planted)
    result = verify.run_suite("state_round_trip", "full", 42)
    rng = montecarlo._generator(42, stream=1000 + verify.SUITE_NAMES.index("state_round_trip"))
    w, rho12, _, _ = verify._random_states(rng, 500)
    faulty = [(i, r) for i, (x, r) in enumerate(zip(w.tolist(), rho12.tolist())) if x > 0.9 and r > 1e-9]
    assert (result.checks, result.failures) == (2003, len(faulty))
    assert list(result.notes) == [f"round trip rho12 #{i}: {r - 1e-9!r} vs {r!r}" for i, r in faulty[:6]]


@pytest.mark.parametrize("level", ["fast", "full"])
@pytest.mark.parametrize("seed", ["42", "343578368", "11705"])
def test_verify_report_keeps_its_pinned_digest(output_digests, level, seed):
    # full at seed 11705 is the FAIL report with a monte_carlo note; 343578368,
    # the FAIL seed of the counted uniforms, pins its PASS on the drawn counts.
    digest_tool, pinned = output_digests
    argv = ("verify", "--level", level, "--seed", seed)
    code, digest = digest_tool.run(argv)
    assert f"{digest}  {code}  {' '.join(argv)}" == pinned[" ".join(argv)]


def test_run_suite_names_the_allowed_suites_and_levels():
    with pytest.raises(ParameterError, match=r"suite must be one of \['linalg_core', .*'monte_carlo'\], got 'nope'"):
        verify.run_suite("nope")
    with pytest.raises(ParameterError, match=r"level must be one of \['fast', 'full'\], got 'medium'"):
        verify.run_suite("duality", "medium")


def test_a_suite_that_raises_fails_with_a_note(monkeypatch, capsys):
    """A regression that raises inside one suite is a noted failure there; the other suites still run."""
    exact = verify.optimal_entanglement
    monkeypatch.setattr(verify, "optimal_entanglement", lambda w: exact(w) * (1.0 + 1e-14))
    monkeypatch.delenv("QUDUAL_SEED", raising=False)
    assert main(["verify", "--level", "fast"]) == 1
    failures, notes = {}, {}
    for line in capsys.readouterr().out.splitlines()[1:-1]:
        if line.startswith("    note: "):
            notes[name].append(line[len("    note: "):])
        else:
            name, _, tally = line.split()
            failures[name] = int(tally.removeprefix("failures="))
            notes[name] = []
    assert list(failures) == list(verify.SUITE_NAMES)
    assert notes["minimum_product"][-1] == (
        "suite raised ParameterError: c = 1.00000000000001 violates the bound 0 <= c <= 1"
    )
    assert failures["minimum_product"] > 0
    assert all(count == 0 for name, count in failures.items() if name != "minimum_product")
