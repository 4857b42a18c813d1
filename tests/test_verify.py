import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qudual
from qudual import DensityMatrix, duality, linalg, montecarlo, simultaneous, states, uncertainty, verify
from qudual.cli import main
from qudual.errors import ParameterError
from qudual.simultaneous import EntangledState, estimate_a, estimate_b
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
    states, extra = verify._random_states(batch_rng, n, phases)
    assert extra.shape == (n, phases)
    for i in range(n):
        rho = _loop_state(loop_rng, i)
        assert (rho.w_plus, rho.rho12, rho.theta) == (states.w_plus[i], states.rho12[i], states.theta[i])
        assert [loop_rng.uniform(0.0, TWO_PI) for _ in range(phases)] == extra[i].tolist()
    # both generators stop at the same point of the stream
    assert loop_rng.random() == batch_rng.random()


def test_batch_tally_matches_a_loop_over_the_elements():
    rng = np.random.default_rng(3)
    # Each element passes where its draw reaches the threshold; a NaN fails.
    deviation = [-rng.random(50), -rng.random(50), -rng.random(50)]
    deviation[1][::7] = np.nan
    where = rng.random(50) > 0.4
    loop, batch = verify._Tally("loop"), verify._Tally("batch")
    for tally in (loop, batch):
        tally.check((1.0, 0.0, "earlier note"))
        tally.check((math.nan, 0.0, "another earlier note"))
    for i in range(50):
        loop.check((deviation[0][i], -0.8, f"first #{i}"))
        loop.check((deviation[1][i], -0.5, f"second #{i}"))
        if where[i]:
            loop.check((deviation[2][i], -0.3, f"third #{i}"))
    batch.check(
        (deviation[0], -0.8, lambda i: f"first #{i}"),
        (deviation[1], np.full(50, -0.5), lambda i: f"second #{i}"),
        (deviation[2], -0.3, lambda i: f"third #{i}", where),
    )
    assert (batch.checks, batch.failures, batch.notes) == (loop.checks, loop.failures, loop.notes)
    assert len(batch.notes) == verify._Tally._MAX_NOTES


def reference_check(tally, *entries):
    """``_Tally.check`` with no early return: every mask broadcast and stacked, and notes read off, on each call."""
    masks = []
    for deviation, tolerance, _, *where in entries:
        ok, applies = np.broadcast_arrays(np.less_equal(deviation, tolerance), where[0] if where else True)
        tally.checks += int(np.count_nonzero(applies))
        masks.append((applies & ~ok).ravel())
    failed = list(zip(*np.nonzero(np.stack(masks, axis=-1))))
    tally.failures += len(failed)
    for i, k in failed[: max(tally._MAX_NOTES - len(tally.notes), 0)]:
        label = entries[k][2]
        tally.notes.append(label(int(i)) if callable(label) else label)


deviations = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, math.nan, math.inf, -math.inf])


@given(data=st.data(), calls=st.integers(1, 4))
def test_tally_returns_at_once_with_the_counts_and_notes_of_the_full_tally(data, calls):
    """NaN deviations, ``where`` masks, scalar entries and failures in several entries of a call, past the note cap."""
    fast, full = verify._Tally("fast"), verify._Tally("full")
    for call in range(calls):
        n = data.draw(st.integers(1, 8))
        entries = []
        for k in range(data.draw(st.integers(1, 4))):
            where = data.draw(st.sampled_from(["none", "mask", "flag"]))
            scalar = (n == 1 or where == "mask") and data.draw(st.booleans())
            draws = st.lists(deviations, min_size=n, max_size=n)
            deviation = data.draw(deviations) if scalar else np.array(data.draw(draws))
            tolerance = data.draw(st.sampled_from([0.0, 0.5, -math.inf, np.full(n, 0.25)]))
            if data.draw(st.booleans()):
                label = lambda i, call=call, k=k: f"call {call} entry {k} element {i}"  # noqa: E731
            else:
                label = f"call {call} entry {k}"
            entry = (deviation, tolerance, label)
            if where == "mask":
                entry += (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))),)
            elif where == "flag":
                entry += (data.draw(st.booleans()),)
            entries.append(entry)
        fast.check(*entries)
        reference_check(full, *entries)
        assert (fast.checks, fast.failures, fast.notes) == (full.checks, full.failures, full.notes)
    assert len(fast.notes) <= verify._Tally._MAX_NOTES


@pytest.mark.parametrize("level", ["fast", "full"])
def test_selftest_corrupt_report_is_pinned(capsys, level):
    code = main(["verify", "--level", level, "--selftest-corrupt"])
    assert code == 1
    assert capsys.readouterr().out == (GOLDEN / f"verify_selftest_corrupt_{level}.txt").read_text()


def test_batched_suites_make_one_kernel_call_each(count_calls):
    """Each batched suite calls its closed form once, on one stacked value, and builds no state one at a time."""
    kernels = {
        "robertson": count_calls(uncertainty, "robertson"),
        "duality": count_calls(duality, "predictability"),
        "entangled_duality": count_calls(simultaneous, "distinguishability"),
        "state_round_trip": count_calls(verify, "_density_params"),
    }
    builds = [count_calls(states.DensityMatrix, "__init__"), count_calls(EntangledState, "__init__")]
    moments = count_calls(uncertainty, "mean_var")
    sizes = {"robertson": 10000, "duality": 10000, "entangled_duality": 2601}
    checks = {"robertson": 25000, "duality": 30000, "entangled_duality": 10404}
    for name, size in sizes.items():
        for calls in (*kernels.values(), *builds):
            calls.clear()
        result = verify.run_suite(name, "full", 42)
        assert (result.checks, result.failures) == (checks[name], 0)
        assert [np.shape(call[0].w_plus) for call in kernels[name]] == [(size,)]
        # the one state built is the stack; its __init__ receives self, then the stacked populations
        assert [np.shape(call[1]) for calls in builds for call in calls] == [(size,)]
    assert moments == []

    # The round trip reads all 500 matrices back in one call; the only
    # single-matrix read is the rejection check of a non-Hermitian matrix.
    result = verify.run_suite("state_round_trip", "full", 42)
    assert (result.checks, result.failures) == (2003, 0)
    assert [np.shape(call[0]) for call in kernels["state_round_trip"]] == [(500, 2, 2), (2, 2)]

    # The one robertson call splits the state's parts once for its six traces: one _traces call, and one Veltkamp
    # split of the state's four stacked parts.
    traces, splits = count_calls(linalg, "_traces"), count_calls(linalg, "_halves")
    result = verify.run_suite("robertson", "full", 42)
    assert (result.checks, result.failures) == (25000, 0)
    assert [(np.shape(call[0][0]), len(call) - 1) for call in traces] == [((10000,), 6)]
    assert [[np.shape(part) for part in call] for call in splits] == [[(10000,)] * 4]
    assert splits[0][0] is traces[0][0][0] and splits[0][1] is traces[0][0][1]  # a and d as held; x and y doubled

    # Every variance of the extremality grid comes from one call on a stack.
    kernels["robertson"].clear()
    result = verify.run_suite("product_bounds", "full", 42)
    assert (result.checks, result.failures) == (1137, 0)
    assert [np.shape(call[0].w_plus) for call in kernels["robertson"]] == [(21 * 34,)]
    assert moments == []

    # Both projection routes run once each, over the grid and over the probes; both readouts and the sharp means
    # run once, on the grid's stack.
    projections = count_calls(verify, "projected_readout_moments")
    readouts = [count_calls(simultaneous, "estimate_a"), count_calls(simultaneous, "estimate_b")]
    for calls in (*builds, moments):
        calls.clear()
    result = verify.run_suite("unbiasedness", "full", 42)
    assert (result.checks, result.failures) == (4008, 0)
    assert len(projections) == 2
    assert [np.shape(call[0].w_plus) for call in (*readouts[0], *readouts[1], *moments)] == [(648,)] * 3
    # the grid and the probes, then the pure states of the sharp means
    assert [np.shape(call[1]) for calls in builds[::-1] for call in calls] == [(648,), (108,), (648,)]

    # The 126 intelligent states take one call of robertson, and their residuals one of is_residual.
    residuals = count_calls(uncertainty, "is_residual")
    kernels["robertson"].clear()
    moments.clear()
    result = verify.run_suite("intelligent_states", "full", 42)
    assert (result.checks, result.failures) == (588, 0)
    assert [np.shape(call[0].w_plus) for call in (*kernels["robertson"], *residuals)] == [(126,)] * 2
    assert moments == []

    # The fringe oracle scans one row of the unitaries per state, at two phases per
    # splitter angle: 2 * grid_n points a state, never the grid_n**2 of the full grid,
    # and all 23 states in one scan.
    scans = count_calls(duality, "fringe_probability")
    result = verify.run_suite("fringe_oracle", "full", 42)
    assert (result.checks, result.failures) == (45, 0)
    assert [np.broadcast(*call[1:]).size for call in scans] == [2 * 512 * 23]

    # The 51 populations take one call of the routes and one lockstep search; the three limits, one call and none.
    # Each call of the routes checks its populations in one public simultaneous_product call, at the optimal
    # overlaps; the search's steps evaluate the product's kernel on the checked populations.
    routes = count_calls(verify, "minimum_product_routes")
    searches = count_calls(verify, "_golden_minimize")
    products = count_calls(simultaneous, "simultaneous_product")
    result = verify.run_suite("minimum_product", "full", 42)
    assert (result.checks, result.failures) == (211, 0)
    assert [np.shape(call[0]) for call in routes] == [(51,), (3,)]
    assert [np.shape(call[1]) for call in searches] == [(51,)]
    assert [np.shape(call[0]) for call in products] == [(51,), (3,)]


def test_verify_reaches_every_public_function(capsys, count_calls, monkeypatch):
    """``verify --level fast --seed 42`` calls every public function of qudual, the six closed forms below included."""
    functions = [name for name in qudual.__all__ if inspect.isfunction(getattr(qudual, name))]
    calls = {name: count_calls(qudual, name) for name in functions}
    monkeypatch.delenv("QUDUAL_SEED", raising=False)
    assert main(["verify", "--level", "fast", "--seed", "42"]) == 0
    capsys.readouterr()
    reached = {name for name, made in calls.items() if made}
    closed_forms = ["predictability", "visibility", "robertson", "distinguishability", "entangled_visibility"]
    assert set(closed_forms + ["is_residual"]) <= reached
    assert set(functions) - reached == set()


def test_unbiasedness_lays_out_each_amplitude_stack_once(count_calls):
    """The grid and the probe amplitudes are one stack each, with the bytes of the states' own ``amplitudes``."""
    projections = count_calls(verify, "projected_readout_moments")
    layouts = count_calls(linalg, "_from_entries")
    result = verify.run_suite("unbiasedness", "full", 42)
    assert (result.checks, result.failures) == (4008, 0)
    # The two stacks alone: a projection reads the parts of the meter and family bases, and lays out none.
    assert len(layouts) == 2
    probes = [(w, theta, c) for c in verify._PROBE_C for w in verify._PROBE_W for theta in verify._PROBE_THETA]
    for (psi, _, _), points in zip(projections, (READOUT_GRID, probes), strict=True):
        expected = np.array([EntangledState(*point).amplitudes for point in points])
        assert (psi.dtype, psi.shape, psi.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


def test_suites_hand_their_checks_to_the_tally_in_stacked_calls(count_calls):
    """A grid's checks are one tally call, not one per element, and the family suite builds its members in three calls.

    The members are library-built observables: each goes through ``Observable._from_checked``, none through the
    checking ``Observable(...)``.
    """
    tally_calls = count_calls(verify._Tally, "check")
    observables = count_calls(states.Observable, "_from_checked")
    checked = count_calls(states.Observable, "__init__")
    expected = {
        "product_bounds": (1137, 2),
        "minimum_product": (211, 3),
        "complementary_family": (5200, 2),
        "fringe_oracle": (45, 1),
        "monte_carlo": (7, 2),
    }
    counted = {}
    for name in expected:
        tally_calls.clear()
        observables.clear()
        checked.clear()
        result = verify.run_suite(name, "full", 42)
        assert result.failures == 0
        counted[name] = (result.checks, len(tally_calls))
        if name == "complementary_family":
            assert (len(observables), len(checked)) == (3, 0)
    assert counted == expected


def test_stacked_projection_matches_one_state_calls():
    psi = [EntangledState(w, theta, c) for w, theta, c in READOUT_GRID]
    varrho = [0.3 * k for k in range(len(psi))]  # a distinct member for every state
    stacked = verify.projected_readout_moments(np.stack([p.amplitudes for p in psi]), [p.c for p in psi], varrho)
    stacked = np.array(stacked).reshape(4, -1)
    for i, (p, v) in enumerate(zip(psi, varrho)):
        single = np.array(verify.projected_readout_moments(p.amplitudes, p.c, v)).ravel()
        assert stacked[:, i].tolist() == single.tolist()
        closed = (*estimate_a(p), *estimate_b(p, v))
        assert np.abs(single - closed).max() <= 1e-12 * max(1.0, *np.abs(closed))


# The projected moments of the unbiasedness grid and probes, hashed by a child process.
_MOMENTS_CHILD = """
import hashlib, math
import numpy as np
from qudual import verify
from qudual.simultaneous import EntangledState
from qudual.states import TWO_PI
tenths = [k / 10.0 for k in range(1, 10)]
grid = np.array([(w, TWO_PI * j / 8.0, c) for w in tenths for j in range(8) for c in tenths]).T
probes = np.array([(w, t, c) for c in verify._PROBE_C for w in verify._PROBE_W for t in verify._PROBE_THETA]).T
moments = [verify.projected_readout_moments(EntangledState(*grid).amplitudes, grid[2], math.pi / 5.0),
           verify.projected_readout_moments(EntangledState(*probes).amplitudes, probes[2], probes[1])]
print(hashlib.sha256(b"".join(np.array(m).tobytes() for m in moments)).hexdigest())
"""


def test_projected_readout_moments_do_not_depend_on_the_simd_level():
    """The projections have the same bits with NumPy's dispatch cut back to its X86_V2 baseline.

    Each projection is a sum of real products, which IEEE 754 rounds alike at every SIMD level. On an x86-64 host
    with AVX-512, the same projections through NumPy's complex multiply give other bits under this setting.
    """
    root = Path(__file__).resolve().parents[1]
    digests = []
    for setting in ({}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}):
        env = {**os.environ, **setting, "PYTHONPATH": str(root / "src")}
        child = subprocess.run(
            [sys.executable, "-c", _MOMENTS_CHILD], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        digests.append(child.stdout)
    assert digests[0] == digests[1]


def test_linalg_core_draws_reproduce_the_matrix_loop(count_calls):
    eigen = count_calls(linalg, "_eigenvalues")
    result = verify.run_suite("linalg_core", "full", 42)
    assert (result.checks, result.failures) == (402, 0)

    loop_rng = montecarlo._generator(42, stream=1000 + verify.SUITE_NAMES.index("linalg_core"))
    herm = []
    for _ in range(200):
        m = loop_rng.normal(size=(2, 2)) + 1j * loop_rng.normal(size=(2, 2))
        herm.append(m + m.conj().T)
    # two frozen trace norms on float parts, then the drawn stack: its eigenvalues, then _trace_norm
    assert [[np.shape(part) for part in call] for call in eigen] == [[()] * 4] * 2 + [[(200,)] * 4] * 2
    assert all(np.array_equal(linalg._from_parts(*call), herm) for call in eigen[2:])


@pytest.mark.parametrize("faulty_c", [(0.3,), (0.3, 0.7)])
def test_planted_readout_fault_keeps_the_loop_notes(monkeypatch, faulty_c):
    """A fault at each faulty c fails 72 checks; the six notes come in grid order: w, then theta, then c."""
    varrho = math.pi / 5.0
    exact = verify.estimate_b

    def planted(psi, phase):
        mean, var = exact(psi, phase)
        return mean, var + 1e-9 * np.isin(psi.c, faulty_c)

    monkeypatch.setattr(verify, "estimate_b", planted)
    result = verify.run_suite("unbiasedness", "full", 42)
    notes = []
    for w, theta, c in READOUT_GRID:
        if c in faulty_c and len(notes) < 6:
            psi = EntangledState(w, theta, c)
            var, (_, var_x) = exact(psi, varrho)[1] + 1e-9, verify.projected_readout_moments(psi.amplitudes, c, varrho)[1]
            notes.append(f"system readout variance by projection w={w} theta={theta:.2f} c={c}: {var!r} vs {float(var_x)!r}")
    assert (result.checks, result.failures) == (4008, 72 * len(faulty_c))
    assert list(result.notes) == notes


def test_planted_floor_fault_keeps_the_loop_notes(monkeypatch):
    """A floor raised by 1e-9 at four grid points fails two checks at each, noted in loop order."""
    grid = np.linspace(0.08, 0.92, 21).tolist()
    faulty = [grid[2], grid[5], grid[9], grid[14]]
    exact = verify.normalized_product_bounds

    def planted(w):
        lo, hi = exact(w)
        return lo + 1e-9 * np.isin(w, faulty), hi

    monkeypatch.setattr(verify, "normalized_product_bounds", planted)
    result = verify.run_suite("product_bounds", "full", 42)
    b_obs = complementary_observable(0.6)
    notes = []
    for w in faulty:
        rho = pure_state(w, 0.6)
        product = uncertainty.mean_var(rho, REFERENCE)[1] * uncertainty.mean_var(rho, b_obs)[1]
        notes.append(f"product within bounds w={w:.3f} d=0.000")
        notes.append(f"proper choice reaches the floor w={w:.3f}: {product!r} vs {exact(w)[0] + 1e-9!r}")
    assert (result.checks, result.failures) == (1137, 8)
    assert list(result.notes) == notes[:6]


def test_planted_round_trip_fault_keeps_the_loop_notes(monkeypatch):
    """Coherence read back 1e-9 short above w_plus = 0.9 fails there, noted by state index."""
    exact = verify._density_params

    def planted(m):
        w, rho12, theta = exact(m)
        return w, np.where((w > 0.9) & (rho12 > 1e-9), rho12 - 1e-9, rho12), theta

    monkeypatch.setattr(verify, "_density_params", planted)
    result = verify.run_suite("state_round_trip", "full", 42)
    rng = montecarlo._generator(42, stream=1000 + verify.SUITE_NAMES.index("state_round_trip"))
    drawn, _ = verify._random_states(rng, 500)
    w, rho12 = drawn.w_plus.tolist(), drawn.rho12.tolist()
    faulty = [(i, r) for i, (x, r) in enumerate(zip(w, rho12)) if x > 0.9 and r > 1e-9]
    assert (result.checks, result.failures) == (2003, len(faulty))
    assert list(result.notes) == [f"round trip rho12 #{i}: {r - 1e-9!r} vs {r!r}" for i, r in faulty[:6]]


def _shift(outputs, *deltas):
    """``outputs`` with ``deltas`` added to its leading entries."""
    return (*(x + d for x, d in zip(outputs, deltas)), *outputs[len(deltas):])


def _skewed_member(exact):
    """``complementary_observable`` whose minus vector leans 1e-9 toward its plus vector."""

    def planted(varrho):
        member = exact(varrho)
        return SimpleNamespace(
            vec_plus=member.vec_plus, vec_minus=member.vec_minus + 1e-9 * member.vec_plus, matrix=member.matrix
        )

    return planted


# One planted fault per suite, as (suite, name rebound in verify, fault built
# from the exact function, checks, failures, notes of verify at full, seed 42).
PLANTED_FAULTS = [
    pytest.param(
        "linalg_core", "_trace_norm", lambda exact: lambda *parts: exact(*parts) * (1.0 + 1e-9), 402, 202,
        [
            "trace norm diag: 1.000000001 vs 1.0",
            "trace norm of projector difference: 1.6000000016000002 vs 1.6",
            "trace norm against svd #0: 3.741526240145674 vs 3.7415262364",
            "trace norm against svd #1: 3.210621993193396 vs 3.21062198998",
            "trace norm against svd #2: 5.523417154210724 vs 5.52341714869",
            "trace norm against svd #3: 8.837885687078417 vs 8.83788567824",
        ],
        id="linalg_core",
    ),
    pytest.param(
        "complementary_family", "complementary_observable", _skewed_member, 5200, 50,
        [
            "member orthogonality #0: 9.999999717180685e-10 vs 0.0",
            "member orthogonality #1: 1.000000082740371e-09 vs 0.0",
            "member orthogonality #2: 1.0000000272292212e-09 vs 0.0",
            "member orthogonality #3: 1.0000001382515222e-09 vs 0.0",
            "member orthogonality #4: 1.000000082740371e-09 vs 0.0",
            "member orthogonality #5: 1.0000000272292202e-09 vs 0.0",
        ],
        id="complementary_family-members",
    ),
    pytest.param(
        "complementary_family", "family_duality",
        lambda exact: lambda rho, varrho: _shift(exact(rho, varrho), 1e-9 * (rho.w_plus > 0.9)),
        5200, 207,
        [
            "family invariance #21: 1.0000000001314702 vs 1.0",
            "proper choice swaps V into P_B #21: 0.44638982955987 vs 0.44638982855986997",
            "erasure kills P_B #21: 1.0000000273334937e-09 vs 0.0",
            "family invariance #54: 0.7234672464213551 vs 0.7234672464198065",
            "proper choice swaps V into P_B #54: 0.0011402730523328468 vs 0.001140272052332847",
            "erasure kills P_B #54: 1.0000000000698216e-09 vs 0.0",
        ],
        id="complementary_family-stack",
    ),
    pytest.param(
        "fringe_oracle", "visibility_oracle", lambda exact: lambda rho, grid_n: _shift(exact(rho, grid_n=grid_n), 0.01, 0.1),
        45, 45,
        [
            "oracle contrast state #0: 0.6099999999999999 vs 0.6",
            "oracle coupling angle state #0: 0.8853981633974483",
            "oracle contrast state #1: 1.01 vs 1.0",
            "oracle coupling angle state #1: 0.8853981633974483",
            "oracle contrast state #2: 0.01 vs 0.0",
            "oracle contrast state #3: 0.6013817599255521 vs 0.5913835645638575",
        ],
        id="fringe_oracle",
    ),
    pytest.param(
        "robertson", "robertson", lambda exact: lambda *a: replace(exact(*a), slack=exact(*a).slack - 1e-9),
        25000, 20000,
        [
            "robertson slack identity #0: 0.050612339327984174 vs 0.0506123403279842",
            "robertson bound #1: -1e-09",
            "robertson slack identity #1: -1e-09 vs 1.734723475976807e-18",
            "pure state saturation #1: -1e-09",
            "robertson slack identity #2: 0.04411957450851235 vs 0.044119575508512365",
            "robertson bound #3: -9.999999817854036e-10",
        ],
        id="robertson",
    ),
    pytest.param(
        "intelligent_states", "intelligent_state", lambda exact: lambda *a: replace(exact(*a), lam=exact(*a).lam + 1e-9),
        588, 218,
        [
            "IS1 stretch is imaginary",
            "IS1 w=0.00 br=1 eigen-equation residual: 4.999999999999999e-10",
            "IS1 stretch is imaginary",
            "IS1 w=0.05 br=1 eigen-equation residual: 4.4999996365756517e-10",
            "IS1 stretch is imaginary",
            "IS1 w=0.10 br=1 eigen-equation residual: 3.999999740283132e-10",
        ],
        id="intelligent_states",
    ),
    pytest.param(
        "intelligent_states", "normalized_product_bounds", lambda exact: lambda w: _shift(exact(w), 0.0, 1e-3), 588, 42,
        [
            "IS2b product sits on the ceiling w=0.00: 0.0 vs 0.001",
            "IS2b product sits on the ceiling w=0.05: 0.011875000000000004 vs 0.012875000000000001",
            "IS2b product sits on the ceiling w=0.10: 0.02249999999999998 vs 0.023500000000000004",
            "IS2b product sits on the ceiling w=0.15: 0.03187499999999998 vs 0.032875",
            "IS2b product sits on the ceiling w=0.20: 0.03999999999999997 vs 0.04100000000000001",
            "IS2b product sits on the ceiling w=0.25: 0.04687499999999997 vs 0.047875",
        ],
        id="intelligent_states-product",
    ),
    pytest.param(
        "entangled_duality", "distinguishability", lambda exact: lambda psi: exact(psi) - 1e-9, 10404, 5352,
        [
            "distinguishability by trace norm w=0.00 c=0.00: 0.999999999 vs 1.0",
            "erasure-free duality w=0.00 c=0.00: 0.9999999980000001 vs 1.0",
            "predictability below distinguishability w=0.00 c=0.00",
            "distinguishability by trace norm w=0.00 c=0.02: 0.999999999 vs 1.0000000000000002",
            "erasure-free duality w=0.00 c=0.02: 0.9999999980000001 vs 1.0",
            "predictability below distinguishability w=0.00 c=0.02",
        ],
        id="entangled_duality",
    ),
    pytest.param(
        "minimum_product", "_golden_minimize", lambda exact: lambda *a: exact(*a) + 1e-8, 211, 51,
        [
            "routes agree at w=0.0189: spread 1.0000000036369805e-08",
            "routes agree at w=0.0377: spread 1.0000000022492017e-08",
            "routes agree at w=0.0566: spread 9.999999994736442e-09",
            "routes agree at w=0.0755: spread 9.999999994736442e-09",
            "routes agree at w=0.0943: spread 1.0000000050247593e-08",
            "routes agree at w=0.1132: spread 1.0000000050247593e-08",
        ],
        id="minimum_product",
    ),
]


@pytest.mark.parametrize("suite, name, plant, checks, failures, notes", PLANTED_FAULTS)
def test_planted_fault_keeps_its_notes(monkeypatch, suite, name, plant, checks, failures, notes):
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    result = verify.run_suite(suite, "full", 42)
    assert (result.checks, result.failures, list(result.notes)) == (checks, failures, notes)


def test_singular_intelligent_states_must_be_member_eigenstates(monkeypatch):
    """IS2a's singular state off its phase keeps its infinite stretch but not Var(B) = 0, and only the eigenstate check sees it."""
    exact = verify.intelligent_state
    planted_lams = []

    def planted(family, param, varrho, branch):
        st = exact(family, param, varrho, branch)
        if family == "IS2a" and math.isinf(abs(st.lam)):
            planted_lams.append(st.lam)
            return replace(st, state=pure_state(0.5, st.state.theta + 1e-3))
        return st

    monkeypatch.setattr(verify, "intelligent_state", planted)
    result = verify.run_suite("intelligent_states", "full", 42)
    # both singular points keep the infinite stretch that was all the check read before
    assert len(planted_lams) == 2 and all(math.isinf(abs(lam)) for lam in planted_lams)
    b_obs = complementary_observable(0.9)
    notes = []
    for branch in (1, -1):
        var_b = uncertainty.mean_var(pure_state(0.5, exact("IS2a", 0.0, 0.9, branch).state.theta + 1e-3), b_obs)[1]
        notes.append(f"IS2a beta=0.00 br={branch} singular point is an eigenstate of the member: {var_b!r}")
    assert (result.checks, result.failures, list(result.notes)) == (588, 2, notes)


@pytest.mark.parametrize("level", ["fast", "full"])
@pytest.mark.parametrize("seed", ["42", "343578368", "11705", "1796"])
def test_verify_report_keeps_its_pinned_digest(output_digests, level, seed):
    # full at seed 11705 and fast at seed 1796 are FAIL reports with a
    # monte_carlo note; 343578368, the FAIL seed of the counted uniforms, pins
    # its PASS on the drawn counts.
    digest_tool, pinned = output_digests
    argv = ("verify", "--level", level, "--seed", seed)
    code, digest = digest_tool.run(argv)
    assert f"{digest}  {code}  {' '.join(argv)}" == pinned[" ".join(argv)]


def test_raises_notes_a_missing_and_a_wrong_exception():
    t = verify._Tally("raises")
    t.raises(ParameterError, lambda: pure_state(1.5), "population past 1")
    t.raises(ParameterError, lambda: pure_state(0.5), "valid population")
    t.raises(ParameterError, lambda: 1 / 0, "division by zero")
    notes = ["valid population: no exception", "division by zero: wrong exception type"]
    assert (t.checks, t.failures, t.notes) == (3, 2, notes)


def test_report_of_no_suites_is_a_header_and_a_verdict():
    assert verify.render_report([], "fast", 1) == "self-check level=fast seed=1\nresult: PASS checks=0 failures=0\n"


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
