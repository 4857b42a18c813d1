import math
import re

import numpy as np
import pytest

from qudual import (
    ComplementaryFamily,
    DensityMatrix,
    ParameterError,
    entangle,
    estimate_a,
    estimate_b,
    intelligent_state,
    meter_projectors,
    normalized_product_bounds,
    optimal_entanglement,
    pure_state,
    sample_fringe,
    sample_sharp,
    sample_simultaneous,
    simultaneous,
    simultaneous_product,
    symmetric_observable,
    verify,
    visibility_oracle,
)
from qudual.cli import CSV_HEADER, _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pairs(out):
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition("  ")
        values[key.strip()] = float(val)
    return values


def test_compute_balanced_pure_state(capsys):
    code, out, _ = run(capsys, "compute", "--w-plus", "0.5", "--pure")
    assert code == 0
    values = parse_pairs(out)
    assert values["P"] == 0.0
    assert values["V"] == 1.0
    assert values["P2_plus_V2"] == 1.0
    assert values["var_B"] == 0.0
    assert values["robertson_lhs"] == 0.0


def test_compute_requires_a_coherence_choice(capsys):
    code, _, err = run(capsys, "compute", "--w-plus", "0.5")
    assert code == 2
    assert "--rho12 or --pure" in err


def test_compute_rejects_excess_coherence(capsys):
    code, _, err = run(capsys, "compute", "--w-plus", "0.5", "--rho12", "0.7")
    assert code == 2
    assert "violates the positivity bound" in err
    assert "sqrt(w_plus * w_minus)" in err


def test_compute_entangled_block(capsys):
    code, out, _ = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--c", str(math.sqrt(3.0 / 7.0)))
    assert code == 0
    values = parse_pairs(out)
    assert values["D"] ** 2 + values["V_e"] ** 2 == pytest.approx(1.0, abs=1e-12)
    assert values["sim_product"] == pytest.approx(0.1369, abs=1e-12)
    assert values["sim_product_min"] == pytest.approx(0.1369, abs=1e-12)
    assert values["var_A_readout"] == pytest.approx(0.2775, abs=1e-12)


def test_compute_entangled_block_requires_purity(capsys):
    code, _, err = run(capsys, "compute", "--w-plus", "0.9", "--rho12", "0.1", "--c", "0.5")
    assert code == 2
    assert "pure" in err


def test_sweep_header_and_endpoints(capsys):
    code, out, _ = run(capsys, "sweep", "--figure", "1", "--points", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[3].split(",")]
    # w_plus, P, V, product_min, product_max, D, V_e, c_opt, sim_product_min
    assert first[0] == 0.0 and last[0] == 1.0
    assert first[1] == 1.0 and first[2] == 0.0
    assert first[3] == 0.0 and first[4] == 0.0
    assert first[8] == 0.0625 and last[8] == 0.0625
    mid = [float(x) for x in lines[2].split(",")]
    assert mid[0] == pytest.approx(0.5, abs=1e-15)
    assert mid[4] == pytest.approx(0.0625, abs=1e-15)


def test_sweep_figures_differ_in_the_middle(capsys):
    _, out1, _ = run(capsys, "sweep", "--figure", "1", "--points", "5")
    _, out3, _ = run(capsys, "sweep", "--figure", "3", "--points", "5")
    row1 = out1.splitlines()[2].split(",")
    row3 = out3.splitlines()[2].split(",")
    # full entanglement shows D = P; the optimal overlap shows a larger D
    assert float(row3[5]) > float(row1[5])
    assert row1[0] == row3[0]


def test_sweep_is_deterministic(capsys):
    _, out1, _ = run(capsys, "sweep", "--figure", "3", "--points", "41")
    _, out2, _ = run(capsys, "sweep", "--figure", "3", "--points", "41")
    assert out1 == out2


def test_sweep_writes_lf_file(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, _, _ = run(capsys, "sweep", "--figure", "1", "--points", "11", "--out", str(out_path))
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(CSV_HEADER.encode() + b"\n")
    assert raw.endswith(b"\n")
    assert len(raw.splitlines()) == 12


def test_sweep_unwritable_path(capsys):
    code, _, err = run(capsys, "sweep", "--figure", "1", "--out", "/nonexistent-dir/curves.csv")
    assert code == 3
    assert "cannot write" in err


def test_sweep_rejects_tiny_grid(capsys):
    code, _, err = run(capsys, "sweep", "--figure", "1", "--points", "1")
    assert code == 2
    assert "--points" in err


def test_verify_fast_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--seed", "42")
    code2, out2, _ = run(capsys, "verify", "--seed", "42")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert out1.startswith("self-check level=fast seed=42")
    assert "result: PASS" in out1


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QUDUAL_SEED", "7")
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "seed=7" in out.splitlines()[0]


def test_verify_rejects_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("QUDUAL_SEED", "not-a-number")
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "QUDUAL_SEED" in err


def test_mc_subcommand_runs_clean(capsys):
    code, out, _ = run(capsys, "mc", "--n", "5000", "--seed", "42")
    assert code == 0
    assert "sharp_a" in out and "readout_b" in out and "fringe" in out
    assert "FLAGGED" not in out


@pytest.mark.parametrize("c", ["0.999999", "1e-06"])
def test_compute_edge_overlaps(capsys, c):
    code, out, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", c)
    assert code == 0, err
    values = parse_pairs(out)
    assert values["mean_A_readout"] == pytest.approx(0.4, abs=1e-12)
    # varrho defaults to theta, so cos(theta - varrho) = 1
    c_val = float(c)
    assert values["var_B_readout"] == pytest.approx(0.25 * (1.0 / c_val**2 - 4.0 * 0.9 * 0.1), rel=1e-12)


@pytest.mark.parametrize("name, value", [("theta", "inf"), ("theta", "nan"), ("c", "nan")])
def test_compute_rejects_non_finite_scalars(capsys, name, value):
    code, out, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", f"--{name}", value)
    assert code == 2
    assert "nan" not in out
    assert err.startswith(f"error: {name} = {value} violates the bound")


@pytest.mark.parametrize(
    "argv, name", [(("--w-plus", "0.5"), "c"), (("--theta", "nan"), "theta")], ids=["singular-c", "nan-theta"]
)
def test_mc_failure_writes_no_stdout(capsys, argv, name):
    code, out, err = run(capsys, "mc", "--n", "1000", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"{name} = " in err


@pytest.mark.parametrize("w_plus", ["0", "0.5", "1"])
def test_mc_default_overlap_at_a_singular_population_asks_for_c(capsys, w_plus):
    code, out, err = run(capsys, "mc", "--n", "1000", "--w-plus", w_plus)
    assert (code, out) == (2, "")
    assert "--c defaults to the optimal overlap" in err and "pass --c" in err


_PSI = entangle(0.9, 0.3, 0.6)
_FAMILY_REFERENCE = symmetric_observable()

SCALAR_ENTRY_POINTS = {
    "DensityMatrix.w_plus": lambda x: DensityMatrix(x, 0.0),
    "DensityMatrix.rho12": lambda x: DensityMatrix(0.5, x),
    "DensityMatrix.theta": lambda x: DensityMatrix(0.5, 0.5, x),
    "DensityMatrix.theta-incoherent": lambda x: DensityMatrix(0.5, 0.0, x),
    "pure_state.w_plus": lambda x: pure_state(x),
    "pure_state.theta": lambda x: pure_state(0.5, x),
    "symmetric_observable.value": lambda x: symmetric_observable(x),
    "ComplementaryFamily.varrho": lambda x: ComplementaryFamily(_FAMILY_REFERENCE, x),
    "ComplementaryFamily.b_plus": lambda x: ComplementaryFamily(_FAMILY_REFERENCE, 0.0, x),
    "entangle.w_plus": lambda x: entangle(x, 0.0, 0.5),
    "entangle.theta": lambda x: entangle(0.5, x, 0.5),
    "entangle.c": lambda x: entangle(0.5, 0.0, x),
    "meter_projectors.c": lambda x: meter_projectors(x),
    "meter_projectors.a_value": lambda x: meter_projectors(0.5, x),
    "estimate_a.a_value": lambda x: estimate_a(_PSI, x),
    "estimate_b.varrho": lambda x: estimate_b(_PSI, x),
    "estimate_b.b_value": lambda x: estimate_b(_PSI, 0.3, x),
    "simultaneous_product.w_plus": lambda x: simultaneous_product(x, 0.5),
    "simultaneous_product.c": lambda x: simultaneous_product(0.5, x),
    "optimal_entanglement.w_plus": lambda x: optimal_entanglement(x),
    "normalized_product_bounds.w_plus": lambda x: normalized_product_bounds(x),
    "intelligent_state.w_plus": lambda x: intelligent_state("IS1", x, 0.9),
    "intelligent_state.beta": lambda x: intelligent_state("IS2a", x, 0.9),
    "intelligent_state.varrho": lambda x: intelligent_state("IS2b", 0.3, x),
    "intelligent_state.a_value": lambda x: intelligent_state("IS1", 0.3, 0.9, a_value=x),
    "intelligent_state.b_value": lambda x: intelligent_state("IS1", 0.3, 0.9, b_value=x),
    "sample_simultaneous.varrho": lambda x: sample_simultaneous(_PSI, x, 10, 1),
    "sample_simultaneous.a_value": lambda x: sample_simultaneous(_PSI, 0.3, 10, 1, a_value=x),
    "sample_simultaneous.b_value": lambda x: sample_simultaneous(_PSI, 0.3, 10, 1, b_value=x),
    "sample_fringe.xi": lambda x: sample_fringe(pure_state(0.5), np.linspace(0.0, 6.0, 4), x, 10, 1),
    "sample_fringe.n_per_point": lambda x: sample_fringe(pure_state(0.5), np.linspace(0.0, 6.0, 4), 0.5, x, 1),
    "sample_sharp.n": lambda x: sample_sharp(pure_state(0.5), _FAMILY_REFERENCE, x, 1),
    "sample_simultaneous.n": lambda x: sample_simultaneous(_PSI, 0.3, x, 1),
    "visibility_oracle.grid_n": lambda x: visibility_oracle(pure_state(0.5), x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
def test_non_finite_scalars_raise_parameter_error(entry, value):
    with pytest.raises(ParameterError):
        SCALAR_ENTRY_POINTS[entry](value)


def test_compute_and_meter_readout_skip_the_cross_check_routes(capsys, count_calls):
    entangles = count_calls(simultaneous, "entangle")
    reports = count_calls(verify, "minimum_product_report")
    searches = count_calls(verify, "_golden_minimize")
    code, _, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", "0.5")
    assert code == 0, err
    assert len(entangles) == 1
    assert reports == [] and searches == []
    meter_projectors(0.6)
    assert len(entangles) == 1


HUGE_GAUGES = {
    "meter_projectors.a_value": (lambda: meter_projectors(0.5, 1e308), "a_value / sqrt(1 - c**2)"),
    "estimate_a.a_value": (lambda: estimate_a(_PSI, a_value=1e308), "a_value / sqrt(1 - c**2)"),
    "estimate_b.b_value": (lambda: estimate_b(_PSI, 0.3, b_value=1e308), "b_value / c"),
    "sample_simultaneous.a_value": (lambda: sample_simultaneous(_PSI, 0.3, 10, 1, a_value=1e308), "a_value / sqrt(1 - c**2)"),
    "sample_simultaneous.b_value": (lambda: sample_simultaneous(_PSI, 0.3, 10, 1, b_value=1e308), "b_value / c"),
    "estimate_b.underflowing_c": (lambda: estimate_b(entangle(0.9, 0.3, 1e-200), 0.3), "b_value / c"),
}


@pytest.mark.parametrize("entry", sorted(HUGE_GAUGES))
def test_huge_gauges_raise_parameter_error(entry):
    call, bound = HUGE_GAUGES[entry]
    with pytest.raises(ParameterError, match=f"violates the bound {re.escape(bound)} <= 1.34078e\\+154"):
        call()


@pytest.mark.parametrize("gauge", ["a_value", "b_value"])
def test_sampled_outcome_values_keep_a_finite_fourth_moment(gauge):
    with pytest.raises(ParameterError, match=r"violates the bound \|value\| <= 5.7896e\+76"):
        sample_simultaneous(_PSI, 0.3, 10, 1, **{gauge: 1e100})


def test_product_at_an_underflowing_overlap_is_the_limit():
    assert simultaneous_product(0.9, 1e-200) == math.inf
    assert simultaneous_product(1.0, 1e-200) == 0.0625


def test_compute_at_an_underflowing_overlap_exits_2(capsys):
    code, out, err = run(capsys, "compute", "--w-plus", "0.9", "--pure", "--c", "1e-200")
    assert code == 2 and out == ""
    assert err.startswith("error: b_value = 0.5 violates the bound b_value / c")


@pytest.mark.parametrize(
    "argv", [["--help"], ["compute", "--help"], ["compute"], ["sweep", "--figure", "2"], ["bogus"]]
)
def test_parser_is_built_once_and_answers_alike(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        texts.append((exit_info.value.code, captured.out, captured.err))
    assert texts[0] == texts[1]
    assert texts[0][1].startswith("usage: qudual") or texts[0][2].startswith("usage: qudual")
    assert _build_parser() is _build_parser()
