"""Tests of the benchmark's own checks, workloads and tracer.

    python3 -m pytest benchmark -q

They run the program on small inputs and confirm the checks accept its
outputs today, reject a changed digit, report a failing self-check, that
the tracer keeps working when a traced name is missing, and that pacing
samples inside an operation and leaves its own time out.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qudual import cli  # noqa: E402


PACE = pace.Pace()


def _call(argv):
    rc, out, err, *_ = run.call(cli, tuple(argv), PACE)
    return rc, out, err


def _bump_digit(text: str) -> str:
    """Change the third significant digit of a printed number."""
    digits = [i for i, ch in enumerate(text) if ch.isdigit() and (ch != "0" or i > text.find("."))]
    i = digits[min(2, len(digits) - 1)] if digits else 0
    return text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1:]


COMPUTE_PURE = ("compute", "--w-plus", "0.9", "--pure", "--theta", "0.3", "--c", "0.6547")
COMPUTE_MIXED = ("compute", "--w-plus", "0.3", "--rho12", "0.2", "--theta", "5.0")


def test_checks_accept_compute_round():
    ops = next(workloads.rounds("compute", 3))
    for op in ops:
        rc, out, err = _call(op.argv)
        if op.fault is not None:
            assert rc == 2 and op.fault in err, (op.argv, err)
        else:
            assert rc == 0, err
            assert checks.check_compute(op.argv, out) is None, op.argv


@pytest.mark.parametrize("argv", [COMPUTE_PURE, COMPUTE_MIXED])
def test_checks_accept_compute(argv):
    rc, out, _ = _call(argv)
    assert rc == 0 and checks.check_compute(argv, out) is None


def test_checks_accept_mc():
    argv = ("mc", "--n", "200000", "--w-plus", "0.8", "--theta", "1.1", "--seed", "3")
    rc, out, _ = _call(argv)
    assert checks.check_mc(argv, out, rc) is None, out


def test_checks_accept_signoff_fast():
    argv = ("verify", "--level", "fast", "--seed", "7")
    rc, out, _ = _call(argv)
    assert checks.check_signoff(argv, out, rc, floor=1) is None


def _flag_readout(out: str, z: str) -> str:
    """The report as it reads when the sampling suite flags the meter readout."""
    lines = out.splitlines()
    k = next(i for i, line in enumerate(lines) if line.lstrip().startswith("monte_carlo"))
    lines[k] = lines[k].replace("failures=0", "failures=1")
    lines.insert(k + 1, f"    note: meter readout z=({z})")
    lines[-1] = lines[-1].replace("PASS", "FAIL").replace("failures=0", "failures=1")
    return "\n".join(lines) + "\n"


def test_signoff_check_accepts_only_a_sampling_flag_within_the_z_bound():
    # As `verify --level full --seed 343578368` reports it today.
    argv = ("verify", "--level", "fast", "--seed", "7")
    _, out, _ = _call(argv)
    assert checks.check_signoff(argv, _flag_readout(out, "3.99,-4.00"), 1, floor=1) is None
    assert checks.check_signoff(argv, _flag_readout(out, "3.99,-4.00"), 0, floor=1) is not None
    assert checks.check_signoff(argv, _flag_readout(out, "3.99,-3.50"), 1, floor=1) is not None
    assert checks.check_signoff(argv, _flag_readout(out, "3.99,-7.00"), 1, floor=1) is not None


@pytest.mark.parametrize("argv", [COMPUTE_PURE, COMPUTE_MIXED])
def test_compute_check_rejects_each_changed_digit(argv):
    _, out, _ = _call(argv)
    lines = out.splitlines()
    for k, line in enumerate(lines):
        key, value = line.split()
        if abs(float(value)) < 1e-6:
            continue  # round-off residues such as a pure state's slack
        bad = lines[:k] + [line.replace(value, _bump_digit(value))] + lines[k + 1:]
        assert checks.check_compute(argv, "\n".join(bad) + "\n") is not None, line


def test_mc_check_rejects_a_shifted_mean():
    argv = ("mc", "--n", "200000", "--w-plus", "0.8", "--theta", "1.1", "--seed", "3")
    rc, out, _ = _call(argv)
    lines = out.splitlines()
    value = lines[3].split("mean=")[1].split()[0]
    lines[3] = lines[3].replace(f"mean={value}", f"mean={float(value) + 0.01!r}")
    assert checks.check_mc(argv, "\n".join(lines), rc) is not None


def test_corrupted_self_check_is_reported_as_failure():
    argv = ("verify", "--level", "fast", "--seed", "42", "--selftest-corrupt")
    rc, out, err = _call(argv)
    assert rc == 1
    assert checks.check_signoff(argv, out, rc, floor=0) is not None
    result = run.Run("signoff", floor=0)
    result.record(workloads.Op(argv, 1), rc, out, err, 1.0, 1.0, 1.0, 1.0)
    assert result.wrong and result.failed == 0


def test_typed_error_counts_as_failed_operation():
    op = next(o for o in next(workloads.rounds("compute", 1)) if o.fault)
    rc, out, err = _call(op.argv)
    result = run.Run("compute", floor=0)
    result.record(op, rc, out, err, 1.0, 1.0, 1.0, 1.0)
    assert result.failed == 1 and not result.wrong and result.items == 0


def test_rounds_are_seeded_and_fail_a_fixed_share():
    first = [next(workloads.rounds("compute", 5)) for _ in range(2)]
    assert first[0] == first[1]
    assert next(workloads.rounds("compute", 6)) != first[0]
    gen = workloads.rounds("compute", 5)
    for _ in range(5):
        ops = next(gen)
        assert Fraction(sum(op.fault is not None for op in ops), len(ops)) == Fraction(1, 10)


def test_signoff_floor_is_recorded():
    assert checks.signoff_floor() > 0


def test_tracer_survives_a_missing_function(monkeypatch):
    import qudual.simultaneous

    original_main = cli.main
    monkeypatch.delattr(qudual.simultaneous, "distinguishability")
    with tracer.Tracer() as t:
        with t.op():
            rc, out, _ = _call(COMPUTE_PURE)
        metrics = t.metrics()
    assert rc == 0 and checks.check_compute(COMPUTE_PURE, out) is None
    assert "simultaneous.distinguishability" in t.absent
    assert metrics["simultaneous.distinguishability.self_s"] == (0.0, "s")
    assert {m for m, *_ in tracer.PER_LAYER} == set(metrics)
    assert cli.main is original_main


def test_tracer_attributes_time_to_layers():
    with tracer.Tracer() as t:
        with t.op():
            _call(COMPUTE_PURE)
        metrics = t.metrics()
    assert not t.absent
    assert metrics["simultaneous.meter_projectors.calls"][0] >= 1
    assert metrics["simultaneous.entangle.per_meter_projectors"][0] > 0
    assert metrics["cli.main.self_s"][0] > 0
    layer_total = sum(metrics[f"layer.{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert layer_total <= t.total_s["op"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "compute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_pace_samples_inside_an_operation_and_leaves_them_out():
    class Busy:
        @staticmethod
        def main(argv):
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass
            return 0

    meter = pace.Pace()
    with meter.ticking():
        rc, _, _, wall, cpu, start, end = run.call(Busy, (), meter)
    inside = [t for t in meter.times if start <= t <= end]
    assert rc == 0 and len(inside) >= 3
    assert wall == pytest.approx(0.5, abs=0.05) and end - start > wall
    assert 0.2 < meter.factor(start, end, {"scalar": 1.0}) < 5.0


def test_pace_factor_weighs_the_samples_around_a_span():
    meter = pace.Pace()
    for t, py, np_ in [(0.0, 9.0, 9.0), (1.0, 1.0, 3.0), (1.2, 1.0, 3.0), (1.4, 3.0, 1.0)]:
        meter.times.append(t)
        meter.ratios["scalar"].append(py)
        meter.ratios["vector"].append(np_)
    weights = {"scalar": 0.5, "vector": 0.5}
    assert meter.factor(1.05, 1.5, weights) == 2.0
    # A short span with no sample in it or just before it takes the last one.
    assert meter.factor(0.5, 0.6, weights) == 9.0
