"""End-to-end benchmark of the qudual command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout. Each operation is one call of
``qudual.cli.main(argv)`` in this process, with stdout and stderr captured;
every output is checked against an independent reference (``checks.py``).
The run attempts whole rounds of operations (``workloads.py``), at least
one, while the next round should end within ``--seconds``. Every timing is
paced: divided by how much slower than a calm machine a reference work ran
around it (``pace.py``).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs half the time untraced and half traced, and prints the per-layer
metrics (``tracer.py``) with the tracing overhead. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The result, and in a traced run the spans, go to ``benchmark/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread; set before NumPy loads. Set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import checks
import workloads
from pace import Pace, pin_to_one_cpu
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9


def load_program():
    """Import ``qudual.cli`` from this checkout's sources, and nowhere else."""
    init = SRC / "qudual" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} is missing; run from the root of a qudual checkout")
    sys.path.insert(0, str(SRC))
    import qudual
    import qudual.cli

    if Path(qudual.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported qudual from {qudual.__file__}, not from {SRC}")
    return qudual.cli


def setup(workload: str, seed: int):
    """Everything before the first operation: the program, its inputs, the floor."""
    cli = load_program()
    rounds = workloads.rounds(workload, seed)
    first = next(rounds)
    floor = checks.signoff_floor() if workload == "signoff" else 0
    return cli, rounds, first, floor


def probe_setup_seconds(workload: str, seed: int, pace: Pace) -> tuple[list[float], list[float]]:
    """Set up in fresh processes: wall time from spawn to 'ready', raw and paced."""
    times, paced = [], []
    for _ in range(SETUP_PROBES):
        pace.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line != "ready\n":
            raise SystemExit(f"error: set-up probe failed ({proc.returncode}): {err.strip()}")
        pace.sample()
        times.append(elapsed)
        paced.append(elapsed / pace.factor(start, pace.times[-1], workloads.SETUP_PACE_WEIGHTS))
    return times, paced


def steal_ticks() -> tuple[int, int] | None:
    """Stolen and total CPU ticks of the machine so far, where ``/proc/stat`` has them."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def call(cli, argv: tuple[str, ...], pace: Pace):
    """One operation: ``cli.main(argv)`` with its output captured and timed.

    Returns the exit code, stdout, stderr, and the wall and CPU seconds with
    the pace samples taken inside the operation left out, and its start and end.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        spent_wall0, spent_cpu0 = pace.spent_wall, pace.spent_cpu
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        spent_wall, spent_cpu = pace.spent_wall - spent_wall0, pace.spent_cpu - spent_cpu0
        cpu, end = time.process_time(), time.perf_counter()
    return (rc, out.getvalue(), err.getvalue(),
            end - wall0 - spent_wall, cpu - cpu0 - spent_cpu, wall0, end)


class Run:
    """Outcomes and timings of the operations of one run."""

    def __init__(self, workload: str, floor: int) -> None:
        self.workload = workload
        self.floor = floor
        # Unboxed, so that peak RSS does not grow with the number of
        # operations a run gets through. Paced, except ``raw_walls``.
        self.walls = array("d")
        self.cpus = array("d")
        self.raw_walls = array("d")
        self.raw_cpus = array("d")
        self.items = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.notes: dict[str, int] = {}
        self._digests: dict[tuple[str, ...], str] = {}

    def note(self, text: str) -> None:
        self.notes[text] = self.notes.get(text, 0) + 1

    def record(self, op: workloads.Op, rc: int, out: str, err: str,
               raw_wall: float, raw_cpu: float, wall: float, cpu: float) -> None:
        self.raw_walls.append(raw_wall)
        self.raw_cpus.append(raw_cpu)
        self.walls.append(wall)
        self.cpus.append(cpu)
        if rc == 2 and err.startswith(("error: ", "usage: ")):
            # A typed error: the operation failed, the program did not misbehave.
            self.failed += 1
            if op.fault is None:
                self.note(f"unexpected failure: {' '.join(op.argv)}: {err.strip()}")
            elif op.fault not in err:
                self.note(f"edge operation failed with another error: {err.strip()}")
            else:
                self.note(f"known fault: {op.fault}")
            return
        reason = self._check(op, rc, out)
        if reason is None and self.workload == "signoff":
            digest = hashlib.sha256(out.encode()).hexdigest()
            if self._digests.setdefault(op.argv, digest) != digest:
                reason = "a repeated call gave different output"
        if reason is not None:
            self.wrong.append(f"{' '.join(op.argv)}: {reason}")
            return
        if op.fault is not None:
            self.note(f"edge operation succeeded: {op.fault}")
        if self.workload in ("mc", "signoff") and rc == 1:
            self.note("a sample passed |z| = 4 and was flagged (allowed; within the z bound)")
        self.items += op.items

    def _check(self, op: workloads.Op, rc: int, out: str) -> str | None:
        if self.workload == "signoff":
            return checks.check_signoff(op.argv, out, rc, self.floor)
        if self.workload == "mc":
            return checks.check_mc(op.argv, out, rc)
        if rc != 0:
            return f"exit code {rc}"
        return checks.check_compute(op.argv, out)

    def tail_note(self) -> str | None:
        """The highest standard percentile with at least ten samples beyond it."""
        n = len(self.walls)
        fitting = [p for p in (75, 90, 99, 99.9) if n >= 40 and n * (100 - p) / 100 >= 10]
        if not fitting:
            return None
        q = fitting[-1]
        cut = statistics.quantiles(self.walls, n=1000)[int(q * 10) - 1]
        return f"reference only: op_s_p{q:g} = {cut:.6g} s over {n} operations"


def measure(cli, rounds, first, run: Run, seconds: float, pace: Pace, tracer=None) -> None:
    """Attempt whole rounds, at least one, while the next should end within ``seconds``.

    Untraced, the pace is sampled on a timer, inside operations too; traced,
    only between operations, so that no span holds a sample.
    """
    weights = workloads.PACE_WEIGHTS[run.workload]
    start = time.perf_counter()
    batch = first
    with pace.ticking() if tracer is None else contextlib.nullcontext():
        while True:
            round_start = time.perf_counter()
            for op in batch:
                if tracer is not None:
                    pace.sample_if_due()
                with tracer.op() if tracer is not None else contextlib.nullcontext():
                    rc, out, err, wall, cpu, op_start, op_end = call(cli, op.argv, pace)
                factor = pace.factor(op_start, op_end, weights)
                run.record(op, rc, out, err, wall, cpu, wall / factor, cpu / factor)
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                return
            batch = next(rounds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    pin_to_one_cpu()
    pace = Pace()
    setup_raw, setup_times = probe_setup_seconds(args.workload, args.seed, pace) if not args.trace else ([], [])
    cli, rounds, first, floor = setup(args.workload, args.seed)
    run = Run(args.workload, floor)

    trace_dump = None
    conditions: list[str] = []
    if args.trace:
        measure(cli, rounds, first, run, args.seconds / 2.0, pace)
        untraced_p50 = statistics.median(run.walls)
        untraced_ops = len(run.walls)
        with Tracer() as tracer:
            measure(cli, rounds, next(rounds), run, args.seconds / 2.0, pace, tracer)
        traced_p50 = statistics.median(run.walls[untraced_ops:])
        metrics = tracer.metrics()
        metrics["trace.op_s_p50"] = (traced_p50, "s")
        metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
        trace_dump = tracer.dump()
        for name in tracer.absent:
            print(f"absent: {name} is not defined by the program; its metrics read 0")
    else:
        ticks = steal_ticks()
        measure(cli, rounds, first, run, args.seconds, pace)
        busy = sum(run.walls)
        raw_busy = sum(run.raw_walls)
        # A virtual machine's host can take the CPU away; that time shows in
        # the wall times but not in the CPU times.
        conditions.append(f"raw op_s_p50: {statistics.median(run.raw_walls):.6g} s; "
                          f"raw setup_s: {statistics.median(setup_raw):.6g} s")
        conditions.append(f"pace: the operations ran {raw_busy / busy:.3f} times as long as "
                          f"at the calm pace, over {len(pace.times)} samples; median ratio "
                          + ", ".join(f"{part} {r:.3f}" for part, r in pace.medians().items()))
        conditions.append(f"wall / CPU time of the operations: {raw_busy / sum(run.raw_cpus):.3f}")
        end = steal_ticks()
        if ticks and end and end[1] > ticks[1]:
            conditions.append(f"steal: {100.0 * (end[0] - ticks[0]) / (end[1] - ticks[1]):.1f} % "
                              "of the machine's CPU time during the run")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s_p50": (statistics.median(run.walls), "s"),
            "op_cpu_s_p50": (statistics.median(run.cpus), "s"),
            "items_per_s": (run.items / busy, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    attempted = len(run.walls)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={run.failed} wrong={len(run.wrong)}")
    for line in conditions:
        print(line)
    if setup_times:
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))
    tail = run.tail_note()
    if tail and not args.trace:
        print(tail)
    for text, count in sorted(run.notes.items()):
        print(f"note ({count}x): {text}")
    for reason in run.wrong[:5]:
        print(f"WRONG: {reason}")

    result = {
        "correct": not run.wrong,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, notes=run.notes, wrong=run.wrong)
    if trace_dump is not None:
        record["trace"] = trace_dump
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
