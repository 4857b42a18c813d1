"""Run-to-run spread of the end-to-end metrics, for one or two sets of runs.

    python3 benchmark/spread.py --workload compute --seeds 1-10
    python3 benchmark/spread.py --workload compute --seeds 1-10 --against 11-20

Runs ``run.py`` once per seed, one run at a time, for the run length that
BENCHMARK.json names, and prints for every end-to-end metric the median and
the distance between the first and third quartiles as a share of the median,
with the share of failed operations. The bounds in BENCHMARK.json are what a
steady metric's spread must stay under. The raw (unpaced) ``op_s_p50`` and
``setup_s`` that each run prints as notes are summed up the same way, to
show what pacing takes out.

With ``--against`` it runs a second set, alternating a run of each set so
that both meet the same drift of the machine's speed, and prints how far
the second set's median moved from the first's.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import chain, zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"seed {seed}: outputs were wrong")
    conditions = [line for line in proc.stdout.splitlines()
                  if line.startswith(("raw op_s_p50", "pace:", "wall / CPU", "steal:"))]
    raw = re.match(r"raw op_s_p50: (\S+) s; raw setup_s: (\S+) s", conditions[0])
    result["metrics"]["raw op_s_p50"] = {"value": float(raw[1])}
    result["metrics"]["raw setup_s"] = {"value": float(raw[2])}
    print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if " " not in k)
          + "".join(f"\n    {line}" for line in conditions), flush=True)
    return result


def summary(results: list[dict]) -> dict[str, tuple[float, float]]:
    """Median and quartile spread of every metric."""
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        out[name] = (med, (q3 - q1) / med)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", help="seeds of a second set, run alternately with the first")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = [parse_seeds(args.seeds)] + ([parse_seeds(args.against)] if args.against else [])
    results: dict[int, dict] = {}
    for seed in chain.from_iterable(zip_longest(*sets)):
        if seed is not None:
            results[seed] = run_once(args.workload, seed, seconds)

    for label, seeds in zip("AB", sets):
        shares = sorted({str(Fraction(results[s]["failed"], results[s]["attempted"])) for s in seeds})
        print(f"\nset {label}: {args.workload}, {len(seeds)} runs of {seconds} s, seeds {seeds[0]}-{seeds[-1]}, "
              f"failed share{'s' if len(shares) > 1 else ''} {shares}")
    stats = [summary([results[s] for s in seeds]) for seeds in sets]
    head = f"{'metric':<14} {'median A':>12} {'spread A':>9}"
    if len(stats) == 2:
        head += f" {'median B':>12} {'spread B':>9} {'B vs A':>8}"
    print(head + f" {'bound':>6}")
    for name, (med, spread) in stats[0].items():
        line = f"{name:<14} {med:>12.6g} {spread:>9.4f}"
        if len(stats) == 2:
            med_b, spread_b = stats[1][name]
            line += f" {med_b:>12.6g} {spread_b:>9.4f} {(med_b - med) / med:>+8.4f}"
        print(line + f" {bounds.get(name, '-'):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
