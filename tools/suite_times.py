"""Print the wall time of each ``verify`` suite at one level, over a list of seeds, and their total.

Every suite runs in process through ``qudual.verify.run_suite``, against the
``src/`` of the checkout this script sits in, once per seed and in the order of
``SUITE_NAMES`` within each seed. Usage::

    python3 tools/suite_times.py LEVEL SEED [SEED ...]

``LEVEL`` is ``fast`` or ``full``; a seed may repeat, to take more runs of it.
Each suite prints as ``<best ms> <median ms> <suite>``, in the order of
``SUITE_NAMES``, and a last line ``<best ms> <median ms> total`` sums the
columns. Times are milliseconds of ``time.perf_counter``, with two decimals.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qudual.verify import SUITE_NAMES, run_suite  # noqa: E402


def suite_times(level: str, seeds: list[int]) -> dict[str, list[float]]:
    """The wall times in seconds of each suite, by name, one per seed."""
    times = {name: [] for name in SUITE_NAMES}
    for seed in seeds:
        for name in SUITE_NAMES:
            start = time.perf_counter()
            run_suite(name, level, seed)
            times[name].append(time.perf_counter() - start)
    return times


def main(argv: list[str]) -> None:
    if len(argv) < 2:
        sys.exit(__doc__)
    times = suite_times(argv[0], [int(seed) for seed in argv[1:]])
    best = {name: 1e3 * min(t) for name, t in times.items()}
    median = {name: 1e3 * statistics.median(t) for name, t in times.items()}
    for name in SUITE_NAMES:
        print(f"{best[name]:.2f} {median[name]:.2f} {name}")
    print(f"{sum(best.values()):.2f} {sum(median.values()):.2f} total")


if __name__ == "__main__":
    main(sys.argv[1:])
