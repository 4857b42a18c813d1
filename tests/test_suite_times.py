"""``tools/suite_times.py`` prints the best and median wall time of every ``verify`` suite and their sums."""

import subprocess
import sys
from pathlib import Path

from qudual.verify import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "suite_times.py"


def test_prints_a_row_per_suite_and_the_total():
    out = subprocess.run([sys.executable, str(TOOL), "fast", "42"], capture_output=True, text=True, check=True).stdout
    rows = [line.split(" ") for line in out.splitlines()]
    assert [name for *_, name in rows] == [*SUITE_NAMES, "total"]
    times = [(float(best), float(median)) for best, median, _ in rows]
    # one seed: the best is the median; each sum is within the rounding of its two-decimal rows
    assert all(best == median > 0 for best, median in times)
    for column in (0, 1):
        assert abs(times[-1][column] - sum(t[column] for t in times[:-1])) <= 0.005 * len(SUITE_NAMES)
