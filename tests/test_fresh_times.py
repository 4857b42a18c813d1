"""``tools/fresh_times.py`` times the commands of two checkouts in fresh processes, with bytecode writing off and on."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "fresh_times.py"
LINE = r"(off|on) import base ([\d.]+) \[([\d.]+), ([\d.]+)\] new ([\d.]+) \[([\d.]+), ([\d.]+)\] [+-][\d.]+ % won [01]/1"


def test_prints_a_line_per_bytecode_setting_and_leaves_the_checkout_alone(tmp_path):
    spec = importlib.util.spec_from_file_location("fresh_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = sorted(p for p in (ROOT / "src").rglob("*") if "__pycache__" not in p.parts)
    # one pair of the shortest command keeps the run short; the tool's own runs time every command
    rows = [re.fullmatch(LINE, line) for line in tool.compare((ROOT, ROOT), 1, ["import"], tmp_path)]
    assert [row and row[1] for row in rows] == ["off", "on"]
    for row in rows:
        base, b1, b3, new, n1, n3 = map(float, row.groups()[1:])
        # one pair: each median is its quartiles, and a fresh interpreter takes some time
        assert b1 == base == b3 > 0 and n1 == new == n3 > 0
    assert sorted(p for p in (ROOT / "src").rglob("*") if "__pycache__" not in p.parts) == before
