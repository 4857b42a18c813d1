"""Every script in ``demos/`` prints exactly its pinned output in ``tests/golden/``."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_output():
    assert [d.stem for d in DEMOS] == sorted(
        p.stem.removeprefix("demo_") for p in (ROOT / "tests" / "golden").glob("demo_*.txt")
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_unchanged(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / f"demo_{demo.stem}.txt").read_text()
