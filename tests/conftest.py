import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` rebinds ``owner.<name>`` wherever qudual holds it; returns the list of calls."""

    def count(owner, name):
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "qudual" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    return count


@pytest.fixture
def numpy_reads(monkeypatch):
    """The names qudual reads off NumPy from here on, in order: each loaded module's ``np`` records and forwards."""
    reads = []

    class Recorder:
        def __getattr__(self, name):
            reads.append(name)
            return getattr(np, name)

    recorder = Recorder()
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qudual" and getattr(module, "np", None) is np:
            monkeypatch.setattr(module, "np", recorder)
    return reads


@pytest.fixture
def output_digests(monkeypatch):
    """``(tool, pinned)``: ``tools/output_digest.py`` as a module, and the lines of ``tools/output_digests.txt`` by argument vector."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("output_digest", root / "tools" / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    pinned = {line.split("  ", 2)[2]: line for line in (root / "tools" / "output_digests.txt").read_text().splitlines()}
    monkeypatch.delenv("QUDUAL_SEED", raising=False)
    # calls() reads the benchmark's seeded compute stream
    monkeypatch.syspath_prepend(str(root))
    return tool, pinned
