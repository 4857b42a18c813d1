import sys

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
