"""The benchmark's span hooks (perfbench/spans.py) still find every function they wrap."""

from pathlib import Path

import pytest


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import spans
    return spans


def test_every_traced_name_resolves(spans):
    for name in spans.TRACED:
        owner, attr, original = spans._resolve(name)
        assert callable(original) and getattr(owner, attr) is original, name
