"""The benchmark's span hooks (perfbench/spans.py) still find every function they wrap."""

from pathlib import Path

import numpy as np
import pytest

from fplab import convolve
from fplab.countvec import CountVector


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import spans
    return spans


def test_every_traced_name_resolves(spans):
    for name in spans.TRACED:
        owner, attr, original = spans._resolve(name)
        assert callable(original) and getattr(owner, attr) is original, name


def test_traced_kfold_counts_its_transforms(spans):
    # the span counter reads a k_fold_count call's arguments: the factors
    # first, everything else by keyword
    u = CountVector(np.random.default_rng(0).integers(0, 3, size=1009))
    tracer = spans.Tracer()
    with tracer.installed():
        convolve.k_fold_count([u, u], budget=10**9)
    (span,) = [s for s in tracer.spans if s.name == "convolve.k_fold_count"]
    assert span.counts["transforms"] > 0
