"""The span wrappers: installation, restoration, parentage and self time.

Run with `python3 -m pytest perfbench/tests`; the repository's default
pytest run collects only tests/, so these stay out of it.
"""

import sys

from fplab import convolve, energy, tkcount
from fplab.modfield import PrimeContext
from fplab.sets import random_subset

from perfbench.spans import TRACED, Span, Tracer, covered_ns, layer_totals, self_ns


def _bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "fplab" or name.startswith("fplab.")
            for key, value in vars(module).items() if callable(value)}


def test_wrappers_restore_originals():
    before = _bindings()
    init = PrimeContext.__init__
    tracer = Tracer()
    with tracer.installed():
        assert energy.count_vector_product is not before[("fplab.energy", "count_vector_product")]
        assert tkcount.count_vector_product is not before[("fplab.tkcount", "count_vector_product")]
        assert convolve.k_fold_count is not before[("fplab.convolve", "k_fold_count")]
        assert PrimeContext.__init__ is not init
        assert set(tracer.originals) == set(TRACED)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert PrimeContext.__init__ is init


def test_spans_nest_and_count_work():
    tracer = Tracer()
    tracer.op = "0.0"
    with tracer.installed():
        ctx = PrimeContext(101)
        factors = [(random_subset(13, 7 + i, ctx), 0) for i in range(6)]
        rep = tkcount.tk_experiment(6, factors, 13, 1, ctx)
    by_id = {s.id: s for s in tracer.spans}
    kfold = [s for s in tracer.spans if s.name == "convolve.k_fold_count"]
    assert len(kfold) == 1
    assert by_id[kfold[0].parent].name == "tkcount.tk_experiment"
    assert kfold[0].counts["moduli"] >= 1 and kfold[0].counts["transforms"] > 0
    cvp = [s for s in tracer.spans if s.name == "energy.count_vector_product"]
    assert len(cvp) == 6 and all(s.counts == {"pairs": 169} for s in cvp)
    rows = layer_totals(tracer.spans)
    assert rows["tkcount.tk_experiment"]["calls"] == 1
    assert rows["convolve.plan_convolution"]["plan.ntt"] == 1
    own = self_ns(tracer.spans)
    assert all(0 <= own[s.id] <= s.end_ns - s.start_ns for s in tracer.spans)
    assert rep.total == 169 ** 6


def test_self_time_subtracts_the_union_of_children():
    spans = [Span(1, None, "0", "a", 0, 100, None),
             Span(2, 1, "0", "b", 10, 40, None),
             Span(3, 1, "0", "b", 30, 60, None),   # overlaps its sibling
             Span(4, 1, "0", "c", 90, 120, None)]  # runs past its parent
    assert covered_ns([(10, 40), (30, 60), (90, 120)], 0, 100) == 60
    assert self_ns(spans)[1] == 40
    assert layer_totals(spans)["b"]["calls"] == 2
