"""Product problems through dlogs over Z_{p-1}: the transform route and the domain cap."""

import sys
import tracemalloc

import numpy as np
import pytest

from fplab import convolve
from fplab.energy import count_vector_product, energy_J, triple_R
from fplab.errors import BudgetError, DomainError
from fplab.modfield import PrimeContext
from fplab.prodset import product_set, ratio_set
from fplab.sets import initial_interval, random_subset
from fplab.tkcount import tk_experiment

import oracles


@pytest.fixture
def strategies(monkeypatch):
    """Strategies of every convolution run while the test runs."""
    seen = []
    run = convolve._run

    def spy(arrays, masses, n, plan):
        seen.append(plan.strategy)
        return run(arrays, masses, n, plan)

    monkeypatch.setattr(convolve, "_run", spy)
    return seen


def test_dense_products_take_the_float_route(ctx, strategies):
    p = 1009
    c = ctx(p)
    mset = random_subset(600, 17, c)
    m_elems = mset.elems.tolist()
    iv = initial_interval(600, c)
    h_elems = range(1, 601)

    assert product_set(iv, mset, c).size == oracles.product_set_size(h_elems, m_elems, p)
    assert strategies == ["float"]
    assert ratio_set(iv, mset, c).size == oracles.ratio_set_size(h_elems, m_elems, p)
    assert strategies[1:] == ["float"]
    expect = oracles.count_vector(h_elems, m_elems, -1, p)
    assert count_vector_product(iv, mset, -1, c).as_list() == expect
    assert energy_J(iv, mset, c) == sum(v * v for v in expect)
    assert strategies[2:] == ["float", "float"]

    del strategies[:]
    expect = oracles.triple_counts(25, 24, m_elems, p)
    assert triple_R(25, 24, mset, c) == sum(v * v for v in expect)
    assert strategies == ["direct", "float"]  # j*k first, then the set


def test_dense_products_are_charged_their_transform_work(ctx, strategies):
    # the float route at n = 1008 runs 3 transforms at 2048: 3 * 2048 * 11 =
    # 67584 units, well inside a budget below H*M = 360000
    p, budget = 1009, 100_000
    c = ctx(p)
    mset = random_subset(600, 17, c)
    m_elems = mset.elems.tolist()
    iv = initial_interval(600, c)
    h_elems = range(1, 601)
    assert product_set(iv, mset, c, budget=budget).size == \
        oracles.product_set_size(h_elems, m_elems, p)
    assert ratio_set(iv, mset, c, budget=budget).size == \
        oracles.ratio_set_size(h_elems, m_elems, p)
    expect = oracles.count_vector(h_elems, m_elems, -1, p)
    assert energy_J(iv, mset, c, budget=budget) == sum(v * v for v in expect)
    assert strategies == ["float"] * 3
    with pytest.raises(BudgetError) as exc:
        product_set(iv, mset, c, budget=3 * 2048 * 11 - 1)
    assert exc.value.required == 3 * 2048 * 11


def test_refusal_comes_before_the_dlog_table():
    c = PrimeContext(1000003)  # a fresh context: no dlog table yet
    iv, mset = initial_interval(40_000, c), random_subset(40_000, 1, c)
    # T_8 with H = #M = 300: each factor's product fits the budget, T_8 does not
    factors = [(random_subset(300, i, c), 0) for i in range(8)]
    tracemalloc.start()
    try:
        for call in (lambda: product_set(iv, mset, c, budget=10**6),
                     lambda: energy_J(iv, mset, c, budget=10**6),
                     lambda: triple_R(40_000, 40_000, mset, c, budget=10**6),
                     # j*k fits the budget, (j*k)*M does not
                     lambda: triple_R(2, 2, random_subset(1000, 5, c), c, budget=100),
                     lambda: tk_experiment(8, factors, 300, 1, c, budget=10**6)):
            with pytest.raises(BudgetError):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c._dlog is None and peak < 1 << 20  # nothing of length p was allocated


P_ABOVE_DLOG_CAP = 67108879  # the first prime above 2^26


def test_products_above_the_dlog_cap_fail_at_once():
    c = PrimeContext(P_ABOVE_DLOG_CAP)
    mset = random_subset(3, 1, c)
    iv = initial_interval(3, c)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="2\\^26"):
            product_set(iv, mset, c)
        with pytest.raises(DomainError, match="2\\^26"):
            count_vector_product(iv, mset, 1, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # nothing of length p was allocated


def test_energies_and_occupancy_skip_the_residue_gather(ctx, monkeypatch):
    # J, J_s and R are sums of squares of the dlog-order counts, a
    # permutation of the residue-order ones; product and ratio sets count
    # the support in dlog order. T_k factors keep residue order.
    from fplab import energy
    p = 1009
    c = ctx(p)
    mset = random_subset(300, 5, c)
    m_elems = mset.elems.tolist()
    iv = initial_interval(200, c)
    gathered, gather = [], energy.residue_order

    def spy(values, context):
        gathered.append(values.dtype)
        return gather(values, context)

    for module in list(sys.modules.values()):  # every module that imported the gather
        if module.__name__.startswith("fplab") and getattr(module, "residue_order", None) is gather:
            monkeypatch.setattr(module, "residue_order", spy)
    h_elems = range(1, 201)
    expect = oracles.count_vector(h_elems, m_elems, -1, p)
    shifted = oracles.count_vector(range(34, 234), m_elems, 2, p)
    assert energy.energy_J(iv, mset, c) == sum(v * v for v in expect)
    assert energy.energy_Js(33, iv, mset, 2, c) == sum(v * v for v in shifted)
    triples = oracles.triple_counts(5, 4, m_elems, p)
    assert triple_R(5, 4, mset, c) == sum(v * v for v in triples)
    assert gathered == []
    assert product_set(iv, mset, c).size == oracles.product_set_size(h_elems, m_elems, p)
    assert ratio_set(iv, mset, c).size == oracles.ratio_set_size(h_elems, m_elems, p)
    assert gathered == []
    assert count_vector_product(iv, mset, -1, c).as_list() == expect
    assert gathered == [np.dtype(np.int64)]
