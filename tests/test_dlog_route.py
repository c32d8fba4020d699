"""Product problems through dlogs over Z_{p-1}: the transform route and the domain cap."""

import tracemalloc

import pytest

from fplab import convolve
from fplab.energy import count_vector_product, energy_J, triple_R
from fplab.errors import BudgetError, DomainError
from fplab.modfield import PrimeContext
from fplab.prodset import product_set, ratio_set
from fplab.sets import initial_interval, random_subset

import oracles


@pytest.fixture
def strategies(monkeypatch):
    """Strategies of every convolution planned while the test runs."""
    seen = []
    plan = convolve.plan_convolution

    def spy(*args, **kwargs):
        result = plan(*args, **kwargs)
        seen.append(result.strategy)
        return result

    monkeypatch.setattr(convolve, "plan_convolution", spy)
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
    tracemalloc.start()
    try:
        for call in (lambda: product_set(iv, mset, c, budget=10**6),
                     lambda: energy_J(iv, mset, c, budget=10**6),
                     lambda: triple_R(40_000, 40_000, mset, c, budget=10**6)):
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
