import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.errors import BudgetError, DomainError
from fplab.modfield import PrimeContext
from fplab.prodset import product_set, ratio_set
from fplab.sets import initial_interval, random_subset, residue_set, shifted_interval

import oracles

_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_product_set_examples(ctx):
    c7 = ctx(7)
    rep = product_set(initial_interval(2, c7), residue_set([1, 3], c7), c7)
    assert rep.size == 4 and rep.missing == 3

    rep = product_set(initial_interval(6, c7), residue_set([1], c7), c7)
    assert rep.size == 6 and rep.missing == 1

    c5 = ctx(5)
    rep = product_set(initial_interval(1, c5), residue_set([2], c5), c5)
    assert rep.size == 1


def test_ratio_set_examples(ctx):
    c7 = ctx(7)
    rep = ratio_set(initial_interval(2, c7), residue_set([1, 3], c7), c7)
    assert rep.size == 4  # ratios {1, 3, 4, 5}

    rep = ratio_set(initial_interval(1, c7), residue_set([2, 4, 6], c7), c7)
    assert rep.size == 3  # division by 1


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_matches_hash_set_oracle(data):
    p = data.draw(st.sampled_from(_PRIMES))
    c = PrimeContext.of(p)
    H = data.draw(st.integers(1, p - 1))
    m_elems = sorted(data.draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=p - 1)))
    mset = residue_set(m_elems, c)
    iv = initial_interval(H, c)
    rep = product_set(iv, mset, c)
    assert rep.size == oracles.product_set_size(range(1, H + 1), m_elems, p)
    rep2 = ratio_set(iv, mset, c)
    assert rep2.size == oracles.ratio_set_size(range(1, H + 1), m_elems, p)
    # size bounds
    assert max(H, mset.M) <= rep.size <= min(p, H * mset.M)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_dilation_invariance(data):
    p = data.draw(st.sampled_from([11, 13, 17]))
    c = PrimeContext.of(p)
    H = data.draw(st.integers(1, p - 1))
    m_elems = sorted(data.draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=6)))
    scale = data.draw(st.integers(1, p - 1))
    base = product_set(initial_interval(H, c), residue_set(m_elems, c), c).size
    scaled_m = residue_set(sorted(scale * m % p for m in m_elems), c)
    assert product_set(initial_interval(H, c), scaled_m, c).size == base


def test_hypothesis_branches(ctx):
    # p=10007: H = ceil(p^(2/3)) = 465, M = 100 -> branch A at eps = 0.05
    c = ctx(10007)
    mset = random_subset(100, 5, c)
    rep = product_set(initial_interval(465, c), mset, c, epsilon=0.05)
    assert rep.hypothesis_branch == "A"
    # small H and M: neither condition
    rep = product_set(initial_interval(4, c), random_subset(4, 5, c), c)
    assert rep.hypothesis_branch == "none"
    # H below p^(2/3), M above p^(1/3), H*M^(1/4) large -> branch B
    rep = product_set(initial_interval(400, c), random_subset(3000, 5, c), c,
                      epsilon=0.01)
    assert rep.hypothesis_branch == "B"


def test_matches_oracle_at_moderate_size(ctx):
    c = ctx(1009)
    mset = random_subset(100, 21, c)
    rep = product_set(initial_interval(50, c), mset, c)
    assert rep.size == oracles.product_set_size(range(1, 51),
                                                mset.elems.tolist(), 1009)


def test_budget_refusal(ctx):
    c = ctx(101)
    with pytest.raises(BudgetError) as exc:
        product_set(initial_interval(100, c), random_subset(50, 1, c), c, budget=100)
    assert exc.value.required == 5000
    with pytest.raises(BudgetError):
        ratio_set(initial_interval(100, c), random_subset(50, 1, c), c, budget=100)


def test_ratio_set_needs_safe_interval(ctx):
    c = ctx(11)
    from fplab.sets import shifted_interval
    unsafe = shifted_interval(9, 3, c)
    with pytest.raises(DomainError):
        ratio_set(unsafe, residue_set([1], c), c)


def test_product_set_with_zero_in_interval(ctx):
    c = ctx(101)
    mset = random_subset(7, 3, c)
    for L, H in [(95, 10), (100, 1), (100, 30), (50, 100)]:
        iv = shifted_interval(L, H, c)
        assert iv.contains_zero
        rep = product_set(iv, mset, c)
        assert rep.size == oracles.product_set_size(iv.elements().tolist(),
                                                    mset.elems.tolist(), 101)
