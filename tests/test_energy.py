import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.countvec import CountVector
from fplab.energy import (additive_energy_recip, count_vector_product,
                          energy_J, energy_Js, recip_power_counts, residue_order,
                          triple_R)
from fplab.errors import BudgetError, DomainError, ZeroInIntervalError
from fplab.modfield import PrimeContext
from fplab.prodset import ratio_set
from fplab.sets import initial_interval, residue_set, shifted_interval

import oracles


def test_count_vector_example(ctx):
    c = ctx(7)
    x = initial_interval(3, c)
    m = residue_set([1, 2], c)
    cv = count_vector_product(x, m, 2, c)
    assert cv.as_list() == [0, 2, 2, 0, 2, 0, 0]
    assert cv.total == 6

    single = count_vector_product(initial_interval(1, c), residue_set([1], c), 1, c)
    assert single.as_list() == [0, 1, 0, 0, 0, 0, 0]


def test_residue_order_gathers_object_backing(ctx):
    # entry u of the result is the dlog-indexed entry d with g^d = u
    c = ctx(11)
    conv = CountVector(np.array([(1 << 70) + d for d in range(10)], dtype=object))
    assert conv.counts.dtype == object
    got = residue_order(conv.counts, c)
    assert got.dtype == object
    expect = [0] * 11
    for d in range(10):
        expect[pow(c.g, d, 11)] = (1 << 70) + d
    assert got.tolist() == expect


def test_count_vector_rejects_zero_in_interval(ctx):
    c = ctx(11)
    unsafe = shifted_interval(9, 3, c)
    with pytest.raises(DomainError):
        count_vector_product(unsafe, residue_set([1], c), 1, c)


def test_energy_J_examples(ctx):
    c = ctx(7)
    assert energy_J(initial_interval(1, c), residue_set([1, 3, 5], c), c) == 3
    assert energy_J(initial_interval(2, c), residue_set([1, 3], c), c) == 4
    with pytest.raises(DomainError):
        energy_J(shifted_interval(2, 2, c), residue_set([1], c), c)


def test_energy_Js_examples(ctx):
    c = ctx(7)
    iv = initial_interval(3, c)
    assert energy_Js(0, iv, residue_set([1, 2], c), 2, c) == 12


def test_triple_R_examples(ctx):
    c = ctx(7)
    m = residue_set([1, 3], c)
    assert triple_R(1, 1, m, c) == 2  # reduces to m1 = m2
    assert triple_R(2, 1, m, c) == energy_J(initial_interval(2, c), m, c) == 4


@pytest.mark.parametrize("j_len, k_len, name", [(2.5, 3, "j_len"), (3, 1.5, "k_len"),
                                                (True, 3, "j_len")])
def test_triple_R_refuses_non_integer_lengths(ctx, j_len, k_len, name):
    c = ctx(101)
    m = residue_set([1, 3], c)
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        triple_R(j_len, k_len, m, c)
    with pytest.raises(DomainError, match="j_len must lie in 1..100, got 101"):
        triple_R(101, 3, m, c)


def test_recip_energy_examples(ctx):
    c = ctx(7)
    x = initial_interval(4, c)
    # ell = 1, s = 1: inversion is injective
    assert additive_energy_recip(x, 1, 1, c) == 4
    assert additive_energy_recip(initial_interval(2, c), 1, 2, c) == 6


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_energies_match_enumeration(data):
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    c = PrimeContext.of(p)
    H = data.draw(st.integers(1, min(5, p - 1)))
    m_elems = sorted(data.draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=4)))
    s = data.draw(st.sampled_from([-2, -1, 1, 2, 3]))
    L = data.draw(st.integers(0, p - 1))
    mset = residue_set(m_elems, c)
    iv = initial_interval(H, c)

    assert energy_J(iv, mset, c) == oracles.energy_J(range(1, H + 1), m_elems, p)

    x_elems = [(L + i) % p for i in range(1, H + 1)]
    if 0 not in x_elems:
        got = energy_Js(L, iv, mset, s, c)
        assert got == oracles.energy_Js(x_elems, m_elems, s, p)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_Js_sign_symmetry_and_sliding(data):
    p = data.draw(st.sampled_from([7, 11, 13, 17]))
    c = PrimeContext.of(p)
    H = data.draw(st.integers(1, min(6, p - 2)))
    m_elems = sorted(data.draw(st.sets(st.integers(1, p - 1), min_size=1, max_size=5)))
    s = data.draw(st.integers(1, 4))
    L = data.draw(st.integers(0, p - 1 - H))  # shifts that never wrap through 0
    mset = residue_set(m_elems, c)
    iv = initial_interval(H, c)
    assert energy_Js(L, iv, mset, s, c) == energy_Js(L, iv, mset, -s, c)
    # sliding bound: J(L, H, M) <= 2 J(H, M) + M^2, with J(L,...) the product count
    j_init = energy_J(iv, mset, c)
    j_shift = energy_Js(L, iv, mset, -1, c)
    assert j_shift <= 2 * j_init + mset.M ** 2


def test_J_dilation_invariance(ctx):
    c = ctx(13)
    iv = initial_interval(4, c)
    m_elems = [1, 5, 8]
    base = energy_J(iv, residue_set(m_elems, c), c)
    for scale in (2, 7, 12):
        scaled = residue_set(sorted(scale * m % 13 for m in m_elems), c)
        assert energy_J(iv, scaled, c) == base


def test_count_vector_mass_always_total(ctx):
    c = ctx(13)
    for H in (1, 4, 12):
        for m_elems in ([1], [2, 5, 7], list(range(1, 13))):
            cv = count_vector_product(initial_interval(H, c), residue_set(m_elems, c), 3, c)
            assert cv.total == H * len(m_elems)
            assert sum(cv.as_list()) == cv.total


def test_triple_matches_enumeration(ctx):
    c = ctx(11)
    for j, k, m_elems in [(2, 3, [1, 5]), (1, 4, [2, 3, 7]), (3, 3, [1])]:
        assert triple_R(j, k, residue_set(m_elems, c), c) == \
            oracles.triple_R(j, k, m_elems, 11)


def test_recip_energy_matches_enumeration(ctx):
    c = ctx(13)
    for H, s, ell, L in [(3, 1, 2, 0), (4, 2, 2, 3), (3, 3, 3, 1), (5, 1, 1, 2)]:
        x = shifted_interval(L, H, c)
        x_elems = x.elements().tolist()
        assert additive_energy_recip(x, s, ell, c) == \
            oracles.recip_energy(x_elems, s, ell, 13)


def test_budget_refusals(ctx):
    c = ctx(101)
    big = residue_set(list(range(1, 100)), c)
    with pytest.raises(BudgetError):
        count_vector_product(initial_interval(100, c), big, 1, c, budget=10)
    with pytest.raises(BudgetError):
        triple_R(50, 50, big, c, budget=1000)


def test_count_vector_admitted_at_exact_budget(ctx):
    c = ctx(101)
    iv, mset = initial_interval(10, c), residue_set(list(range(1, 11)), c)
    assert count_vector_product(iv, mset, 1, c, budget=100).total == 100
    with pytest.raises(BudgetError) as exc:
        count_vector_product(iv, mset, 1, c, budget=99)
    assert exc.value.required == 100


def test_interval_covering_zero_is_typed(ctx):
    c = ctx(11)
    unsafe = shifted_interval(9, 3, c)
    m = residue_set([1], c)
    for call in (unsafe.units,
                 lambda: count_vector_product(unsafe, m, 1, c),
                 lambda: recip_power_counts(unsafe, 1, c),
                 lambda: ratio_set(unsafe, m, c)):
        with pytest.raises(ZeroInIntervalError):
            call()
