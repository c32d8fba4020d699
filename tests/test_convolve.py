import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.convolve import (ConvolutionPlan, cyclic_convolve, k_fold_count,
                            length_p_transform, plan_convolution,
                            _select_ntt_moduli)
from fplab.countvec import CountVector
from fplab.errors import BudgetError, ConsistencyError
from fplab.modfield import is_prime

import oracles


def _cv(values):
    return CountVector(np.asarray(values, dtype=np.int64))


def test_identity_element():
    delta = _cv([1, 0, 0, 0, 0])
    v = _cv([3, 1, 4, 1, 5])
    assert cyclic_convolve(delta, v).as_list() == v.as_list()


def test_tiny_example():
    u = _cv([0, 1, 1])
    assert cyclic_convolve(u, u).as_list() == [2, 1, 1]


def test_mass_multiplies():
    u = _cv([2, 0, 5])
    v = _cv([1, 1, 1])
    w = cyclic_convolve(u, v)
    assert w.total == u.total * v.total


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_matches_schoolbook(data):
    p = data.draw(st.sampled_from([3, 5, 7, 31]))
    u = data.draw(st.lists(st.integers(0, 5), min_size=p, max_size=p))
    v = data.draw(st.lists(st.integers(0, 5), min_size=p, max_size=p))
    got = cyclic_convolve(_cv(u), _cv(v)).as_list()
    assert got == oracles.cyclic_convolve(u, v, p)


def test_kfold_matches_enumeration_small():
    # p <= 31, per-factor mass <= 16, k <= 6
    rng = np.random.default_rng(11)
    for p in (5, 17, 31):
        for k in (2, 3, 6):
            vecs = []
            values = []
            for _ in range(k):
                vals = rng.integers(1, p, size=rng.integers(2, 5)).tolist()
                counts = [0] * p
                for t in vals:
                    counts[t] += 1
                vecs.append(_cv(counts))
                values.append(vals)
            got = k_fold_count(vecs).as_list()
            assert got == oracles.tk_counts(values, p)


def test_strategies_agree_on_medium_instance():
    rng = np.random.default_rng(3)
    p = 211
    vecs = [_cv(rng.integers(0, 3, size=p)) for _ in range(3)]
    auto = plan_convolution(p, [v.total for v in vecs])
    assert auto.strategy == "float"
    ntt_plan = ConvolutionPlan(p, "ntt", auto.bound, auto.lin_length,
                               auto.fft_length,
                               _select_ntt_moduli(auto.bound, auto.fft_length))
    a = k_fold_count(vecs, auto)
    b = k_fold_count(vecs, ntt_plan)
    assert a.as_list() == b.as_list()


def test_strategy_escalation_and_logging(caplog):
    # bound above 2^40 must route to the exact multi-modulus path
    masses = [1 << 15] * 3
    with caplog.at_level(logging.INFO, logger="fplab.convolve"):
        plan = plan_convolution(1009, masses)
    assert plan.strategy == "ntt"
    assert len(plan.moduli) >= 2
    assert any("escalating" in r.message for r in caplog.records)
    # few support pairs: the pair route undercuts any transform
    small = plan_convolution(1009, [4, 4])
    assert small.strategy == "direct"
    # full supports: 1922 pairs cost more than four length-128 transforms
    tiny = plan_convolution(31, [1000, 1000, 1000])
    assert tiny.strategy == "float"
    dense = plan_convolution(1009, [600, 600])
    assert dense.strategy == "float"


def test_ntt_pool_is_sound():
    for q in _select_ntt_moduli(1 << 120, 1 << 24):
        assert is_prime(q)
        assert (q - 1) % (1 << 24) == 0


def test_plan_refusals():
    plan = plan_convolution(101, [4, 4])
    big = _cv([100] * 101)
    with pytest.raises(BudgetError, match="required strategy"):
        k_fold_count([big, big], plan)
    with pytest.raises(BudgetError):
        plan_convolution(101, [10, 10], budget=1)
    with pytest.raises(BudgetError):
        _select_ntt_moduli(1 << 500, 1 << 20)


def test_float_route_near_its_bound_matches_ntt():
    # concentrated factors: two entries carry almost all of the mass, so
    # single output coefficients reach a sixteenth of a bound just under 2^40
    p = 1009
    for k, big in ((2, (1 << 19) - 4), (3, 1 << 12)):
        vecs = []
        for f in range(k):
            counts = np.zeros(p, dtype=np.int64)
            counts[[3 + f, 500 + 7 * f]] = [big, big - 5 - f]
            counts[[11, 600 + f, 1000]] += [1, 2, 3]
            vecs.append(_cv(counts))
        auto = plan_convolution(p, [v.total for v in vecs])
        assert auto.strategy == "float"
        assert auto.bound < 1 << 40 <= 4 * auto.bound
        ntt_plan = ConvolutionPlan(p, "ntt", auto.bound, auto.lin_length,
                                   auto.fft_length,
                                   _select_ntt_moduli(auto.bound, auto.fft_length))
        got = k_fold_count(vecs, auto)
        assert got.as_list() == k_fold_count(vecs, ntt_plan).as_list()
        assert max(got.as_list()) >= auto.bound >> 4


def test_float_route_certificate_rejects_uncertified_plans():
    # a float plan forged for coefficients near 2^51 must fail its residual check
    p = 211
    rng = np.random.default_rng(5)
    vecs = [_cv(rng.integers(1 << 21, 1 << 22, size=p)) for _ in range(2)]
    bound = vecs[0].total * vecs[1].total
    forged = ConvolutionPlan(p, "float", bound, 2 * p - 1, 512)
    with pytest.raises(ConsistencyError, match="residual"):
        k_fold_count(vecs, forged)


def test_exact_route_with_huge_counts():
    # coefficients far beyond 2^63 stay exact
    p = 67
    u = _cv([1 << 20] * p)
    w = k_fold_count([u] * 3)
    assert w.total == u.total ** 3
    # every entry equals (2^20)^3 * 67^2 by symmetry
    expect = (1 << 60) * 67 * 67
    assert all(v == expect for v in w.as_list())


def test_transform_examples():
    delta = np.zeros(11)
    delta[0] = 1.0
    out = length_p_transform(delta)
    assert np.allclose(out, np.ones(11), atol=1e-12)

    rng = np.random.default_rng(0)
    u = rng.integers(0, 2, size=101).astype(float)
    f = length_p_transform(u)
    assert abs(f[0] - u.sum()) < 1e-9


def test_transform_round_trip():
    rng = np.random.default_rng(1)
    u = rng.integers(0, 2, size=101).astype(float)
    f = length_p_transform(u)
    back = np.conj(length_p_transform(np.conj(f)))
    assert np.abs(back - 101 * u).max() < 1e-6


@pytest.mark.parametrize("n", [31, 127, 131, 211, 1009])
def test_transform_matches_direct_dft(n):
    rng = np.random.default_rng(n)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = length_p_transform(u)
    expect = np.asarray(oracles.dft(u.tolist()))
    assert np.abs(got - expect).max() < 1e-6
