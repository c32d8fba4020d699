import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fplab.countvec import CountVector
from fplab.errors import DomainError
from fplab.modfield import PrimeContext
from fplab.sets import random_subset, residue_set
from fplab.tkcount import _dev_stats, tk_experiment, tk_spectral_check

import oracles


def test_six_fold_tiny_example(ctx):
    c = ctx(3)
    ms = residue_set([1], c)
    rep = tk_experiment(6, [(ms, 0)] * 6, 2, 1, c)
    assert rep.counts.as_list() == [22, 21, 21]
    assert rep.total == 64
    assert rep.main_term == Fraction(64, 3)


def test_two_fold_singleton(ctx):
    c = ctx(7)
    ms = residue_set([1], c)
    rep = tk_experiment(2, [(ms, 0)] * 2, 1, 1, c)
    expect = [0] * 7
    expect[2] = 1  # 1/1 + 1/1 = 2
    assert rep.counts.as_list() == expect


def test_matches_enumeration_random(ctx):
    import numpy as np
    rng = np.random.default_rng(5)
    for p in (11, 23):
        c = PrimeContext.of(p)
        for k in (2, 3, 4):
            H = int(rng.integers(1, 4))
            M = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            factors = []
            value_lists = []
            for i in range(k):
                mset = random_subset(M, 100 + i, c)
                L = int(rng.integers(0, p - H))
                factors.append((mset, L))
                x_elems = [(L + j) % p for j in range(1, H + 1)]
                value_lists.append(oracles.factor_values(mset.elems.tolist(),
                                                         x_elems, s, p))
            rep = tk_experiment(k, factors, H, s, c)
            assert rep.counts.as_list() == oracles.tk_counts(value_lists, p)


def test_mass_conservation_and_zero_mean_dev(ctx):
    c = ctx(101)
    factors = [(random_subset(6, i, c), 3 * i % 60) for i in range(6)]
    rep = tk_experiment(6, factors, 8, 2, c)
    assert rep.total == (8 * 6) ** 6
    # signed deviations cancel exactly: sum T = mass
    signed = sum(Fraction(t * 101 - (8 * 6) ** 6, (8 * 6) ** 6)
                 for t in rep.counts.as_list())
    assert signed == 0


def test_shift_covariance_under_dilation(ctx):
    # scaling every factor set by c sends T(lam) to T(c^(-1) lam)
    p = 31
    c = PrimeContext.of(p)
    m_lists = [sorted(random_subset(3, 40 + i, c).elems.tolist()) for i in range(3)]
    factors = [(residue_set(m, c), 2) for m in m_lists]
    base = tk_experiment(3, factors, 4, 1, c).counts.as_list()
    scale = 11
    scaled_factors = [(residue_set(sorted(scale * m % p for m in ms), c), 2)
                      for ms in m_lists]
    scaled = tk_experiment(3, scaled_factors, 4, 1, c).counts.as_list()
    inv = pow(scale, p - 2, p)
    assert all(scaled[lam] == base[inv * lam % p] for lam in range(p))


def test_unequal_sizes_guard(ctx):
    c = ctx(11)
    a = residue_set([1, 2], c)
    b = residue_set([3], c)
    with pytest.raises(DomainError, match="unequal"):
        tk_experiment(2, [(a, 0), (b, 0)], 2, 1, c)
    rep = tk_experiment(2, [(a, 0), (b, 0)], 2, 1, c, allow_unequal=True)
    assert rep.total == (2 * 2) * (2 * 1)


def test_k_validation(ctx):
    c = ctx(11)
    ms = residue_set([1], c)
    with pytest.raises(DomainError):
        tk_experiment(1, [(ms, 0)], 2, 1, c)
    with pytest.raises(DomainError):
        tk_experiment(3, [(ms, 0)] * 2, 2, 1, c)


def test_dev_at_sampling(ctx):
    c = ctx(3)
    ms = residue_set([1], c)
    rep = tk_experiment(6, [(ms, 0)] * 6, 2, 1, c, sample_lambdas=[0, 1])
    assert rep.dev_at[0] == float(Fraction(22 * 3 - 64, 64))
    assert rep.dev_at[1] == float(Fraction(21 * 3 - 64, 64))


def test_spectral_check_small(ctx):
    c = ctx(101)
    factors = [(random_subset(8, 7 + i, c), 5) for i in range(6)]
    residuals = tk_spectral_check(6, factors, 8, 1, c, sample_lambdas=[0, 1, 50, 100])
    assert all(r < 1e-3 for r in residuals)


def test_spectral_check_two_fold_hand_case(ctx):
    c = ctx(7)
    ms = residue_set([1], c)
    residuals = tk_spectral_check(2, [(ms, 0)] * 2, 1, 1, c,
                                  sample_lambdas=list(range(7)))
    assert all(r < 1e-9 for r in residuals)


def test_hypothesis_flags(ctx):
    c = ctx(10007)
    # H = M = 159 = ceil(p^0.55): all three sufficient inequalities hold
    factors = [(random_subset(159, i, c), 0) for i in range(6)]
    rep = tk_experiment(6, factors, 159, 1, c, epsilon=0.02)
    assert rep.hyp_flags == (True, True, True)
    assert all(m > 0 for m in rep.hyp_margins)


@pytest.mark.parametrize("m, dtype", [(10, np.int64), (1 << 61, np.int64), (1 << 80, object)])
def test_dev_stats_matches_python_int_oracle(m, dtype):
    # entries on both sides of tau = m and three with t*p == mass exactly;
    # m = 2^61 puts mass*p above 2^62 and the int64 total above 2^63
    p = 7
    t_values = [m, m - 1, m + 1, m, m - 5, m + 5, m]
    cv = CountVector(t_values)
    assert cv.counts.dtype == dtype and cv.total == 7 * m
    assert _dev_stats(cv, p, [0, 1, 5]) == \
        oracles.dev_stats(t_values, cv.total, p, [0, 1, 5])
    # a mass that p does not divide: tau = ceil(mass/p) falls between entries
    p = 101
    t_values = [m + v for v in np.random.default_rng(4).integers(0, 50, size=p).tolist()]
    cv = CountVector(t_values)
    assert cv.counts.dtype == dtype and cv.total % p
    assert _dev_stats(cv, p, [3, 100]) == \
        oracles.dev_stats(t_values, cv.total, p, [3, 100])


def test_dev_stats_builds_no_full_length_object_temporary():
    # |t*p - mass| over a whole object vector would allocate about 13 MB here
    n = 100003
    rng = np.random.default_rng(3)
    cv = CountVector(np.array([v << 40 for v in rng.integers(1, 1 << 40, size=n).tolist()],
                              dtype=object))
    tracemalloc.start()
    try:
        _dev_stats(cv, n, [0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
