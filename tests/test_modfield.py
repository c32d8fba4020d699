import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplab.errors import ConsistencyError, DomainError
from fplab.modfield import (PrimeContext, batch_inverse, build_dlog_table,
                            find_primitive_root, is_prime, mod_pow,
                            recip_power_values)

import oracles


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 101, 10007, 100003, 2013265921]
    composites = [1, 0, 4, 9, 91, 10005, 2147483647 + 2]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_mod_pow_examples(ctx):
    c7 = ctx(7)
    assert mod_pow(2, 3, c7) == 1
    assert mod_pow(5, -1, c7) == 3
    assert mod_pow(3, -2, c7) == 4  # brute force: 9y = 1 mod 7 at y = 4
    with pytest.raises(DomainError):
        mod_pow(0, -1, c7)
    with pytest.raises(DomainError):
        mod_pow(7, 2, c7)


def test_batch_inverse_examples(ctx):
    assert batch_inverse([1, 2, 3], ctx(7)) == [1, 4, 5]
    assert batch_inverse([1], ctx(5)) == [1]
    with pytest.raises(DomainError, match="index 0"):
        batch_inverse([0, 1], ctx(5))
    assert batch_inverse([], ctx(5)) == []


def test_batch_inverse_matches_mod_pow(ctx):
    c = ctx(10007)
    rng = np.random.default_rng(7)
    vals = rng.integers(1, 10007, size=1000).tolist()
    inv = batch_inverse(vals, c)
    assert inv == [mod_pow(v, -1, c) for v in vals]


def test_find_primitive_root_examples():
    assert find_primitive_root(7) == 3
    assert find_primitive_root(5) == 2
    assert find_primitive_root(3) == 2


@pytest.mark.parametrize("p", [3, 5, 7, 101, 257, 1009, 9973])
def test_primitive_root_generates_full_orbit(p):
    g = find_primitive_root(p)
    seen = set()
    acc = 1
    for _ in range(p - 1):
        seen.add(acc)
        acc = acc * g % p
    assert seen == set(range(1, p))


def test_dlog_table_examples():
    t5 = build_dlog_table(5, 2)
    assert [t5[1], t5[2], t5[4], t5[3]] == [0, 1, 2, 3]
    t3 = build_dlog_table(3, 2)
    assert t3[1] == 0 and t3[2] == 1


def test_dlog_table_rejects_non_primitive():
    with pytest.raises(ConsistencyError):
        build_dlog_table(7, 2)  # 2 has order 3 mod 7


@pytest.mark.parametrize("p", [101, 10007])
def test_dlog_is_bijective_and_consistent(p):
    c = PrimeContext(p)
    table = c.dlog
    assert sorted(int(table[u]) for u in range(1, p)) == list(range(p - 1))
    for u in (1, 2, p - 1, p // 2):
        assert pow(c.g, int(table[u]), p) == u
    assert table[1] == 0


@given(st.integers(1, 100), st.integers(1, 100))
@settings(max_examples=60, deadline=None)
def test_dlog_homomorphism(u, v):
    p = 101
    c = PrimeContext.of(101)
    lhs = int(c.dlog[u * v % p])
    rhs = (int(c.dlog[u]) + int(c.dlog[v])) % (p - 1)
    assert lhs == rhs


def test_recip_power_values_matches_oracle(ctx):
    c = ctx(31)
    elems = list(range(1, 20))
    for s in (-3, -1, 1, 2, 5, 30, -30, 47, -47, 95):
        got = recip_power_values(elems, s, c).tolist()
        assert got == oracles.recip_values(elems, s, 31)
    assert recip_power_values(elems, 30, c).tolist() == [1] * 19
    with pytest.raises(DomainError):
        recip_power_values(elems, 0, c)
    for s in (2, -2):
        with pytest.raises(DomainError, match="index 3"):
            recip_power_values([1, 2, 3, 31, 5], s, c)
    p = 1000003
    big = PrimeContext.of(p)
    sample = np.random.default_rng(11).integers(1, p, size=2000).tolist()
    for s in (1, 3, -2, p + 4, -(p - 1)):
        assert recip_power_values(sample, s, big).tolist() == [pow(x, -s, p) for x in sample]


def test_context_validation():
    with pytest.raises(DomainError):
        PrimeContext(6)
    with pytest.raises(DomainError):
        PrimeContext(2)
    big = PrimeContext(2013265921)  # fine: context without dlog
    assert big.g == 31
    assert PrimeContext.of(101) is PrimeContext.of(101)
