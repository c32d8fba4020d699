"""Brute-force reference implementations, kept deliberately dumb.

Everything here enumerates tuples directly (or combines two enumerated
halves with a plain dict walk) and never touches the package's fast
kernels, so oracle/kernel agreement is a genuine differential test.
"""

import cmath
import decimal
from fractions import Fraction
from itertools import product


def inverse(x, p):
    # extended Euclid, independent of the package's pow-based route
    a, b = x % p, p
    u0, u1 = 1, 0
    while b:
        q = a // b
        a, b = b, a - q * b
        u0, u1 = u1, u0 - q * u1
    assert a == 1
    return u0 % p


def power(x, e, p):
    if e < 0:
        return power(inverse(x, p), -e, p)
    out = 1
    for _ in range(e):
        out = out * x % p
    return out


def recip_values(x_elems, s, p):
    return [power(x, -s, p) for x in x_elems]


def product_set_size(h_elems, m_elems, p):
    return len({h * m % p for h in h_elems for m in m_elems})


def ratio_set_size(h_elems, m_elems, p):
    return len({m * inverse(h, p) % p for h in h_elems for m in m_elems})


def count_vector(x_elems, m_elems, s, p):
    counts = [0] * p
    for x in x_elems:
        v = power(x, -s, p)
        for m in m_elems:
            counts[m * v % p] += 1
    return counts


def energy_J(h_elems, m_elems, p):
    hits = 0
    for h1, m1, h2, m2 in product(h_elems, m_elems, h_elems, m_elems):
        if h1 * m1 % p == h2 * m2 % p:
            hits += 1
    return hits


def energy_Js(x_elems, m_elems, s, p):
    vals = recip_values(x_elems, s, p)
    hits = 0
    for v1, m1, v2, m2 in product(vals, m_elems, vals, m_elems):
        if m1 * v1 % p == m2 * v2 % p:
            hits += 1
    return hits


def triple_R(j_len, k_len, m_elems, p):
    triples = [j * k * m % p
               for j in range(1, j_len + 1)
               for k in range(1, k_len + 1)
               for m in m_elems]
    return sum(1 for a in triples for b in triples if a == b)


def triple_counts(j_len, k_len, m_elems, p):
    counts = [0] * p
    for j in range(1, j_len + 1):
        for k in range(1, k_len + 1):
            for m in m_elems:
                counts[j * k * m % p] += 1
    return counts


def recip_energy(x_elems, s, ell, p):
    vals = recip_values(x_elems, s, p)
    sums = {}
    for tup in product(vals, repeat=ell):
        lam = sum(tup) % p
        sums[lam] = sums.get(lam, 0) + 1
    return sum(c * c for c in sums.values())


def tk_counts(factor_values, p):
    """T_k for explicit per-factor value lists, via a 3+3-style split.

    Each half is enumerated tuple by tuple; the halves are then combined
    with a quadratic dict walk. Only Python ints and dicts.
    """
    k = len(factor_values)
    half = k // 2

    def enumerate_half(lists):
        dist = {}
        for tup in product(*lists):
            lam = sum(tup) % p
            dist[lam] = dist.get(lam, 0) + 1
        return dist

    left = enumerate_half(factor_values[:half])
    right = enumerate_half(factor_values[half:])
    out = [0] * p
    for mu, cl in left.items():
        for nu, cr in right.items():
            out[(mu + nu) % p] += cl * cr
    return out


def factor_values(m_elems, x_elems, s, p):
    """All H*M values m * x^(-s), one per (m, x) pair."""
    vals = recip_values(x_elems, s, p)
    return [m * v % p for m in m_elems for v in vals]


def cyclic_convolve(u, v, p):
    out = [0] * p
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[(i + j) % p] += a * b
    return out


def kronecker(x, y):
    """The cyclic product of two nonnegative integer vectors of one length n, by one decimal product.

    Kronecker substitution: each vector is packed into one integer, d
    decimal digits per entry, highest index first, and the two are
    multiplied exactly by the decimal module (libmpdec), with no numpy
    FFT. d is the digit count of a proved bound on every entry of the
    linear product, min(sum(x) max(y), max(x) sum(y)), so no slot carries
    into the next. The linear product is read back slot by slot and
    folded onto Z_n.
    """
    x, y = [int(v) for v in x], [int(v) for v in y]
    n = len(x)
    assert len(y) == n and min(x + y) >= 0
    d = len(str(min(sum(x) * max(y), max(x) * sum(y))))
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact, decimal.Rounded])
    packed = [decimal.Decimal("".join(str(v).zfill(d) for v in reversed(u))) for u in (x, y)]
    digits = str(exact.multiply(*packed)).zfill((2 * n - 1) * d)
    out = [0] * n
    for k, i in enumerate(range(len(digits) - d, -1, -d)):
        out[k % n] += int(digits[i:i + d])
    return out


def dft(u):
    n = len(u)
    return [sum(u[lam] * cmath.exp(2j * cmath.pi * ((c * lam) % n) / n)
                for lam in range(n))
            for c in range(n)]


def complete_sum(x_elems, s, c, p):
    return sum(cmath.exp(2j * cmath.pi * (c * power(x, -s, p) % p) / p)
               for x in x_elems)


def discrete_log(u, g, p):
    acc = 1
    for k in range(p - 1):
        if acc == u:
            return k
        acc = acc * g % p
    raise AssertionError(f"{g} does not generate {u} mod {p}")


def char_sum(u_elems, t, g, p):
    return sum(cmath.exp(2j * cmath.pi * (t * discrete_log(u, g, p) % (p - 1)) / (p - 1))
               for u in u_elems)


def dev_stats(t_values, mass, p, sample_lambdas):
    # max/mean of |t*p/mass - 1| and the sampled signed deviations, one t at a time
    nums = [abs(t * p - mass) for t in t_values]
    return (float(Fraction(max(nums), mass)), float(Fraction(sum(nums), mass * p)),
            {lam: float(Fraction(t_values[lam] * p - mass, mass)) for lam in sample_lambdas})
