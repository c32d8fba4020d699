"""Exact modular arithmetic for a fixed odd prime p.

Provides deterministic primality testing, primitive roots, dense
discrete-log tables, modular exponentiation and batched inversion.
Everything here is exact integer arithmetic; PrimeContext is immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, DomainError, integer, integer_array

# Witness set proving primality for all n < 3.3 * 10^24 (covers 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Every route holds an int64 or complex array of length about p (16 GiB at
# 2^31), so no larger p can run at desk scale; below 2^31 every product of
# two residues also stays below 2^62 in uint64.
MAX_PRIME = 1 << 31
# Dense dlog tables only below this; above, the 4-byte-per-entry table
# no longer fits desk-scale memory and no spectra kernel needs it.
MAX_DLOG_PRIME = 1 << 26

_DLOG_UNSET = np.uint32(0xFFFFFFFF)

# Contexts kept by PrimeContext.of. A sweep visits its primes in order, so
# a few suffice; each one may hold a 4p-byte dlog table.
CONTEXT_CACHE_SIZE = 8


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n < 2^31 keeps this instant)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def find_primitive_root(p: int) -> int:
    """Smallest g >= 2 generating the full multiplicative group mod p."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 2:
        return 1
    qs = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ConsistencyError(f"no primitive root found for p={p}")  # unreachable for prime p


def power_table(base: int, n: int, m: int) -> np.ndarray:
    """base^0, ..., base^(n-1) mod m as uint64, for n >= 1 and m < 2^32.

    Vectorised doubling: the first `size` powers times base^size give the
    next `size`, so the table takes log2(n) array products.
    """
    pows = np.empty(n, dtype=np.uint64)
    pows[0] = 1
    size = 1
    while size < n:
        step = min(size, n - size)
        pows[size:size + step] = pows[:step] * np.uint64(pow(base, size, m)) % np.uint64(m)
        size += step
    return pows


def build_dlog_table(p: int, g: int) -> np.ndarray:
    """Dense discrete-log table: table[u] = k with g^k = u (mod p), u in 1..p-1.

    Built in O(p) by iterating powers of g; slot 0 is a sentinel.
    Raises ConsistencyError when g is not primitive (table would not be
    a bijection onto 0..p-2).
    """
    if p > MAX_DLOG_PRIME:
        raise DomainError(f"dense dlog table capped at p <= 2^26, got p={p}")
    n = p - 1
    table = np.full(p, _DLOG_UNSET, dtype=np.uint32)
    table[power_table(g, n, p)] = np.arange(n, dtype=np.uint32)
    if bool((table[1:] == _DLOG_UNSET).any()):
        raise ConsistencyError(f"g={g} is not a primitive root mod {p}: dlog table not bijective")
    return table


class PrimeContext:
    """The ambient prime field: p, its smallest primitive root, and lazy tables.

    Immutable after construction; the lazy tables are built once on first
    use (idempotent, so concurrent first access is harmless). Share contexts
    through `PrimeContext.of(p)`.
    """

    __slots__ = ("p", "g", "_dlog")

    def __init__(self, p: int):
        p = integer("p", p)
        if p < 3 or not is_prime(p):
            raise DomainError(f"p={p} is not an odd prime")
        if p >= MAX_PRIME:
            raise DomainError(f"p={p} exceeds the supported range (< 2^31)")
        self.p = p
        self.g = find_primitive_root(p)
        self._dlog = None

    @property
    def dlog(self) -> np.ndarray:
        """table[u] = k with g^k = u (mod p); built on first use."""
        if self._dlog is None:
            self._dlog = build_dlog_table(self.p, self.g)
        return self._dlog

    def __repr__(self):
        return f"PrimeContext(p={self.p}, g={self.g})"

    @staticmethod
    @lru_cache(maxsize=CONTEXT_CACHE_SIZE)
    def of(p: int) -> PrimeContext:
        """The shared context for p; the most recently used ones stay cached."""
        return PrimeContext(p)


def mod_pow(base: int, exp: int, ctx: PrimeContext) -> int:
    """base^exp mod p; negative exp means the inverse of the positive power."""
    p = ctx.p
    base, exp = integer("base", base), integer("exp", exp)
    if not 0 <= base < p:
        raise DomainError(f"base {base} not reduced mod {p}")
    if exp < 0 and base == 0:
        raise DomainError("zero base with negative exponent has no inverse")
    return pow(base, exp, p)


def batch_inverse(values: Sequence[int] | np.ndarray, ctx: PrimeContext) -> list[int]:
    """Inverses of all values mod p, by one array exponentiation."""
    return recip_power_values(values, 1, ctx).tolist()


def recip_power_values(elements: Sequence[int] | np.ndarray, s: int,
                       ctx: PrimeContext) -> np.ndarray:
    """x^(-s) mod p for each element, as an int64 array.

    The shared kernel behind every m * x^(-s) map. Every element must be a
    unit, whatever the sign of s. Since x^(p-1) = 1, x^(-s) = x^e with
    e = -s mod (p-1); one square-and-multiply runs over the whole array,
    and every product of two residues stays below p^2 < 2^62 in uint64.
    """
    s = integer("s", s)
    if s == 0:
        raise DomainError("exponent s must be nonzero")
    p = ctx.p
    x = (integer_array("elements", elements) % p).astype(np.uint64)
    zeros = np.flatnonzero(x == 0)
    if zeros.size:
        raise DomainError(f"value at index {zeros[0]} is zero mod {p}: no inverse")
    pp = np.uint64(p)
    out = np.ones_like(x)
    e = -s % (p - 1)
    while e:
        if e & 1:
            out *= x
            out %= pp
        e >>= 1
        if e:
            x *= x
            x %= pp
    return out.astype(np.int64)
