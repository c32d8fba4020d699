"""Interval and residue-set objects, plus seeded random-set generation.

Intervals store (L, H) and materialize their elements lazily; residue
sets are validated, strictly increasing arrays of nonzero residues.
Random subsets come from a partial Fisher-Yates shuffle driven by
SplitMix64, a fixed 64-bit PRNG, so the same seed reproduces the same
set on every platform.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SetFileError, ZeroInIntervalError, integer, integer_array
from .modfield import PrimeContext


class SplitMix64:
    """SplitMix64 generator (Steele/Lea/Flood); the repo-wide seeded PRNG."""

    __slots__ = ("state",)

    MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, seed: int):
        self.state = integer("seed", seed) & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is negligible for n << 2^64."""
        return self.next_u64() % n


def mix_seed(seed: int, *indices: int) -> int:
    """Derive a child seed from a base seed and one or more indices."""
    rng = SplitMix64(seed)
    out = rng.next_u64()
    for idx in indices:
        out = SplitMix64(out ^ (idx & SplitMix64.MASK)).next_u64()
    return out


@dataclass(frozen=True)
class Interval:
    """The block {L+1, ..., L+H} of residues mod p; elements materialized on demand."""

    L: int
    H: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "H", integer("H", self.H, 1, self.p - 1))
        object.__setattr__(self, "L", integer("L", self.L) % self.p)

    @property
    def contains_zero(self) -> bool:
        r = (-self.L) % self.p
        return 1 <= r <= self.H

    def elements(self) -> np.ndarray:
        """All H elements, reduced mod p, in shift order."""
        return (np.arange(self.L + 1, self.L + self.H + 1, dtype=np.int64)) % self.p

    def units(self) -> np.ndarray:
        """elements(), refused when one of them is 0 mod p: the x of every map x^(-s)."""
        if self.contains_zero:
            raise ZeroInIntervalError(f"interval L={self.L}, H={self.H} covers 0 mod {self.p}")
        return self.elements()

    def __len__(self):
        return self.H


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """A subset of the nonzero residues, stored strictly increasing."""

    elems: np.ndarray
    p: int
    M: int = field(init=False)

    def __post_init__(self):
        arr = integer_array("residue set elements", self.elems)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("residue set must be a nonempty 1-d collection")
        if bool((arr <= 0).any()) or bool((arr >= self.p).any()):
            raise DomainError(f"residue set elements must lie in 1..{self.p - 1}")
        if bool((np.diff(arr) <= 0).any()):
            raise DomainError("residue set elements must be strictly increasing")
        object.__setattr__(self, "elems", arr)
        object.__setattr__(self, "M", int(arr.size))

    def __len__(self):
        return self.M


def require_modulus(ctx: PrimeContext, *items: Interval | ResidueSet) -> None:
    """DomainError unless every interval and set is taken mod ctx.p."""
    if any(item.p != ctx.p for item in items):
        raise DomainError("interval/set modulus does not match context")


def initial_interval(H: int, ctx: PrimeContext) -> Interval:
    """The interval {1, ..., H}."""
    return Interval(0, H, ctx.p)


def shifted_interval(L: int, H: int, ctx: PrimeContext) -> Interval:
    """The interval {L+1, ..., L+H} mod p, which may cover 0.

    Every map with x in a denominator reads it through Interval.units,
    which refuses an interval through 0.
    """
    return Interval(L, H, ctx.p)


def residue_set(values, ctx: PrimeContext) -> ResidueSet:
    """A ResidueSet from already-reduced, distinct values (sorted here)."""
    return ResidueSet(np.sort(list(values)), ctx.p)


def random_subset(M: int, seed: int, ctx: PrimeContext) -> ResidueSet:
    """A uniform M-subset of {1, ..., p-1}, deterministic in the seed.

    Partial Fisher-Yates over the implicit index range, with swaps kept
    in a dict so only O(M) state is touched.
    """
    n = ctx.p - 1
    M = integer("M", M, 1, n)
    rng = SplitMix64(seed)
    swapped: dict[int, int] = {}
    picks = np.empty(M, dtype=np.int64)
    for i in range(M):
        j = i + rng.below(n - i)
        picks[i] = swapped.get(j, j + 1)  # implicit array value at j is j+1
        swapped[j] = swapped.get(i, i + 1)
    picks.sort()
    return ResidueSet(picks, ctx.p)


def set_from_file(path: str | os.PathLike, ctx: PrimeContext) -> ResidueSet:
    """Parse a set file: one decimal residue per line, '#' comments ignored.

    Residues must already be reduced to 1..p-1; anything else is rejected
    with its line number. Duplicates are merged. A path that is neither a
    str nor an os.PathLike (an integer file descriptor among them) is a
    DomainError.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise DomainError(f"set file path must be a str or os.PathLike, got {path!r}")
    values = set()
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise SetFileError(f"not a decimal integer: {line!r}", lineno) from None
            if v == 0:
                raise SetFileError("0 is not a unit mod p", lineno)
            if not 1 <= v <= ctx.p - 1:
                raise SetFileError(f"residue {v} not reduced to 1..{ctx.p - 1}", lineno)
            values.add(v)
    if not values:
        raise SetFileError("file holds no residues", 0)
    return residue_set(values, ctx)
