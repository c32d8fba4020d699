"""Check the yardstick's T_6 against exact decimal products, entry for entry.

    python tools/t6_reference.py

The yardstick is the paper's T_6 over one set M and one interval
X = {1..H} with s = 1, at p = 1000003 and H = #M = 1083 > p^(17/35+0.02),
M drawn as README's recipe draws it. The script builds the factor vector v
with count_vector_product, runs the T_6 through tk_experiment (the float
chain, at the default budget) and compares it with three products of
tests/oracles.py's kronecker, which multiplies through the decimal module
and no numpy FFT: v^2 = v.v, v^3 = v^2.v and v^6 = v^3.v^3. It prints the
time of each step and whether every entry is equal, and exits 1 on any
difference.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

import oracles  # noqa: E402
from fplab import energy, tkcount  # noqa: E402
from fplab.modfield import PrimeContext  # noqa: E402
from fplab.sets import initial_interval, residue_set  # noqa: E402

P, H, SEED = 1000003, 1083, 271828


def _timed(label: str, call):
    start = time.perf_counter()
    out = call()
    print(f"{label}: {time.perf_counter() - start:.2f} s", flush=True)
    return out


def main() -> int:
    ctx = PrimeContext.of(P)
    mset = residue_set(random.Random(SEED).sample(range(1, P), H), ctx)
    v = _timed("factor vector", lambda: energy.count_vector_product(
        initial_interval(H, ctx), mset, 1, ctx)).as_list()
    got = _timed("T_6 by the float chain", lambda: tkcount.tk_experiment(
        6, [(mset, 0)] * 6, H, 1, ctx).counts).as_list()
    square = _timed("v^2 by decimal", lambda: oracles.kronecker(v, v))
    cube = _timed("v^3 by decimal", lambda: oracles.kronecker(square, v))
    sixth = _timed("v^6 by decimal", lambda: oracles.kronecker(cube, cube))
    differ = sum(a != b for a, b in zip(got, sixth, strict=True))
    print(f"T_6 at p = {P}, H = #M = {H}: "
          + ("every entry equal" if not differ else f"{differ} entries differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
