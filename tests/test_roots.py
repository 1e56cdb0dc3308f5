"""Exact unit-circle arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modchar.roots import UnitValue


def test_canonical_form():
    assert UnitValue.root(3, 6) == UnitValue.minus_one()
    assert UnitValue.root(6, 6) == UnitValue.one()
    assert UnitValue.root(-1, 4) == UnitValue.root(3, 4)
    assert UnitValue.from_fraction(Fraction(7, 3)) == UnitValue.root(1, 3)
    with pytest.raises(ValueError):
        UnitValue.root(1, 0)


def test_group_law_exhaustive():
    # closure and exactness of multiplication for all pairs of 12th roots
    for a in range(12):
        for b in range(12):
            u, v = UnitValue.root(a, 12), UnitValue.root(b, 12)
            assert u * v == UnitValue.root(a + b, 12)
    z = UnitValue.zero()
    assert (z * UnitValue.root(5, 12)).is_zero
    assert (UnitValue.root(5, 12) * z).is_zero


def test_powers_and_conjugates():
    w = UnitValue.root(1, 5)
    assert w ** 5 == UnitValue.one()
    assert w ** -1 == w.conjugate()
    assert w ** 0 == UnitValue.one()
    assert (w * w.conjugate()).is_one
    assert UnitValue.zero().conjugate().is_zero
    assert abs(complex(w) - cmath.exp(2j * cmath.pi / 5)) < 1e-15


_units = st.one_of(st.just(UnitValue.zero()),
                   st.builds(UnitValue.root, st.integers(-10**6, 10**6),
                             st.integers(1, 10**6)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u=_units, v=_units, e=st.integers(-50, 50))
def test_integer_angle_ops_match_fraction_formula(u, v, e):
    # products, powers and conjugates run on integer angles over the lcm of
    # the denominators; they must give exactly the canonical value that
    # reducing the Fraction angle mod 1 gives, fields and types included
    def canonical(w):
        assert type(w.numerator) is int and type(w.denominator) is int
        if not w.is_zero:
            assert 0 <= w.numerator < w.denominator
            assert math.gcd(w.numerator, w.denominator) == 1
        return w

    if u.is_zero or v.is_zero:
        assert canonical(u * v) == UnitValue.zero()
    else:
        assert canonical(u * v) == UnitValue.from_fraction(u.angle + v.angle)
    if u.is_zero:
        assert canonical(u.conjugate()) == UnitValue.zero()
        if e > 0:
            assert canonical(u ** e) == UnitValue.zero()
    else:
        assert canonical(u.conjugate()) == UnitValue.from_fraction(-u.angle)
        assert canonical(u ** e) == UnitValue.from_fraction(u.angle * e)


def test_order_and_realness():
    assert UnitValue.one().order == 1
    assert UnitValue.minus_one().order == 2
    assert UnitValue.root(2, 8).order == 4
    assert UnitValue.zero().order == 0
    assert UnitValue.minus_one().is_real
    assert not UnitValue.root(1, 3).is_real


def test_to_complex_is_rounded_once_from_the_exact_angle():
    # 20,000 seeded angles a/b, b < 2^20, against mpmath at 113 bits: each
    # value within the one-table bound of `unit_tables`, u + (2 pi + 1) eps,
    # which the float64 angle 2 pi a/b (up to about 12u off) does not meet
    import random

    import mpmath
    import numpy as np

    u, eps = 2.0 ** -53, float(np.finfo(np.longdouble).eps)
    bound = (u + (2 * math.pi + 1) * eps) * (1 + 1e-9)
    rng = random.Random(20261018)
    worst = 0.0
    with mpmath.workprec(113):
        for _ in range(20_000):
            b = rng.randrange(1, 1 << 20)
            w = UnitValue.root(rng.randrange(b), b)
            z = w.to_complex()
            ref = mpmath.expjpi(mpmath.mpf(2 * w.numerator) / w.denominator)
            worst = max(worst, float(abs(mpmath.mpc(z.real, z.imag) - ref)))
    assert worst <= bound, worst / u
