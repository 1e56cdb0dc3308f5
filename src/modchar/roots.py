"""Exact arithmetic with roots of unity.

Character values are either 0 or e(a/m) = exp(2*pi*i*a/m) with a/m a reduced
fraction in [0, 1). Storing the angle instead of a complex float keeps
products, powers, and conjugates exact: multiplication is angle addition
mod 1, so no drift accumulates over long sieves. Conversion to complex
happens once, at the edge of the numeric code, through `turns_cos_sin`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_TWO_PI = 8 * np.arctan(np.longdouble(1))
_WIDE = 1 << 62
# e(j/4), j = 0..3, with the zero signs of Python's 1, 1j, -1, -1j
_QUARTER = np.array([1, 1j, -1, -1j], dtype=np.clongdouble)


def turns_cos_sin(r, b: int):
    """cos and sin of 2 pi r/b in longdouble, for 0 <= r < b.

    r is an int or an int64 array. At a quarter turn, 4r = 0 (mod b), the
    pair is exact, so e(1/2) is -1 with no 5e-20 imaginary part. Elsewhere
    r is first taken in (-b/2, b/2], so the longdouble angle (8 atan(1))
    (r/b) has modulus at most pi and carries at most 2 pi eps error (eps
    the longdouble epsilon); cos and sin add eps. Rounded once to float64,
    e(r/b) is thus within u + (2 pi + 1) eps, about 1.01u with 80-bit
    longdouble, where the float64 angle 2 pi r/b is up to 12u off. This is
    the one place the package builds e(r/b); b <= 2^62 (larger b is first
    rounded to a numerator over 2^62, adding at most 2 pi 2^-63).
    """
    if b > _WIDE:
        r, b = (2 * r * _WIDE + b) // (2 * b), _WIDE
    g = math.gcd(b, 4)
    # 4r = 0 (mod b) exactly when step | r, and r is then r/step*turn quarters
    step, turn = b // g, 4 // g
    if isinstance(r, np.ndarray):
        r = np.where(2 * r > b, r - b, r)
        at = np.flatnonzero(r % step == 0)
        angle = _TWO_PI * (r.astype(np.longdouble) / b)
        c, s = np.cos(angle), np.sin(angle)
        j = r[at] // step * turn % 4
        c[at], s[at] = _QUARTER.real[j], _QUARTER.imag[j]
        return c, s
    if r % step == 0:
        j = r // step * turn % 4
        return _QUARTER.real[j], _QUARTER.imag[j]
    angle = _TWO_PI * (np.longdouble(r - b if 2 * r > b else r) / b)
    return np.cos(angle), np.sin(angle)


@dataclass(frozen=True)
class UnitValue:
    """Zero or an exact root of unity.

    numerator/denominator encode the angle in turns; denominator 0 is the
    reserved encoding for the value 0 (which is not on the unit circle but
    occurs as a character value at non-coprime arguments).
    """

    numerator: int
    denominator: int

    @staticmethod
    def zero() -> "UnitValue":
        return UnitValue(0, 0)

    @staticmethod
    def one() -> "UnitValue":
        return UnitValue(0, 1)

    @staticmethod
    def minus_one() -> "UnitValue":
        return UnitValue(1, 2)

    @staticmethod
    def root(a: int, m: int) -> "UnitValue":
        """e(a/m), reduced to canonical form with angle in [0, 1)."""
        if m <= 0:
            raise ValueError("root order must be positive")
        a %= m
        g = math.gcd(a, m)
        return UnitValue(a // g, m // g)

    @staticmethod
    def from_fraction(angle: Fraction) -> "UnitValue":
        fr = angle - math.floor(angle)
        return UnitValue(fr.numerator, fr.denominator)

    @property
    def is_zero(self) -> bool:
        return self.denominator == 0

    @property
    def is_one(self) -> bool:
        return self.denominator == 1

    @property
    def is_real(self) -> bool:
        return self.denominator in (0, 1, 2)

    @property
    def angle(self) -> Fraction | None:
        """Angle in turns, None for the zero value."""
        if self.is_zero:
            return None
        return Fraction(self.numerator, self.denominator)

    @property
    def order(self) -> int:
        """Multiplicative order; 0 denotes the zero value (no order)."""
        return self.denominator

    def __mul__(self, other: "UnitValue") -> "UnitValue":
        # integer angles over the lcm of the denominators, no Fraction
        b, d = self.denominator, other.denominator
        if b == 0 or d == 0:
            return UnitValue.zero()
        m = b * d // math.gcd(b, d)
        return UnitValue.root(
            self.numerator * (m // b) + other.numerator * (m // d), m)

    def __pow__(self, e: int) -> "UnitValue":
        if self.is_zero:
            if e <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return UnitValue.zero()
        return UnitValue.root(self.numerator * e, self.denominator)

    def conjugate(self) -> "UnitValue":
        if self.is_zero:
            return self
        # gcd(m - a, m) = gcd(a, m) = 1: already in lowest terms
        return UnitValue(-self.numerator % self.denominator, self.denominator)

    def to_complex(self) -> complex:
        """e(a/b) rounded once from `turns_cos_sin`, exact at quarter turns."""
        if self.is_zero:
            return 0j
        c, s = turns_cos_sin(self.numerator, self.denominator)
        return complex(float(c), float(s))

    def __complex__(self) -> complex:
        return self.to_complex()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_one:
            return "1"
        if self.denominator == 2:
            return "-1"
        return f"e({self.numerator}/{self.denominator})"
