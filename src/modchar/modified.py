"""Completely multiplicative deformations of a Dirichlet character.

A modified character f agrees with its base character chi at every prime
outside a finite set S and takes prescribed unimodular root-of-unity values
on S. `build_modified` makes one `EulerFactor` record per p in S, once:
its order at s = 0, lead, value with the pole test, sieve shift and g_p
are read from there and nowhere else. The two integers

    sign_shift   T = sum of the orders = #{f(p) = 1} - #{chi(p) = 1}
    pole_order   N = max(0, T) for odd chi, max(0, T - 1) for even chi

control the order of the pole at s = 0 of the attached Dirichlet series and
through it the degree of polynomial growth of Riesz-smoothed partial sums.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import warnings
from dataclasses import dataclass

from .characters import Character, eval_char, factorize, is_prime, parity
from .errors import (InvalidModificationError, InvalidPrimeError,
                     NearPoleWarning, NonModificationWarning, PoleError,
                     PrimitivityError)
from .roots import UnitValue

# Distance to a pole of an Euler factor below which its value warns.
_NEAR_POLE = 1e-8


@dataclass(frozen=True)
class EulerFactor:
    """(1 - chi(p) p^-s)/(1 - f(p) p^-s) at p in S; chi(p) = 0 iff p | q."""

    p: int
    f: UnitValue
    chi: UnitValue

    @property
    def order(self) -> int:
        """Signed order at s = 0: +1 for a pole, -1 for a zero, else 0."""
        return 1 if self.f.is_one else -1 if self.chi.is_one else 0

    @property
    def group(self) -> int:
        return (3, 1, 2)[self.order]

    @property
    def label(self) -> str:
        return ("(1 - chi(p))/(1 - f(p))", "(1 - chi(p))/log p",
                "log p/(1 - f(p))")[self.order]

    @property
    def lead(self) -> complex:
        """First nonzero Taylor coefficient at 0: lim s^order * factor."""
        lp = math.log(self.p)
        if self.order == 1:
            return (1 - self.chi.to_complex()) / lp
        if self.order == -1:
            return lp / (1 - self.f.to_complex())
        return (1 - self.chi.to_complex()) / (1 - self.f.to_complex())

    def value(self, s: complex) -> complex:
        """The factor at s. PoleError (p, n) at a pole 2 pi i (a/b + n)/log p,
        f(p) = e(a/b) (exact angle); NearPoleWarning within _NEAR_POLE, at
        the line that called `euler_factor_ratio`."""
        p, lp, angle = self.p, math.log(self.p), float(self.f.angle)
        n_near = round(s.imag * lp / (2 * math.pi) - angle)
        s_pole = 2j * math.pi * (angle + n_near) / lp
        dist = abs(s - s_pole)
        den = 1 - self.f.to_complex() * cmath.exp(-s * lp)
        if den == 0 or dist <= 1e-15 * max(1.0, abs(s_pole)):
            raise PoleError(
                f"s = {s} is a pole of the factor at p = {p} (branch n = {n_near})",
                prime=p, index=n_near)
        if dist < _NEAR_POLE:
            warnings.warn(
                f"s within {dist:.2e} of the pole at p={p}, n={n_near},"
                f" location {s_pole}", NearPoleWarning, stacklevel=4)
        return (1 - self.chi.to_complex() * cmath.exp(-s * lp)) / den

    def shift(self, scale: int) -> int:
        """Angle of f(p)/chi(p) (chi(p) = 0 read as 1) over scale, mod it."""
        return int((self.f.angle - (self.chi.angle or 0)) * scale) % scale

    @property
    def g(self) -> complex:
        """g_p = f(p) - chi(p) of the smooth route."""
        return self.f.to_complex() - self.chi.to_complex()


@dataclass(frozen=True)
class ModifiedCharacter:
    """Base character plus one Euler-factor record per p in S, ascending."""

    base: Character
    factors: tuple[EulerFactor, ...]
    theory_trusted: bool = True

    @property
    def modifications(self) -> tuple[tuple[int, UnitValue], ...]:
        return tuple((e.p, e.f) for e in self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(e.p for e in self.factors)

    def value_at_prime(self, p: int) -> UnitValue:
        """f(p): the override if p is in S, else chi(p)."""
        for e in self.factors:
            if e.p == p:
                return e.f
        return eval_char(self.base, p)

    @property
    def sign_shift(self) -> int:
        """T: the sum over S of the Euler factors' orders at s = 0."""
        return sum(e.order for e in self.factors)

    @property
    def order_at_zero(self) -> int:
        """ord_0 F as a pole order, T - [chi even]: negative at a zero of F."""
        return self.sign_shift - (parity(self.base) != -1)

    @property
    def pole_order(self) -> int:
        """N = max(0, ord_0 F): the order of F's pole at s = 0, if any."""
        return max(0, self.order_at_zero)

    def descriptor(self) -> dict:
        return {
            "character": {"modulus": self.base.modulus,
                          "label": self.base.label,
                          "exponents": list(self.base.exponents)},
            "modifications": [
                {"p": p, "angle": [v.numerator, v.denominator]}
                for p, v in self.modifications],
        }

    def digest(self) -> str:
        """Short stable hash of the defining data, for report provenance."""
        blob = json.dumps(self.descriptor(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __repr__(self):
        mods = ", ".join(f"f({p})={v}" for p, v in self.modifications)
        return f"ModifiedCharacter({self.base.label}; {mods or 'no overrides'})"


def build_modified(base: Character,
                   mods: dict[int, UnitValue] | list[tuple[int, UnitValue]],
                   allow_imprimitive: bool = False) -> ModifiedCharacter:
    """Validate and canonicalize a modification set.

    Accepts {p: f(p)} or an iterable of (p, f(p)) pairs. Entries with
    f(p) = chi(p) are not modifications at all; they are dropped with a
    warning so that T and N count only genuine overrides. Composite keys
    and zero values are rejected outright. The base must be primitive
    unless allow_imprimitive is set, in which case the result is flagged so
    downstream theory (pole orders, leading coefficients) can mark its output
    untrusted.
    """
    trusted = True
    if not base.is_primitive:
        if not allow_imprimitive:
            raise PrimitivityError(
                f"base character {base.label} has conductor {base.conductor()}"
                f" < modulus {base.modulus}; theory requires a primitive base")
        trusted = False
    mods = mods.items() if isinstance(mods, dict) else mods
    seen: dict[int, EulerFactor] = {}
    for p, v in mods:
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidPrimeError(f"modification key {p!r} is not prime")
        if not isinstance(v, UnitValue) or v.is_zero:
            raise InvalidModificationError(
                f"modification at p={p} must be a root of unity, got {v!r}")
        if p in seen:
            if seen[p].f != v:
                raise InvalidModificationError(
                    f"conflicting modifications at p={p}: {seen[p].f} vs {v}")
            continue
        chi_p = eval_char(base, p)
        if chi_p == v:
            warnings.warn(
                f"f({p}) equals chi({p}); entry dropped, not a modification",
                NonModificationWarning, stacklevel=2)
            continue
        seen[p] = EulerFactor(p, v, chi_p)
    return ModifiedCharacter(base, tuple(seen[p] for p in sorted(seen)),
                             theory_trusted=trusted)


# T and N as functions of mc, also under the contract's names
compute_sign_shift = compute_T = ModifiedCharacter.sign_shift.fget
compute_pole_order = compute_N = ModifiedCharacter.pole_order.fget


def eval_f_oracle(mc: ModifiedCharacter, n: int) -> complex:
    """f(n) by trial factorization, the slow exact reference the sieve
    must agree with on every value; for n up to about 1e9 (worst case ~3e4
    trial divisions)."""
    return eval_f_exact(mc, n).to_complex()


def eval_f_exact(mc: ModifiedCharacter, n: int) -> UnitValue:
    """f(n) by trial factorization (`characters.factorize`), as an exact
    root of unity (or zero); factoring stops at the first zero factor."""
    if n < 1:
        raise ValueError("f is defined on positive integers")
    val = UnitValue.one()
    for p, e in factorize(n):
        val = val * mc.value_at_prime(p)**e
        if val.is_zero:
            break
    return val
