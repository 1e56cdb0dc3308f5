"""Completely multiplicative deformations of a Dirichlet character.

A modified character f agrees with its base character chi at every prime
outside a finite set S and takes prescribed unimodular root-of-unity values
on S. Everything about f is determined by (chi, S, values); the two integers

    sign_shift   T = #{p in S : f(p) = 1} - #{p in S : chi(p) = 1}
    pole_order   N = max(0, T) for odd chi, max(0, T - 1) for even chi

control the order of the pole at s = 0 of the attached Dirichlet series and
through it the degree of polynomial growth of Riesz-smoothed partial sums.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass

from .characters import Character, eval_char, is_prime, parity
from .errors import (InvalidModificationError, InvalidPrimeError,
                     PrimitivityError, NonModificationWarning)
from .roots import UnitValue


@dataclass(frozen=True)
class ModifiedCharacter:
    """Base character plus the canonical (deduplicated, sorted) override set."""

    base: Character
    modifications: tuple[tuple[int, UnitValue], ...]
    chi_values: tuple[UnitValue, ...]
    """chi(p) for each (p, f(p)) of `modifications`, in the same order,
    evaluated once by `build_modified`; chi(p) = 0 exactly when p | q."""
    theory_trusted: bool = True

    def __hash__(self):
        return hash((self.base, self.modifications))

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.modifications)

    def value_at_prime(self, p: int) -> UnitValue:
        """f(p): the override if p is in S, else chi(p)."""
        for pp, v in self.modifications:
            if pp == p:
                return v
        return eval_char(self.base, p)

    @property
    def sign_shift(self) -> int:
        return compute_sign_shift(self)

    @property
    def pole_order(self) -> int:
        return compute_pole_order(self)

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
    if isinstance(mods, dict):
        mods = list(mods.items())
    seen: dict[int, UnitValue] = {}
    chi_at: dict[int, UnitValue] = {}
    for p, v in mods:
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidPrimeError(f"modification key {p!r} is not prime")
        if not isinstance(v, UnitValue) or v.is_zero:
            raise InvalidModificationError(
                f"modification at p={p} must be a root of unity, got {v!r}")
        if p in seen:
            if seen[p] != v:
                raise InvalidModificationError(
                    f"conflicting modifications at p={p}: {seen[p]} vs {v}")
            continue
        chi_at[p] = eval_char(base, p)
        if chi_at[p] == v:
            warnings.warn(
                f"f({p}) equals chi({p}); entry dropped, not a modification",
                NonModificationWarning, stacklevel=2)
            continue
        seen[p] = v
    entries = tuple(sorted(seen.items()))
    return ModifiedCharacter(base, entries,
                             tuple(chi_at[p] for p, _ in entries),
                             theory_trusted=trusted)


def compute_sign_shift(mc: ModifiedCharacter) -> int:
    """T: count of f(p) = 1 on S minus count of chi(p) = 1 on S."""
    new_ones = sum(1 for _, v in mc.modifications if v.is_one)
    old_ones = sum(1 for c in mc.chi_values if c.is_one)
    return new_ones - old_ones


def compute_pole_order(mc: ModifiedCharacter) -> int:
    """N >= 0: pole order at s=0 of the attached series over s^parity shift."""
    t = compute_sign_shift(mc)
    if parity(mc.base) == -1:
        return max(0, t)
    return max(0, t - 1)


# Spec-facing aliases: the contract names these compute_T / compute_N.
compute_T = compute_sign_shift
compute_N = compute_pole_order


def eval_f_oracle(mc: ModifiedCharacter, n: int) -> complex:
    """f(n) by trial factorization; the slow exact reference.

    Intended for n up to about 1e9 (worst case ~3e4 trial divisions). The
    sieve must agree with this on every value; tests enforce it.
    """
    return eval_f_exact(mc, n).to_complex()


def eval_f_exact(mc: ModifiedCharacter, n: int) -> UnitValue:
    """f(n) by trial factorization, as an exact root of unity (or zero)."""
    if n < 1:
        raise ValueError("f is defined on positive integers")
    val = UnitValue.one()
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            val = val * mc.value_at_prime(d)**e
            if val.is_zero:
                return UnitValue.zero()
        d += 1 if d == 2 else 2
    if m > 1:
        val = val * mc.value_at_prime(m)
    return val
