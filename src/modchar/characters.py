"""Dirichlet characters mod q as exact root-of-unity maps.

The unit group (Z/qZ)* is decomposed through the CRT into cyclic factors:
one factor per odd prime power p^e (generated by a primitive root lifted so
it stays primitive for every power of p), the factor {+-1} for 2^2, and the
pair {-1, 5} for 2^e with e >= 3. A character is an exponent vector against
this fixed basis; evaluation is a discrete-log lookup per component followed
by exact angle arithmetic, so no character value is ever a rounded float.

Moduli up to 10**6 are supported. Discrete-log tables are built once per
modulus and shared by every character mod q; characters themselves are
lightweight exponent tuples. Each table is an int32 array over the residues
mod p^e, -1 off the units: the powers g^k for k < order are listed with
array ops (giant-step rows times a baby-step row, see `_orbit`) and each
k is scattered onto its power.

Every O(q) build here (the dlog tables, `Character.angle_numerators`)
works SPAN entries at a time, so its peak memory is its result plus at
most SPAN_BUDGET bytes, whatever q is. `sieve` builds its O(q) prefix
table the same way.

chi's angle table has one cache, `chi_angle_table`: the last table built,
read-only (q bytes for real f, at most 8q), in the dtype of `angle_dtype`.
The sieve reads it, and `lfunctions.LContext` reads chi's angles off it
whenever its scale is a multiple of chi's order, so a command that sieves
chi and then takes L(0, chi) or L'(0, chi), as `verify` does, builds it once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InvalidModulusError, InvariantError
from .roots import UnitValue

MAX_MODULUS = 10**6
# Entries per step of every O(q) table build, here and in `sieve`.
SPAN = 1 << 16
# Most bytes of temporaries one step of such a build holds on top of the
# table it fills, whatever q: about 1 MiB for a dlog or angle table, 4.25
# (two digit tables) to 5 MiB (three) for the complex chi prefix of
# `sieve`: its `unit_values` lookups hold up to 3.5 MiB for SPAN values,
# the compensated fold beside them about 1 MiB. `csvrows` writes CSV rows
# within the same budget.
SPAN_BUDGET = 128 * SPAN

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any supported modulus."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
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


def factorize(n: int) -> Iterator[tuple[int, int]]:
    """Prime factorization by trial division: (prime, exponent) pairs in
    ascending order, each yielded as soon as it is found."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1 if d == 2 else 2
    if n > 1:
        yield n, 1


def _primitive_root(p: int) -> int:
    """Smallest primitive root mod odd prime p."""
    order_factors = [r for r, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // r, p) != 1 for r in order_factors):
            return g
        g += 1


@dataclass(frozen=True)
class BasisElement:
    """One cyclic factor of (Z/qZ)*: generator, order, and dlog table."""

    prime: int
    prime_power: int          # the component modulus p^e
    generator: int            # lifted generator, taken mod q
    order: int
    dlog: np.ndarray          # dlog[r % prime_power] = k, -1 off the orbit

    def __hash__(self):
        return hash((self.prime, self.prime_power, self.generator, self.order))


def _crt_lift(g: int, pe: int, q: int) -> int:
    """x with x = g mod pe and x = 1 mod q/pe."""
    m = q // pe
    if m == 1:
        return g % q
    t = (g - 1) * pow(m, -1, pe) % pe
    return (1 + m * t) % q


def periodic_slice(table: np.ndarray, start: int, n: int) -> np.ndarray:
    """table[(start + i) % len(table)] for i < n, by doubling copies, no gather."""
    out = np.empty(n, dtype=table.dtype)
    head = table[start:start + n]
    k = min(n, len(table))
    out[:len(head)] = head
    out[len(head):k] = table[:k - len(head)]
    while k < n:                      # out[:k] is whole periods
        out[k:2 * k] = out[:min(k, n - k)]
        k *= 2
    return out


def _orbit(g: int, order: int, pe: int):
    """Yield (k0, g^k mod pe for k0 <= k < k0 + n) over k < order, in int64
    spans of at most max(SPAN, b) powers.

    The powers are giant-step rows (g^b)^i times the baby-step row g^j,
    b = ceil(sqrt(order)), reduced in place SPAN // b rows at a time. Both
    factors are below pe <= MAX_MODULUS, so every product is exact in int64.
    """
    b = math.isqrt(order - 1) + 1

    def steps(r: int, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        x = 1
        for i in range(n):
            out[i] = x
            x = x * r % pe
        return out

    giant, baby = steps(pow(g, b, pe), -(-order // b)), steps(g, b)
    rows = max(1, SPAN // b)
    for i in range(0, len(giant), rows):
        powers = np.multiply.outer(giant[i:i + rows], baby)
        powers %= pe
        yield i * b, powers.ravel()[:order - i * b]


def _component_basis(p: int, e: int, q: int) -> list[BasisElement]:
    pe = p**e
    if p == 2 and e >= 3:
        # r = (-1)^a 5^b: the orbit of 5 is the units = 1 mod 4, and its
        # negatives pe - 5^b are the units = 3 mod 4
        half = pe // 4
        dlog5 = np.full(pe, -1, dtype=np.int32)
        dlogm = np.full(pe, -1, dtype=np.int32)
        for k0, powers in _orbit(5, half, pe):
            ks = np.arange(k0, k0 + len(powers), dtype=np.int32)
            dlog5[powers] = ks
            dlogm[powers] = 0
            np.subtract(pe, powers, out=powers)
            dlog5[powers] = ks
            dlogm[powers] = 1
        return [
            BasisElement(2, pe, _crt_lift(pe - 1, pe, q), 2, dlogm),
            BasisElement(2, pe, _crt_lift(5, pe, q), half, dlog5),
        ]
    if p == 2:
        if e == 1:
            return []
        g, order = 3, 2
    else:
        g = _primitive_root(p)
        if e >= 2 and pow(g, p - 1, p * p) == 1:
            g += p
        order = pe // p * (p - 1)
    dlog = np.full(pe, -1, dtype=np.int32)
    for k0, powers in _orbit(g, order, pe):
        dlog[powers] = np.arange(k0, k0 + len(powers), dtype=np.int32)
    return [BasisElement(p, pe, _crt_lift(g, pe, q), order, dlog)]


class CharacterGroup:
    """The character group mod q: fixed basis plus shared dlog tables."""

    def __init__(self, q: int):
        if q <= 0:
            raise InvalidModulusError(f"modulus must be positive, got {q}")
        if q > MAX_MODULUS:
            raise InvalidModulusError(
                f"modulus {q} exceeds supported bound {MAX_MODULUS}")
        self.modulus = q
        self.factorization = list(factorize(q))
        # 2^1 contributes a trivial factor with no basis element, so
        # coprimality with 2 needs its own check in that case.
        self._check_odd = (2, 1) in self.factorization
        self.basis: list[BasisElement] = []
        for p, e in self.factorization:
            self.basis.extend(_component_basis(p, e, q))
        self.orders = tuple(b.order for b in self.basis)
        self.generators = tuple(b.generator for b in self.basis)
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        self.phi = math.prod(self.orders) if self.orders else 1

    def __repr__(self):
        return f"CharacterGroup(q={self.modulus}, orders={self.orders})"

    def dlogs(self, n: int) -> tuple[int, ...] | None:
        """Exponent of n on each basis element, None when gcd(n, q) > 1."""
        if self._check_odd and n % 2 == 0:
            return None
        out = []
        for b in self.basis:
            k = int(b.dlog[n % b.prime_power])
            if k < 0:
                return None
            out.append(k)
        return tuple(out)

    def character(self, exponents: tuple[int, ...]) -> "Character":
        norm = tuple(c % d for c, d in zip(exponents, self.orders))
        if len(exponents) != len(self.orders):
            raise ValueError("exponent vector length mismatch with basis")
        return Character(self, norm)

    def principal(self) -> "Character":
        return Character(self, tuple(0 for _ in self.orders))


@lru_cache(maxsize=64)
def character_group(q: int) -> CharacterGroup:
    return CharacterGroup(q)


@dataclass(frozen=True)
class Character:
    """Dirichlet character mod q, identified by its basis exponent vector."""

    group: CharacterGroup
    exponents: tuple[int, ...]

    def __hash__(self):
        return hash((self.group.modulus, self.exponents))

    def __eq__(self, other):
        return (isinstance(other, Character)
                and self.group.modulus == other.group.modulus
                and self.exponents == other.exponents)

    @property
    def modulus(self) -> int:
        return self.group.modulus

    def __call__(self, n: int) -> UnitValue:
        return eval_char(self, n)

    @property
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.exponents)

    def conjugate(self) -> "Character":
        return self.group.character(
            tuple(-c % d for c, d in zip(self.exponents, self.group.orders)))

    @property
    def order(self) -> int:
        return math.lcm(*(d // math.gcd(d, c) for c, d in
                          zip(self.exponents, self.group.orders))) \
            if self.exponents else 1

    @property
    def label(self) -> str:
        """Label q.j with j = product of generator^exponent mod q."""
        q = self.modulus
        j = 1
        for g, c in zip(self.group.generators, self.exponents):
            j = j * pow(g, c, q) % q
        if q == 1:
            j = 1
        return f"{q}.{j}"

    def angle_numerators(self, scale: int, dtype=np.int64) -> np.ndarray:
        """Angles of chi(0..q-1) as integer numerators over `scale`.

        scale must be a multiple of the character's order, and dtype, a
        signed integer type, must hold 2 scale - 2: the table is built in
        dtype, each basis element's term added to a reduced sum and reduced
        again. Entries for gcd(n, q) > 1 are -1. Vectorized, SPAN residues
        at a time, so the peak is the table plus at most SPAN_BUDGET bytes;
        `chi_angle_table` keeps it for the sieve and the L-functions.
        """
        q = self.modulus
        if 2 * scale - 2 > np.iinfo(dtype).max:
            raise ValueError(f"scale too large for {np.dtype(dtype)} angle sums")
        # (c k / order) scale mod scale as (scale/o) ((c/g) k mod o), with
        # g = gcd(c, order) and o = order/g: each term is below scale, so
        # with the sum reduced, sum + term stays below 2 scale
        terms = []
        for b, c in zip(self.group.basis, self.exponents):
            if c * scale % b.order:
                raise ValueError("scale not divisible by the character order")
            g = math.gcd(c, b.order)
            terms.append((b.dlog, c // g, b.order // g))
        t = np.zeros(q, dtype=dtype)
        for a in range(0, q, SPAN):
            acc = t[a:a + SPAN]
            bad = np.zeros(len(acc), dtype=bool)
            for dlog, c, o in terms:
                # dlog[r % p^e] for the span's r: p^e divides q
                k = periodic_slice(dlog, a % len(dlog), len(acc))
                bad |= k < 0
                k = np.multiply(k, c, dtype=np.int64)
                k -= k // o * o         # k %= o, but libdivide-fast
                k *= scale // o
                np.add(acc, k, out=acc, casting="unsafe")
                np.subtract(acc, scale, out=acc, where=acc >= scale)
            acc[bad] = -1
        if self.group._check_odd:
            t[::2] = -1
        return t

    def conductor(self) -> int:
        return conductor(self)

    @property
    def is_primitive(self) -> bool:
        return is_primitive(self)

    def descriptor(self) -> dict:
        return {"modulus": self.modulus,
                "label": self.label,
                "exponents": list(self.exponents),
                "orders": list(self.group.orders),
                "parity": parity(self),
                "conductor": self.conductor(),
                "principal": self.is_principal}

    def __repr__(self):
        return f"Character({self.label})"


def angle_dtype(top: int):
    """The narrowest of int8/int16/int32 whose maximum is at least top,
    else int64."""
    return next((dt for dt in (np.int8, np.int16, np.int32)
                 if top <= np.iinfo(dt).max), np.int64)


@lru_cache(maxsize=1)
def chi_angle_table(chi: Character, scale: int, dtype) -> np.ndarray:
    """chi's angle table over `scale` (`Character.angle_numerators`) in
    dtype, read-only. The last one built is kept, with its character; its
    arguments are `chi_angle_table.key`."""
    table = chi.angle_numerators(scale, dtype)
    table.flags.writeable = False
    chi_angle_table.key = (chi, scale, dtype)
    return table


chi_angle_table.key = None


def enumerate_characters(q: int) -> list[Character]:
    """All phi(q) characters mod q, in deterministic basis order."""
    grp = character_group(q)
    return [Character(grp, exps)
            for exps in itertools.product(*(range(d) for d in grp.orders))]


def eval_char(chi: Character, n: int) -> UnitValue:
    """chi(n) as an exact UnitValue; 0 when gcd(n, q) > 1."""
    grp = chi.group
    ks = grp.dlogs(n % grp.modulus)
    if ks is None:
        return UnitValue.zero()
    m = math.lcm(*grp.orders)     # integer angle over the group exponent
    return UnitValue.root(sum(c * k * (m // d) for c, d, k
                              in zip(chi.exponents, grp.orders, ks)), m)


def parity(chi: Character) -> int:
    """+1 for even characters (chi(-1) = 1), -1 for odd ones."""
    q = chi.modulus
    v = eval_char(chi, q - 1 if q > 1 else 1)
    if v.is_one:
        return 1
    if v.denominator == 2:
        return -1
    raise InvariantError(f"chi(-1) = {v} for {chi.label} is not +1 or -1")


def conductor(chi: Character) -> int:
    """Smallest modulus inducing chi, via per-component character orders.

    For an odd prime power component with character order m: the factor is 1
    when m = 1, else p^(1 + v_p(m)). For the 2-part: trivial -> 1, the
    component through {-1} alone -> 4, and when the 5-part has order
    m = 2^t > 1 the factor is 2^(t+2) regardless of the {-1} exponent.
    """
    grp = chi.group
    cond = 1
    i = 0
    for p, e in grp.factorization:
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                c = chi.exponents[i]
                cond *= 4 if c % 2 else 1
                i += 1
            else:
                a = chi.exponents[i] % 2
                b = chi.exponents[i + 1] % grp.orders[i + 1]
                if b == 0:
                    cond *= 4 if a else 1
                else:
                    m = grp.orders[i + 1] // math.gcd(grp.orders[i + 1], b)
                    cond *= 4 * m
                i += 2
        else:
            d = grp.orders[i]
            c = chi.exponents[i]
            m = d // math.gcd(d, c)
            if m > 1:
                v = 0
                while m % p == 0:
                    m //= p
                    v += 1
                cond *= p ** (1 + v)
            i += 1
    return cond


def is_primitive(chi: Character) -> bool:
    return conductor(chi) == chi.modulus


def character_from_label(label: str) -> Character:
    """Resolve a q.j label back to the character with that generator image."""
    q_str, _, j_str = label.partition(".")
    try:
        q, j = int(q_str), int(j_str)
    except ValueError:
        raise ConfigError(f"label {label!r} is not q.j with integers q"
                          f" and j") from None
    try:
        grp = character_group(q)
    except InvalidModulusError as e:
        raise InvalidModulusError(f"label {label}: {e}") from None
    ks = grp.dlogs(j % q if q > 1 else 0)
    if ks is None:
        raise InvalidModulusError(f"label {label}: {j} not coprime to {q}")
    return Character(grp, tuple(ks))
