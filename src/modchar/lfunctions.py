"""Dirichlet L-functions, special constants, and the series F(s).

Everything funnels through the Hurwitz zeta function: L(s, chi) =
q^(-s) sum_a chi(a) zeta(s, a/q). One Euler-Maclaurin pass evaluates
zeta(s, a/q) for every residue a coprime to q at once, in longdouble
array arithmetic, and forms the chi-weighted sum and q^(-s) in longdouble
too, so the value is rounded to complex128 once. Its error bound is one
sum over the vector: the truncation remainders, an a-posteriori rounding
term priced from the terms actually added, and that final rounding. The
same formula runs on mpmath only when the longdouble rounding term alone
exceeds the budget. Special values at s = 0 avoid floats until the end:
L(0, chi) for odd chi is exact, as int64 numerators over q, one per angle
of chi, and L'(0, chi) for even chi is computed twice, by the log-gamma
sum and through the functional equation, with a mandatory cross-check
since every leading-coefficient number downstream multiplies it.
Gamma comes from `math.gamma` on the real axis and from mpmath off it;
digamma's Stirling tail reads its Bernoulli numbers from `bernoulli`.

The series attached to a modified character is
F(s) = (prod over S of (1 - chi(p) p^-s)/(1 - f(p) p^-s)) * L(s, chi);
its Euler-factor ratio has simple poles exactly at s = 2*pi*i(a_p/b_p + n)/log p
where f(p) = e(a_p/b_p), detected through the rational angle, never by float
equality alone.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .characters import (Character, angle_dtype, chi_angle_table,
                         is_primitive, parity)
from .errors import (DomainError, NearPoleWarning, ParityError, PoleError,
                     PrecisionError, PrimitivityError, UntrustedTheoryWarning)
from .modified import ModifiedCharacter, compute_pole_order
from .roots import turns_cos_sin

MAX_ABS_S = 100.0
# The Euler-Maclaurin cut hurwitz_zeta_with_bound starts from: M power
# terms and B Bernoulli terms, raised from there until the truncation bound
# meets eps.
_START_M = 8
_START_B = 20
# Largest |L'(0) direct - L'(0) via the functional equation| Lprime0 accepts.
_LPRIME0_GAP = 1e-8
# Distance to a pole of euler_factor_ratio below which it warns.
_NEAR_POLE = 1e-8


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, by the defining recurrence. Exact."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


# Unit roundoff of the fast route. On platforms where longdouble is only a
# double this is 2^-53, so the same bound sends more inputs to mpmath.
_U = float(np.finfo(np.longdouble).eps) / 2
_GRID = 1 << 16        # grid elements per block of _em_sum, whatever phi(q)


@lru_cache(maxsize=None)
def _bernoulli_coefs(B: int) -> np.ndarray:
    """B_2j/(2j)! for j = 1..B in longdouble, each rounded from its Fraction."""
    out = np.empty(B, dtype=np.longdouble)
    for j in range(1, B + 1):
        c = bernoulli(2 * j) / math.factorial(2 * j)
        out[j - 1] = np.longdouble(c.numerator) / np.longdouble(c.denominator)
    out.flags.writeable = False
    return out


def _clongdouble(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(np.shape(re), dtype=np.clongdouble)
    z.real = re
    z.imag = im
    return z


def _neg_power(x: np.ndarray, s: complex) -> tuple[np.ndarray, np.ndarray]:
    """x^(-s) for real x > 0 in clongdouble, with its modulus x^(-sigma)."""
    lx = np.log(x)
    mod = np.exp(-s.real * lx)
    if s.imag == 0:                # the phase is exactly 0: no cos, no sin
        return mod.astype(np.clongdouble), mod
    ph = s.imag * lx
    return _clongdouble(mod * np.cos(ph), -mod * np.sin(ph)), mod


def _unit_roots(num, den: int) -> np.ndarray:
    """e(num/den) in clongdouble from `turns_cos_sin`; quarter turns are
    exact."""
    num = np.asarray(num, dtype=np.int64) % den
    z = _clongdouble(*turns_cos_sin(num, den))
    quarter = 4 * num % den == 0
    z[quarter] = np.array([1, 1j, -1, -1j],
                          dtype=np.clongdouble)[4 * num[quarter] // den]
    return z


def _truncation_bound(s: complex, a: np.ndarray, M: int, B: int) -> float:
    """Sum over a of the Euler-Maclaurin remainder after M and B terms.

    Per a this is the standard |B_{2B+2}|/(2B+2)! |(s)_{2B+1}| w^(-sigma-2B-1)
    inflated by |s + 2B + 1|/(sigma + 2B + 1), with w = M + a; valid when
    sigma + 2B + 1 > 0. The constant is formed in log space, so no factor
    overflows. A non-positive integer s below 2B + 1 makes the formula exact.
    """
    e = s.real + 2 * B + 1
    factors = [abs(s + k) for k in range(2 * B + 2)]
    if min(factors) == 0:
        return 0.0
    c = abs(bernoulli(2 * B + 2)) / math.factorial(2 * B + 2)
    log_k = (math.log(c.numerator) - math.log(c.denominator)
             + sum(map(math.log, factors)) - math.log(e))
    with np.errstate(over="ignore"):
        return float(np.exp(log_k - e * np.log(M + a)).sum())


def _rounding_bound(s: complex, M: int, B: int, a_min: float, m: int, q: int,
                    mag: float, jmag: float, u: float) -> float:
    """u (K mag + 14 jmag): the rounding part of the bound, derived in
    hurwitz_zeta_with_bound. mag is sum|terms added| and jmag the sum of
    j |Bernoulli term j|, both times |q^(-s)|; m is the number of a."""
    lam = max(math.log(M + 1), -math.log(a_min))
    K = 2 * abs(s) * (4 + 5 * lam + 5 * math.log(q)) + M + B + m + 110
    return u * (K * mag + 14 * jmag)


def _em_sum(s: complex, a: np.ndarray, M: int, B: int, weights: np.ndarray,
            q: int) -> tuple[np.clongdouble, float]:
    """q^(-s) sum_i weights_i zeta_MB(s, a_i) in clongdouble, with its rounding bound.

    zeta_MB is the Euler-Maclaurin formula cut after M power terms and B
    Bernoulli terms: sum_{n<M} (n+a)^(-s) + w^(1-s)/(s-1) + w^(-s)/2
    + sum_{j<=B} B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1), with w = M + a. Every a
    is evaluated at once, in blocks of about _GRID grid elements. The
    second value is the rounding bound of _rounding_bound.
    """
    n = np.arange(M, dtype=np.longdouble)
    rising = np.cumprod(np.clongdouble(s) + np.arange(2 * B - 1))[::2]
    kb = _bernoulli_coefs(B) * rising          # B_2j/(2j)! (s)_{2j-1}
    kb_abs = np.abs(kb)
    jkb_abs = np.arange(1, B + 1) * kb_abs
    s1 = np.clongdouble(s) - 1
    total = np.clongdouble(0)
    mag = jmag = np.longdouble(0)
    rows = max(1, _GRID // (M + B))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(a), rows):
            ab = a[lo:lo + rows]
            terms, mods = _neg_power(n + ab[:, None], s)
            w = ab + M
            ws, wmod = _neg_power(w, s)
            ypow = np.ones((len(ab), B), dtype=np.longdouble)
            ypow[:, 1:] = (1 / (w * w))[:, None]
            ypow = np.cumprod(ypow, axis=1)    # w^(-2(j-1))
            g = ws / w                         # w^(-s-1)
            zeta = (terms.sum(axis=1) + ws * (w / s1 + 0.5)
                    + g * _clongdouble(ypow @ kb.real, ypow @ kb.imag))
            total += (weights[lo:lo + rows] * zeta).sum()
            gmod = wmod / w
            mag += (mods.sum() + (wmod * (w / abs(s - 1) + 0.5)).sum()
                    + (gmod * (ypow @ kb_abs)).sum())
            jmag += (gmod * (ypow @ jkb_abs)).sum()
        scale, scale_mod = _neg_power(np.longdouble(q), s)
    return total * scale, _rounding_bound(
        s, M, B, float(a.min()), len(a), q, float(mag * scale_mod),
        float(jmag * scale_mod), _U)


def _em_sum_bigfloat(s: complex, a: np.ndarray, q: int, M: int, B: int,
                     angles, order: int, budget: float,
                     hint: float) -> tuple[complex, float]:
    """The same combination as _em_sum on mpmath, at a precision sized to budget.

    hint is the longdouble rounding term that exceeded the budget; rounding
    scales with the unit roundoff, so the precision is chosen to bring it
    under a quarter of the budget, raised again if the term measured here
    says otherwise. The residues are combined in mpmath, so the returned
    value carries one rounding to complex128.
    """
    import mpmath as mp

    prec = 256
    if math.isfinite(hint) and hint > 0:
        prec = max(80, math.ceil(math.log2(4 * hint / (_U * budget))) + 16)
    for _ in range(4):
        with mp.workprec(prec):
            ms = mp.mpc(s.real, s.imag)
            kb, rising = [], ms
            for j in range(1, B + 1):
                c = bernoulli(2 * j) / math.factorial(2 * j)
                kb.append(mp.mpf(c.numerator) / c.denominator * rising)
                rising *= (ms + 2 * j - 1) * (ms + 2 * j)
            ks = [0] * len(a) if angles is None else np.asarray(angles).tolist()
            total, mag, jmag = mp.mpc(0), mp.mpf(0), mp.mpf(0)
            for num, k in zip(a.tolist(), ks):
                x = mp.mpf(num) / q
                w = x + M
                ws = w ** -ms
                terms = [(x + n) ** -ms for n in range(M)]
                terms += [ws * w / (ms - 1), ws / 2]
                g, y = ws / w, 1 / (w * w)
                for j, c in enumerate(kb, start=1):
                    terms.append(c * g)
                    jmag += j * abs(terms[-1])
                    g *= y
                total += mp.expjpi(mp.mpf(2 * k) / order) * mp.fsum(terms)
                mag += mp.fsum(abs(t) for t in terms)
            scale = mp.mpf(q) ** -ms
            val = complex(total * scale)
            rounding = _rounding_bound(
                s, M, B, float(a.min()) / q, len(a), q,
                float(mag * abs(scale)), float(jmag * abs(scale)),
                2.0 ** -prec)
        if rounding <= budget / 4:
            break
        prec += math.ceil(math.log2(4 * rounding / budget)) + 16
    return val, rounding


def hurwitz_zeta_with_bound(s, a, eps: float = 1e-12, *, q: int = 1,
                            angles=None, order: int = 1) -> tuple[complex, float]:
    """q^(-s) sum_i e(angles_i/order) zeta(s, a_i/q) with a rigorous error bound.

    With the defaults this is zeta(s, a) for one 0 < a <= 1 (or the sum over
    an array of them). L(s, chi) passes chi's `LContext` as a, and q, the
    residues, angles and roots e(angles/order) are read from it, derived
    once per context; given angles and order, the roots are derived here.
    Every parameter a_i/q must lie in (0, 1].

    The returned bound is absolute and sums three parts:
    - truncation: the Euler-Maclaurin remainder bound of each a_i, summed
      and scaled by q^(-sigma). M and B escalate from _START_M and _START_B,
      once for the whole vector, until it is at most eps/8.
    - rounding: every term is evaluated in np.clongdouble (see _em_sum) and
      the bound adds K u sum|terms added| |q^(-s)|, u the longdouble unit
      roundoff, plus 14 u sum_j j |Bernoulli term j|. To first order in u,
      assuming IEEE arithmetic and libm log/exp/cos/sin within 2 ulps:
      a_i/q and n + a_i carry relative error 2u, so x^(-s) =
      exp(-sigma log x) cis(-t log x) is off by at most 2|s|(2 + 5L) + 13 u
      relative, L = max(log(M+1), -log min a_i/q); the Bernoulli chain
      (rising factorials, powers of w^-2) adds at most 14j + 5 u on term j,
      the boundary terms 10 u; the sums of one a add M + B + 3 u of
      sum|terms|, chi's roots of unity 60 u, their products 3 u, the
      combination over m residues m u, and q^(-s) with its product
      2|s|(2 + 5 log q) + 16 u. Rounded up, K = 2|s|(4 + 5L + 5 log q)
      + M + B + m + 110. mpmath evaluates the same terms at unit roundoff
      2^-prec and is priced by the same formula.
    - final rounding: |value| 2^-52, for the one conversion to complex128.

    The route switches only on rounding: when the longdouble rounding term
    alone exceeds eps minus the truncation term (deep negative sigma such
    as s = -3.5, whose terms of size (M+a)^|sigma| cancel to a much smaller
    value, or q near 1000 at s = -0.5), the same formula runs in
    _em_sum_bigfloat at a precision sized from that term. PrecisionError if
    no route meets eps.
    DomainError for |s| above MAX_ABS_S or NaN, and for eps outside (0, inf).
    """
    s = complex(s)
    if s == 1:
        raise PoleError("zeta(s, a) has its only pole at s = 1")
    ctx = a if isinstance(a, LContext) else None
    if ctx is not None:
        (a, angles), q, order = ctx.vector, ctx.chi.modulus, ctx.chi.order
    num = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if not (num.size and np.all((num > 0) & (num <= q))):
        raise DomainError(f"a/q must be in (0, 1], got a = {a}, q = {q}")
    if not abs(s) <= MAX_ABS_S:                 # NaN fails here too
        raise DomainError(f"|s| = {abs(s)!r}; only |s| <= {MAX_ABS_S:g}"
                          f" is supported")
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps:g}")
    B = max(_START_B, int((2 - s.real) / 2) + 3)
    M = max(_START_M, int(abs(s)))
    a64 = num / q
    a_min = float(a64.min())
    scale = q ** -s.real
    while True:
        trunc = scale * _truncation_bound(s, a64, M, B)
        if trunc <= eps / 8:
            break
        # Bernoulli terms shrink like ((|s|+2B)/(2 pi (M+a)))^2 per step;
        # grow whichever parameter the ratio says is binding.
        if (abs(s) + 2 * B) >= 2 * math.pi * (M + a_min) or B >= 120:
            if M >= 1 << 18:
                raise PrecisionError(
                    f"Euler-Maclaurin bound stuck above eps={eps:g} for s={s}",
                    suggested={"M": M, "B": B})
            M *= 2
        else:
            B += 8
    weights = (ctx.roots if ctx is not None
               else np.ones(num.size, dtype=np.clongdouble) if angles is None
               else _unit_roots(angles, order))
    val, rounding = _em_sum(s, num.astype(np.longdouble) / q, M, B,
                            weights, q)
    budget = eps - trunc
    if not (np.isfinite(val) and rounding <= budget):
        val, rounding = _em_sum_bigfloat(s, num, q, M, B, angles, order,
                                         budget, rounding)
        if not rounding <= budget:
            raise PrecisionError(
                f"rounding bound {rounding:.3g} above eps={eps:g} for s={s}"
                f" even on mpmath", suggested={"M": M, "B": B})
    val = complex(val) + 0j            # + 0j turns a -0.0 part into 0.0
    return val, trunc + rounding + abs(val) * 2.0 ** -52


def digamma(x):
    """psi(x) for real x > 0, a float or a float64 array: shift every entry
    to x >= 12, then the Stirling tail."""
    xs = np.atleast_1d(np.array(x, dtype=np.float64))     # a copy
    if np.any(xs <= 0):
        raise DomainError("digamma implemented for positive real x only")
    acc = np.zeros_like(xs)
    low = xs < 12
    while low.any():
        acc[low] -= 1 / xs[low]
        xs[low] += 1
        low = xs < 12
    inv2 = 1 / (xs * xs)
    t = np.log(xs) - 0.5 / xs
    p = inv2
    for j in range(1, 9):                       # B_2 .. B_16
        t -= float(bernoulli(2 * j)) / (2 * j) * p
        p = p * inv2
    out = acc + t
    return float(out[0]) if np.ndim(x) == 0 else out


def complex_gamma(z: complex) -> complex:
    """Gamma(z): `math.gamma` on the real axis, mpmath's gamma at 53 bits
    off it, whatever precision the caller left mpmath at. PoleError at
    0, -1, -2, ...

    Against mpmath at 200 bits, on 20,000 seeded real x in (-100, 101) and
    5,000 complex z with |z| <= 101, the relative error is at most 7.1 u
    on the axis and 1.0 u off it (u = 2^-53).
    """
    z = complex(z)
    if z.imag == 0:
        try:
            return complex(math.gamma(z.real))
        except ValueError:
            raise PoleError(f"Gamma pole at z = {z}") from None
    import mpmath as mp

    with mp.workprec(53):
        return complex(mp.gamma(mp.mpc(z)))


@dataclass
class LContext:
    """The one holder of a character's L-function data, with the eps of
    its L-values: `vector` (residues r coprime to q, angles k over chi's
    order), `roots` e(k/order), `tau` and `root_number`, each derived at
    most once and dropped with the context. Every helper here reads them
    from the context it is given as chi, or builds one (`_context`)."""

    chi: Character
    eps: float = 1e-12

    def __post_init__(self):
        # checked here too: the digamma route at s = 1 skips hurwitz's check
        if not 0 < self.eps < math.inf:
            raise DomainError(f"eps must be positive and finite, got"
                              f" {self.eps:g}")

    @property
    def kappa(self) -> int:
        return 0 if parity(self.chi) == 1 else 1

    @cached_property
    def vector(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, k), int64: the r in [1, q] coprime to q, chi(r) = e(k/order);
        k off the `chi_angle_table` last built for chi if its scale is a
        multiple of the order (the sieve's), else off one at scale = order."""
        chi, order = self.chi, self.chi.order
        key = chi_angle_table.key
        if not (key and key[0] == chi and key[1] % order == 0):
            key = (chi, order, angle_dtype(2 * order - 2))
        t = chi_angle_table(*key)
        keep = t >= 0
        r = np.flatnonzero(keep)
        r[r == 0] = chi.modulus     # residue 0 is r = q, a unit only if q = 1
        return r, t[keep].astype(np.int64) // (key[1] // order)

    @cached_property
    def roots(self) -> np.ndarray:
        """e(k/order) of `_unit_roots` for the k of `vector`, gathered from
        its `order` distinct values (element-wise the same numbers)."""
        order = self.chi.order
        return _unit_roots(np.arange(order), order)[self.vector[1]]

    @cached_property
    def tau(self) -> complex:
        return gauss_sum(self)

    @cached_property
    def root_number(self) -> complex:
        """epsilon(chi) = tau(chi)/(i^kappa sqrt(q)); unimodular if primitive."""
        eps_chi = self.tau / (1j ** self.kappa * math.sqrt(self.chi.modulus))
        if is_primitive(self.chi) and abs(abs(eps_chi) - 1) > 10 * self.eps:
            raise PrecisionError(
                f"|epsilon(chi)| = {abs(eps_chi)!r} should be 1 for"
                f" primitive chi {self.chi.label}")
        return eps_chi


def _context(chi: Character | LContext) -> LContext:
    """chi itself if it is an LContext, else a new context for it."""
    return chi if isinstance(chi, LContext) else LContext(chi)


def gauss_sum(chi: Character | LContext) -> complex:
    """tau(chi) = sum_a chi(a) e(a/q), angles kept exact until the end."""
    ctx = _context(chi)
    (r, k), q, order = ctx.vector, ctx.chi.modulus, ctx.chi.order
    return complex(_unit_roots(k * q + r * order, order * q).sum())


def _l_at_one(chi: Character | LContext) -> complex:
    """L(1, chi) for non-principal chi: -(1/q) sum chi(a) psi(a/q).

    The Hurwitz route has a removable singularity at s = 1 (each term poles,
    the chi-sum cancels); the digamma form is the finite part directly: the
    context's roots times the array `digamma`, summed in clongdouble.
    """
    ctx = _context(chi)
    q = ctx.chi.modulus
    val = complex(-(ctx.roots * digamma(ctx.vector[0] / q)).sum() / q)
    return val + 0j                    # + 0j turns a -0.0 part into 0.0


def L_value_with_bound(ctx: LContext, s) -> tuple[complex, float | None]:
    """L(s, chi) and an absolute bound on its error, None at s = 1.

    Away from s = 1 this is one hurwitz_zeta_with_bound call on all residues
    coprime to q, so chi's roots of unity, the sum over residues and q^(-s)
    are formed in longdouble and the value is rounded to complex128 once.
    The bound is at most ctx.eps plus |value| 2^-52 for that rounding. At
    s = 1 the digamma form is used, which carries no certified bound.
    """
    s = complex(s)
    if s == 1:
        if ctx.chi.is_principal:
            raise PoleError("L(s, principal chi) has a pole at s = 1")
        return _l_at_one(ctx), None
    return hurwitz_zeta_with_bound(s, ctx, ctx.eps)


def L_value(ctx: LContext, s) -> complex:
    """L(s, chi) through Hurwitz zeta, within ctx.eps plus its final rounding."""
    return L_value_with_bound(ctx, s)[0]


def L0_exact(chi: Character | LContext) -> Fraction | np.ndarray:
    """L(0, chi) = -(1/q) sum_{a<q} chi(a) a, exactly.

    c_j is minus the sum of the a < q with chi(a) = e(j/order), added up
    exactly in int64, with angle 1/2 folded into 0 (e(1/2) = -1), so
    L(0, chi) = (1/q) sum_j c_j e(j/order). Returns Fraction(c_0, q) when
    chi is real, otherwise the int64 vector c. Odd chi only: for even chi
    the value is 0 by the sine factor, which is the wrong-parity case here.
    """
    ctx = _context(chi)
    if parity(ctx.chi) != -1:
        raise ParityError("L(0, chi) vanishes for even chi; odd chi required")
    (r, k), q, order = ctx.vector, ctx.chi.modulus, ctx.chi.order
    c = np.zeros(order, dtype=np.int64)
    np.subtract.at(c, k, r)
    if order % 2 == 0:
        c[0] -= c[order // 2]
        c[order // 2] = 0
    return Fraction(int(c[0]), q) if order == 2 else c


def _even_primitive(ctx: LContext, route: str) -> None:
    """The guards of both L'(0) routes, route naming the one that ran."""
    if parity(ctx.chi) != 1:
        raise ParityError("L'(0, chi) formula requires even chi")
    if ctx.chi.is_principal:
        raise PrimitivityError("principal characters excluded (L is not entire)")
    if not is_primitive(ctx.chi):
        raise PrimitivityError(f"{route} requires primitive chi")


def lprime0_direct(chi: Character | LContext) -> complex:
    """L'(0, chi) = sum_{a<q} chi(a) log Gamma(a/q) for even primitive chi.

    The log q and log 2pi companions of the textbook formula cancel against
    sum chi(a) = 0 and L(0, chi) = 0. chi(a) comes from the context's
    roots, and the sum runs in clongdouble.
    """
    ctx = _context(chi)
    _even_primitive(ctx, "L'(0) dual-route check")
    a = (ctx.vector[0] / ctx.chi.modulus).tolist()
    return complex((ctx.roots * np.fromiter(map(math.lgamma, a), float)).sum())


def lprime0_functional(chi: Character | LContext) -> complex:
    """L'(0, chi) = epsilon(chi) sqrt(q) L(1, conj chi) / 2, the second route.

    L(1, conj chi) is conj L(1, chi): e(-k/order) of `_unit_roots` is the
    exact conjugate of e(k/order) and psi(a/q) is real, so this has the
    bits of the pass on conj chi up to the sign of a zero part, and reads
    chi's own context. It stays independent of `lprime0_direct`: digamma
    and tau(chi), not log-gamma.
    """
    ctx = _context(chi)
    _even_primitive(ctx, "functional-equation route")
    return (ctx.root_number * math.sqrt(ctx.chi.modulus)
            * _l_at_one(ctx).conjugate() / 2)


def Lprime0(chi: Character | LContext) -> complex:
    """L'(0, chi) with the mandatory two-route check, both on one context,
    the functional equation first (tau(chi) is formed before the roots are
    held): PrecisionError if they differ by more than _LPRIME0_GAP."""
    ctx = _context(chi)
    _even_primitive(ctx, "L'(0) dual-route check")
    via_fe = lprime0_functional(ctx)
    direct = lprime0_direct(ctx)
    gap = abs(direct - via_fe)
    if gap > _LPRIME0_GAP:
        raise PrecisionError(
            f"L'(0, chi) routes disagree by {gap:.3e} for {ctx.chi.label}",
            suggested={"direct": direct, "functional": via_fe})
    return direct


def euler_factor_ratio(mc: ModifiedCharacter, s) -> complex:
    """prod over S of (1 - chi(p) p^-s) / (1 - f(p) p^-s).

    Poles sit exactly at s = 2*pi*i*(a_p/b_p + n)/log p where
    f(p) = e(a_p/b_p). The nearest lattice point is computed from the exact
    angle; a hit raises PoleError carrying (p, n), a near miss (closer than
    _NEAR_POLE) computes the value but emits NearPoleWarning with the exact
    location.
    """
    s = complex(s)
    out = 1 + 0j
    for (p, fv), chi_p in zip(mc.modifications, mc.chi_values):
        lp = math.log(p)
        n_near = round(s.imag * lp / (2 * math.pi) - float(fv.angle))
        s_pole = 2j * math.pi * (float(fv.angle) + n_near) / lp
        dist = abs(s - s_pole)
        den = 1 - fv.to_complex() * cmath.exp(-s * lp)
        if den == 0 or dist <= 1e-15 * max(1.0, abs(s_pole)):
            raise PoleError(
                f"s = {s} is a pole of the factor at p = {p} (branch n = {n_near})",
                prime=p, index=n_near)
        if dist < _NEAR_POLE:
            warnings.warn(
                f"s within {dist:.2e} of the pole at p={p}, n={n_near},"
                f" location {s_pole}", NearPoleWarning, stacklevel=2)
        num = 1 - chi_p.to_complex() * cmath.exp(-s * lp)
        out *= num / den
    return out


def evaluate_F(mc: ModifiedCharacter, s, eps: float = 1e-12) -> complex:
    """F(s) = euler_factor_ratio(mc, s) * L(s, chi)."""
    return euler_factor_ratio(mc, s) * L_value(LContext(mc.base, eps), s)


def functional_equation_check(ctx: LContext, s,
                              value: complex | None = None) -> float:
    """|L(s,chi) - eps(chi) L(1-s, conj) 2^s pi^(s-1) q^(1/2-s) Gamma(1-s) sin(pi(s+kappa)/2)|.

    value is L(s, chi) if the caller has it already (as `L_value` returns
    it), which saves one Hurwitz pass; by default it is computed here.

    The partner L(1-s, conj chi) is conj L(1 - conj s, chi), one pass on
    ctx's residues and roots; no context is built for conj chi. On the
    longdouble route this has the bits of the pass on conj chi, whose roots
    of unity and powers are the exact conjugates. On Re s = 1/2, 1 - conj s
    is s: the partner is conj L(s, chi) and no Hurwitz pass runs. There the
    residual tests epsilon(chi) and the Gamma, sin, 2^s pi^(s-1) q^(1/2-s)
    chain, not L itself. DomainError, naming 1 - conj s, when |1 - conj s|
    is above MAX_ABS_S though |s| is not.
    """
    chi = ctx.chi
    if not is_primitive(chi):
        raise PrimitivityError(
            f"functional equation requires a primitive character,"
            f" got {chi.label} of conductor {chi.conductor()}")
    s = complex(s)
    if abs(s.imag) < 1e-9 and s.real >= 1 - 1e-9 \
            and abs(s.real - round(s.real)) < 1e-9:
        raise DomainError(f"Gamma(1-s) pole at s = {s}")
    if chi.modulus == 1 and (abs(s) < 1e-9 or abs(s - 1) < 1e-9):
        raise DomainError("zeta pole on one side of the equation")
    lhs = L_value(ctx, s) if value is None else complex(value)
    mirror = 1 - s.conjugate()
    if not abs(mirror) <= MAX_ABS_S:
        raise DomainError(f"|1 - conj s| = {abs(mirror)!r}; the partner"
                          f" needs |1 - conj s| <= {MAX_ABS_S:g}")
    partner = (lhs if mirror == s else L_value(ctx, mirror)).conjugate()
    rhs = (ctx.root_number * partner
           * 2 ** s * math.pi ** (s - 1) * chi.modulus ** (0.5 - s)
           * complex_gamma(1 - s) * cmath.sin(math.pi * (s + ctx.kappa) / 2))
    return abs(lhs - rhs)


@dataclass(frozen=True)
class LeadingCoefficient:
    """a_{N+k} with its full factor breakdown.

    factors holds (p, group, value) with group 1 for f(p) = 1 (factor
    (1 - chi(p))/log p), group 2 for chi(p) = 1 (factor log p/(1 - f(p))),
    group 3 otherwise (factor (1 - chi(p))/(1 - f(p))). The headline value
    is always c_chi * k!/(N+k)! * product of all factors, so it can be
    recomputed from the parts.
    """

    N: int
    k: int
    value: complex
    c_chi: complex
    c_chi_exact: Fraction | None
    factorial_ratio: Fraction
    factors: tuple[tuple[int, int, complex], ...]

    def recompute(self) -> complex:
        out = self.c_chi * float(self.factorial_ratio)
        for _, _, f in self.factors:
            out *= f
        return out

    def describe(self) -> dict:
        return {
            "N": self.N, "k": self.k,
            "value": [self.value.real, self.value.imag],
            "c_chi": [self.c_chi.real, self.c_chi.imag],
            "c_chi_exact": str(self.c_chi_exact) if self.c_chi_exact is not None else None,
            "factorial_ratio": [self.factorial_ratio.numerator,
                                self.factorial_ratio.denominator],
            "factors": [{"p": p, "group": g, "value": [v.real, v.imag]}
                        for p, g, v in self.factors],
        }


def l_special_factor(chi: Character | LContext):
    """c_chi: L(0, chi) exact for odd chi, checked L'(0, chi) for even.

    Returns (complex value, the Fraction for real odd chi, else None). For
    complex odd chi the value sums the nonzero terms of `L0_exact` in angle
    order, in one sequential pass, each e(j/order) of `_unit_roots` rounded
    to complex128 times c_j/q.
    """
    ctx = _context(chi)
    if parity(ctx.chi) != -1:
        return Lprime0(ctx), None
    c = L0_exact(ctx)
    if isinstance(c, Fraction):
        return complex(c), c
    js = np.flatnonzero(c)
    roots = _unit_roots(js, len(c)).astype(np.complex128).tolist()
    q = ctx.chi.modulus
    return sum((z * (n / q) for z, n in zip(roots, c[js].tolist())), 0j), None


def leading_coefficient(mc: ModifiedCharacter, k: int) -> LeadingCoefficient:
    """a_{N+k} = c_chi * k!/(N+k)! * three factor groups over S."""
    if k < 0:
        raise DomainError("order k must be nonnegative")
    if not mc.theory_trusted:
        warnings.warn(
            "base character is imprimitive; leading coefficient is untrusted",
            UntrustedTheoryWarning, stacklevel=2)
    n_pole = compute_pole_order(mc)
    c_val, c_exact = l_special_factor(mc.base)
    # k!/(N+k)! is 1 over N factors: O(N) work at any k, where two
    # factorials and their gcd take seconds at k = 10^6
    ratio = Fraction(1, math.prod(range(k + 1, k + n_pole + 1)))
    factors = []
    value = c_val * float(ratio)
    for (p, fv), chi_p in zip(mc.modifications, mc.chi_values):
        lp = math.log(p)
        if fv.is_one:
            g, fac = 1, (1 - chi_p.to_complex()) / lp
        elif chi_p.is_one:
            g, fac = 2, lp / (1 - fv.to_complex())
        else:
            g, fac = 3, (1 - chi_p.to_complex()) / (1 - fv.to_complex())
        factors.append((p, g, fac))
        value *= fac
    return LeadingCoefficient(n_pole, k, value, c_val, c_exact, ratio,
                              tuple(factors))
