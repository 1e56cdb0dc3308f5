"""Dirichlet L-functions, special constants, and the series F(s).

Everything funnels through the Hurwitz zeta function: L(s, chi) =
q^(-s) sum_a chi(a) zeta(s, a/q). One Euler-Maclaurin pass evaluates
zeta(s, a/q) for every residue a coprime to q at once, in longdouble
array arithmetic (real on the real axis), combines the chi-weighted
values by a halving fold and forms q^(-s) in longdouble too, so the value
is rounded to complex128 once. What chi fixes (the residues over q in
float64 and longdouble, chi's roots of unity) is derived once per
`LContext`. The error bound is one sum over the vector: the truncation
remainders, an a-posteriori rounding term priced from the terms actually
added, whose constant grows with the fold's depth (about log2 phi(q)),
and that final rounding. The same formula runs on mpmath only when the
longdouble rounding term alone exceeds the budget; at s = 1/2 the pass
stays in longdouble at q = 999983 (bound 1.9e-13). Special values at
s = 0 avoid floats until the end: L(0, chi) for odd chi is exact, as
int64 numerators over q, one per angle of chi, and L'(0, chi) for even
chi is computed twice, by the log-gamma sum and through the functional
equation (L(1, conj chi) from the same pass at s = 1), with a mandatory
cross-check since every leading-coefficient number downstream multiplies
it.
Gamma comes from `math.gamma` on the real axis and from mpmath off it.

The series attached to a modified character is
F(s) = (prod over S of (1 - chi(p) p^-s)/(1 - f(p) p^-s)) * L(s, chi);
its Euler factors (`EulerFactor.value`) have simple poles exactly at
s = 2*pi*i(a_p/b_p + n)/log p where f(p) = e(a_p/b_p), detected through
the rational angle, never by float equality alone.
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
from .errors import (DomainError, ParityError, PoleError, PrecisionError,
                     PrimitivityError, UntrustedTheoryWarning)
from .modified import ModifiedCharacter
from .roots import turns_cos_sin

MAX_ABS_S = 100.0
# The Euler-Maclaurin cut hurwitz_zeta_with_bound starts from: M power
# terms and B Bernoulli terms, raised from there until the truncation bound
# meets eps.
_START_M = 8
_START_B = 20
# Largest |L'(0) direct - L'(0) via the functional equation| Lprime0 accepts.
_LPRIME0_GAP = 1e-8


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


def _neg_power(x: np.ndarray, s: float | complex) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """x^(-s) for real x > 0 in the dtype of s, with its modulus x^(-sigma):
    longdouble for a float s, clongdouble for a complex one. At s = 1 it
    is 1/x, one rounding. The complex exp is libm's exp(-sigma log x)
    times one sincos of -t log x: the same numbers as separate cos and sin
    calls, in about half their time."""
    if s == 1:                          # one rounding, no log or exp
        r = 1 / x
        return r, r
    lx = np.log(x)
    mod = np.exp(-s.real * lx)
    if not isinstance(s, complex):
        return mod, mod
    return np.exp(lx * np.clongdouble(-s)), mod


def _unit_roots(num, den: int) -> np.ndarray:
    """e(num/den) in clongdouble by `turns_cos_sin`, exact at quarter turns."""
    return _clongdouble(*turns_cos_sin(np.asarray(num, np.int64) % den, den))


def _fold(x: np.ndarray):
    """The sum of x over its first axis by halving: each round adds the
    back half onto the front (an odd middle entry waits a round), so every
    entry passes through at most `_depth(len(x))` additions and the sum is
    within that many u of sum|x_i| to first order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 4.2). x is
    overwritten. An object array of mpmath numbers folds the same way."""
    n = len(x)
    while n > 1:
        h = n // 2
        x[:h] += x[n - h:n]
        n -= h
    return x[0]


def _depth(n: int) -> int:
    """ceil(log2 n): the additions `_fold` puts each of n entries through."""
    return (n - 1).bit_length()


def _points(a, q: int) -> tuple[np.ndarray, np.ndarray, float]:
    """a/q in float64 and in longdouble, and its minimum, for numerators a
    with 0 < a/q <= 1 (DomainError otherwise)."""
    num = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if not (num.size and np.all((num > 0) & (num <= q))):
        raise DomainError(f"a/q must be in (0, 1], got a = {a}, q = {q}")
    a64 = num / q
    return a64, num.astype(np.longdouble) / q, float(a64.min())


@lru_cache(maxsize=None)
def _log_bernoulli_tail(B: int) -> float:
    """log(|B_{2B+2}|/(2B+2)!), formed from the exact Fraction."""
    c = abs(bernoulli(2 * B + 2)) / math.factorial(2 * B + 2)
    return math.log(c.numerator) - math.log(c.denominator)


def _truncation_bound(s: complex, a: np.ndarray, M: int, B: int) -> float:
    """Sum over a of the Euler-Maclaurin remainder after M and B terms.

    Per a this is the standard |B_{2B+2}|/(2B+2)! |(s)_{2B+1}| w^(-sigma-2B-1)
    inflated by |s + 2B + 1|/(sigma + 2B + 1), with w = M + a; valid when
    sigma + 2B + 1 > 0. The constant is formed in log space, so no factor
    overflows. A non-positive integer s below 2B + 1 makes the formula exact.
    """
    e = s.real + 2 * B + 1
    factors = np.abs(s + np.arange(2 * B + 2))
    if not factors.all():
        return 0.0
    log_k = _log_bernoulli_tail(B) + np.log(factors).sum() - math.log(e)
    with np.errstate(over="ignore"):
        return float(np.exp(log_k - e * np.log(M + a)).sum())


def _rounding_bound(s: complex, M: int, B: int, a_min: float, depth: int,
                    q: int, mag: float, jmag: float, u: float) -> float:
    """u (K mag + 14 jmag): the rounding part of the bound, derived in
    hurwitz_zeta_with_bound. mag is sum|terms added| and jmag the sum of
    j |Bernoulli term j|, both times |q^(-s)|; depth is the number of
    additions the fold over the residues puts each residue through."""
    lam = max(math.log(M + 1), -math.log(a_min))
    K = 2 * abs(s) * (4 + 5 * lam + 5 * math.log(q)) + M + B + depth + 110
    return u * (K * mag + 14 * jmag)


def _em_sum(s: complex, a: np.ndarray, a_min: float, M: int, B: int,
            weights: np.ndarray | None, q: int):
    """q^(-s) sum_i weights_i zeta_MB(s, a_i), with its rounding bound.

    zeta_MB is the Euler-Maclaurin formula cut after M power terms and B
    Bernoulli terms: sum_{n<M} (n+a)^(-s) + w^(1-s)/(s-1) + w^(-s)/2
    + sum_{j<=B} B_2j/(2j)! (s)_{2j-1} w^(-s-2j+1), with w = M + a, and
    -log w for w^(1-s)/(s-1) at s = 1 (hurwitz_zeta_with_bound). Every a
    is evaluated at once, in blocks of about _GRID grid elements, with one
    `_neg_power` over the block's [n + a | M + a] grid. Arrays are in the
    dtype of s: longdouble on the real axis, clongdouble off it; weights
    None means every weight is 1. The weighted values are combined by
    `_fold` within each block and again over the block sums. The second
    value is the rounding bound of _rounding_bound.
    """
    real = s.imag == 0
    sv = s.real if real else s
    sl = np.longdouble(sv) if real else np.clongdouble(sv)
    kb = _bernoulli_coefs(B) * np.cumprod(sl + np.arange(2 * B - 1))[::2]
    # one product gives the Bernoulli sum (kb: B_2j/(2j)! (s)_{2j-1}; its
    # real and imaginary parts off the axis) and both magnitude sums per row
    coefs = np.empty((B, 3 if real else 4), dtype=np.longdouble)
    coefs[:, :-2] = kb.view(np.longdouble).reshape(B, -1)
    coefs[:, -2] = np.abs(kb)
    coefs[:, -1] = coefs[:, -2] * np.arange(1, B + 1)
    grid = np.arange(M + 1, dtype=np.longdouble)
    s1 = sl - 1
    rows = max(1, _GRID // (M + B))
    blocks = []
    mag = jmag = np.longdouble(0)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(a), rows):
            x = grid + a[lo:lo + rows, None]   # n + a, and w = M + a last
            p, pmod = _neg_power(x, sv)
            w, ws, wmod = x[:, M], p[:, M], pmod[:, M]
            ypow = np.empty((len(x), B), dtype=np.longdouble)
            ypow[:, 0] = 1
            ypow[:, 1:] = (1 / (w * w))[:, None]
            np.cumprod(ypow, axis=1, out=ypow)  # w^(-2(j-1))
            yk = np.dot(ypow, coefs)           # np.dot: matmul's sums, faster
            bern = yk[:, 0] if real else _clongdouble(yk[:, 0], yk[:, 1])
            if s == 1:      # -log w: w^(1-s)/(s-1) less its pole 1/(s-1)
                lw = np.log(w)
                edge, edge_mag = ws * 0.5 - lw, np.sum(lw + wmod * 0.5)
            else:
                edge = ws * (w / s1 + 0.5)
                edge_mag = np.dot(wmod, w / abs(s - 1) + 0.5)
            zeta = (p[:, :M].sum(axis=1) + edge
                    + ws / w * bern)           # ws / w = w^(-s-1)
            blocks.append(_fold(zeta if weights is None
                                else weights[lo:lo + rows] * zeta))
            bmag, bjmag = np.dot(wmod / w, yk[:, -2:])
            mag += pmod[:, :M].sum() + edge_mag + bmag
            jmag += bjmag
        scale, scale_mod = _neg_power(np.longdouble(q), sv)
    depth = _depth(min(rows, len(a))) + _depth(len(blocks))
    return _fold(np.array(blocks)) * scale, _rounding_bound(
        s, M, B, a_min, depth, q, float(mag * scale_mod),
        float(jmag * scale_mod), _U)


def _em_sum_bigfloat(s: complex, a: np.ndarray, ctx: LContext | None,
                     M: int, B: int, budget: float,
                     hint: float) -> tuple[complex, float]:
    """The same combination as _em_sum on mpmath, at a precision sized to budget.

    a holds the numerators a_i. Given chi's context ctx, q is chi's modulus
    and a_i has the weight e(k_i/order), k_i from ctx.vector; given None,
    q = 1 and every weight is 1. hint is the longdouble rounding term that
    exceeded the budget; rounding scales with the unit roundoff, so the
    precision is chosen to bring it under a quarter of the budget, raised
    again if the term measured here says otherwise. The residues are
    combined by `_fold` in mpmath, so the returned value carries one
    rounding to complex128.
    """
    import mpmath as mp

    q = 1 if ctx is None else ctx.chi.modulus
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
            weights = ([1] * len(a) if ctx is None
                       else [mp.expjpi(mp.mpf(2 * k) / ctx.chi.order)
                             for k in ctx.vector[1].tolist()])
            values = np.empty(len(a), dtype=object)
            mag, jmag = mp.mpf(0), mp.mpf(0)
            for i, (num, weight) in enumerate(zip(a.tolist(), weights)):
                x = mp.mpf(num) / q
                w = x + M
                ws = w ** -ms
                terms = [(x + n) ** -ms for n in range(M)]
                terms += [-mp.log(w) if s == 1 else ws * w / (ms - 1),
                          ws / 2]
                g, y = ws / w, 1 / (w * w)
                for j, c in enumerate(kb, start=1):
                    terms.append(c * g)
                    jmag += j * abs(terms[-1])
                    g *= y
                values[i] = weight * mp.fsum(terms)
                mag += mp.fsum(abs(t) for t in terms)
            scale = mp.mpf(q) ** -ms
            val = complex(_fold(values) * scale)
            rounding = _rounding_bound(
                s, M, B, float(a.min()) / q, _depth(len(a)), q,
                float(mag * abs(scale)), float(jmag * abs(scale)),
                2.0 ** -prec)
        if rounding <= budget / 4:
            break
        prec += math.ceil(math.log2(4 * rounding / budget)) + 16
    return val, rounding


def hurwitz_zeta_with_bound(s, a, eps: float = 1e-12) -> tuple[complex, float]:
    """q^(-s) sum_i w_i zeta(s, a_i/q) with a rigorous error bound.

    a takes one of two forms:
    - chi's `LContext`: q is chi's modulus, the a_i are its residues
      coprime to q and w_i = chi(a_i) its roots, all read from the context
      (derived once per context), so this is L(s, chi);
    - plain numbers, one 0 < a <= 1 or an array of them: q = 1 and every
      w_i is 1, so this is zeta(s, a) or the sum over the array.

    s = 1 is accepted only for a non-principal chi's context (PoleError
    otherwise). zeta(s, a) = 1/(s-1) - psi(a) + O(s-1) (DLMF 25.11), and
    the pole, the same for every a, cancels in the sum since
    sum_a chi(a) = 0, leaving L(1, chi) = -(1/q) sum_a chi(a) psi(a/q).
    zeta_MB carries the same pole in w^(1-s)/(s-1) = 1/(s-1) - log w
    + O(s-1), so _em_sum takes -log w in its place. The remainder
    zeta - zeta_MB is analytic at s = 1, so the truncation bound, continuous
    in s, holds there as the limit of its values nearby. For K: x^(-1) = 1/x
    and q^(-1) = 1/q are one rounding each, inside their x^(-s) and q^(-s)
    entries; log w is within 3u (w's 2u move it 2u absolutely, under 1u of
    log w >= log 8, and libm adds 2), so with w^(-1)/2 and the subtraction
    it fits the boundary terms' 10, and mag counts log w > 0.

    The returned bound is absolute and sums three parts:
    - truncation: the Euler-Maclaurin remainder bound of each a_i, summed
      and scaled by q^(-sigma). M and B escalate from _START_M and _START_B,
      once for the whole vector, until it is at most eps/8.
    - rounding: every term is evaluated in longdouble (see _em_sum) and
      the bound adds K u sum|terms added| |q^(-s)|, u the longdouble unit
      roundoff, plus 14 u sum_j j |Bernoulli term j|. To first order in u,
      assuming IEEE arithmetic and libm log/exp/cos/sin within 2 ulps, K
      sums these relative errors, each a multiple of u:
      - a_i/q and n + a_i carry 2, so x^(-s) = exp(-sigma log x)
        cis(-t log x) is off by at most 2|s|(2 + 5L) + 13, with
        L = max(log(M+1), -log min a_i/q);
      - the Bernoulli chain (rising factorials, powers of w^-2) adds at
        most 14j + 5 on term j: the 5 goes into K, the 14j into the
        jmag term;
      - the boundary terms w^(1-s)/(s-1) and w^(-s)/2 add 10;
      - the sums of one a, at most M - 1 additions over the power terms,
        B - 1 in the Bernoulli dot product and 3 joining them, add
        M + B + 3 of sum|terms|;
      - chi's roots of unity add 60 and their products 3;
      - the fold over the residues adds d, the number of additions
        `_fold` puts each weighted value through: ceil(log2 rows) within
        a block of `rows` residues plus ceil(log2 blocks) over the block
        sums, so d <= ceil(log2 m) + 1 for m residues (Higham, Accuracy
        and Stability of Numerical Algorithms, 2nd ed., section 4.2,
        where a recursive sum would need m);
      - q^(-s) with its product adds 2|s|(2 + 5 log q) + 16.
      Rounded up, K = 2|s|(4 + 5L + 5 log q) + M + B + d + 110. On the
      real axis the same operations run in real longdouble, each rounding
      at most as often as its complex form, so the same K holds; with no
      weights (plain a) the products drop out, and K still bounds.
      mpmath evaluates the same terms at unit roundoff 2^-prec, folds the
      residues the same way (d = ceil(log2 m)), and is priced by the same
      formula.
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
    ctx = a if isinstance(a, LContext) else None
    if s == 1 and ctx is None:
        raise PoleError("zeta(s, a) has its only pole at s = 1")
    if s == 1 and ctx.chi.is_principal:
        raise PoleError("L(s, principal chi) has a pole at s = 1")
    q = 1 if ctx is None else ctx.chi.modulus
    a64, ald, a_min = _points(a, 1) if ctx is None else ctx.points
    if not abs(s) <= MAX_ABS_S:                 # NaN fails here too
        raise DomainError(f"|s| = {abs(s)!r}; only |s| <= {MAX_ABS_S:g}"
                          f" is supported")
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps:g}")
    B = max(_START_B, int((2 - s.real) / 2) + 3)
    M = max(_START_M, int(abs(s)))
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
                    f"Euler-Maclaurin bound stuck above eps={eps:g} for s={s}"
                    f" at M = {M}, B = {B}")
            M *= 2
        else:
            B += 8
    val, rounding = _em_sum(s, ald, a_min, M, B,
                            None if ctx is None else ctx.roots, q)
    budget = eps - trunc
    if not (np.isfinite(val) and rounding <= budget):
        val, rounding = _em_sum_bigfloat(
            s, a64 if ctx is None else ctx.vector[0], ctx, M, B, budget,
            rounding)
        if not rounding <= budget:
            raise PrecisionError(
                f"rounding bound {rounding:.3g} above eps={eps:g} for s={s}"
                f" even on mpmath, at M = {M}, B = {B}")
    val = complex(val) + 0j            # + 0j turns a -0.0 part into 0.0
    return val, trunc + rounding + abs(val) * 2.0 ** -52


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
    order), `points` (r/q for the Hurwitz pass), `roots` e(k/order), `tau`
    and `root_number`, each derived at most once and dropped with the
    context. Every helper here reads them from the context it is given as
    chi, or builds one (`_context`)."""

    chi: Character
    eps: float = 1e-12

    def __post_init__(self):
        # checked here, not first at a Hurwitz pass: root_number reads it too
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
    def points(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The residues over q as `_points` gives them: a/q in float64 and
        longdouble, and its minimum."""
        return _points(self.vector[0], self.chi.modulus)

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


def L_value_with_bound(ctx: LContext, s) -> tuple[complex, float]:
    """L(s, chi) and an absolute bound on its error.

    This is one hurwitz_zeta_with_bound call on all residues coprime to q,
    s = 1 included, so chi's roots of unity, the sum over residues and
    q^(-s) are formed in longdouble and the value is rounded to complex128
    once. The bound is at most ctx.eps plus |value| 2^-52 for that
    rounding. PoleError at s = 1 for principal chi.
    """
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

    L(1, conj chi) is conj L(1, chi), one Hurwitz pass at s = 1 on chi's
    own context: e(-k/order) of `_unit_roots` is the exact conjugate of
    e(k/order) and the pass's zeta values are real, so this has the bits of
    the pass on conj chi up to the sign of a zero part. It stays
    independent of `lprime0_direct`: the Euler-Maclaurin sum and tau(chi),
    not log-gamma.
    """
    ctx = _context(chi)
    _even_primitive(ctx, "functional-equation route")
    return (ctx.root_number * math.sqrt(ctx.chi.modulus)
            * L_value(ctx, 1).conjugate() / 2)


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
            f"L'(0, chi) routes disagree by {gap:.3e} for {ctx.chi.label}:"
            f" {direct!r} direct, {via_fe!r} by the functional equation")
    return direct


def euler_factor_ratio(mc: ModifiedCharacter, s) -> complex:
    """prod over S of (1 - chi(p) p^-s) / (1 - f(p) p^-s), ascending in p,
    from `EulerFactor.value` (PoleError at a pole, NearPoleWarning near one)."""
    return math.prod((e.value(complex(s)) for e in mc.factors), start=1 + 0j)


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

    factors holds each `EulerFactor`'s (p, group, lead). The headline
    value is always c_chi * k!/(N+k)! * product of the leads, so it can be
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
        return math.prod((f for _, _, f in self.factors),
                         start=self.c_chi * float(self.factorial_ratio))

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
    """a_{N+k} = c_chi * k!/(N+k)! * the product of the Euler factors' leads,
    R_k's (log x)^(N+k) coefficient over k! while `mc.order_at_zero` >= 0.
    At a zero of order z of F at 0 it is lim F(s)/s^z and R_k has degree
    k - z: the value stays, and UntrustedTheoryWarning names z."""
    if k < 0:
        raise DomainError("order k must be nonnegative")
    if not mc.theory_trusted:
        warnings.warn(
            "base character is imprimitive; leading coefficient is untrusted",
            UntrustedTheoryWarning, stacklevel=2)
    order = mc.order_at_zero
    if order < 0:
        warnings.warn(f"F has a zero of order {-order} at s = 0: a_(N+k) is"
                      f" its first nonzero Taylor coefficient, and R_k's"
                      f" (log x)^k coefficient is 0", UntrustedTheoryWarning,
                      stacklevel=2)
    n_pole = max(0, order)
    c_val, c_exact = l_special_factor(mc.base)
    # k!/(N+k)! is 1 over N factors: O(N) work at any k, where two
    # factorials and their gcd take seconds at k = 10^6
    ratio = Fraction(1, math.prod(range(k + 1, k + n_pole + 1)))
    factors = tuple((e.p, e.group, e.lead) for e in mc.factors)
    value = math.prod((f for _, _, f in factors), start=c_val * float(ratio))
    return LeadingCoefficient(n_pole, k, value, c_val, c_exact, ratio,
                              factors)
