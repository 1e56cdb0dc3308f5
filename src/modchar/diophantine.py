"""Rational approximation of log p / log q and the pole-series diagnostic.

The analytic continuation of F(s) has poles accumulating on the imaginary
axis at ordinates 2 pi (a/b + n)/log q, so how close the partial-sum
contour can push left is governed by how well numbers log p / log q are
approximated by rationals. This module computes validated continued
fractions of those ratios, the exponent mu = gamma log p log q, the
resulting minimal admissible Riesz order, and a partial-sum trace of the
series sum_n n^(-k) prod_p |1 - e(n log p / log q)|^(-1) whose spikes sit
exactly at convergent denominators.

One exact log pair serves a whole table: Lp = floor(log p * 2^(2 bits))
and Lq likewise. Partial quotients come from the Euclidean algorithm on
(Lp >> bits, Lq >> bits), which is exactly (floor(log p * 2^bits),
floor(log q * 2^bits)) since floor(floor(y 2^(2b)) / 2^b) = floor(y 2^b),
and again on (Lp, Lq); only the agreeing prefix of quotients is kept,
since the tail bits of a fixed precision log can flip late quotients.
Each convergent's quality comes from the integer residual |Lp b - h Lq|,
with no further log at high precision.

The pole series runs in blocks of _SERIES_BLOCK = 2^14 integers over
buffers made once per call, so its transient memory (1.3 MiB with three
primes in the product) does not grow with n_max. Per prime, n 2a mod 2^64
for the 63-bit fixed-point angle a is one wrapping int64 add; read signed,
it is 2^64 times the signed distance of f = n a 2^-63 from the nearest
integer, and a float abs reflects it exactly onto (0, 1/2]. Then
1/|2 sin(pi f)| = (t + 1/t)/4 with t = tan(pi f / 2) <= 1: numpy runs
float64 tan in SIMD, sin not. n^k comes from the exact n^2 by binary
powering, and a term is one division g / n^k. A term is within
(9P + ceil(k/2)) u of its value on the fixed-point angles (P primes in the
product, u = 2^-53) while it is a normal float; the angles themselves add
pi n 2^-64 / |sin(pi f)| per prime, which dominates from n ~ 10^4 on.
Beyond the dense rows a partial sum is the carry of earlier blocks plus
pairwise segment sums between the block's checkpoints, within 80u of the
exact sum of the terms.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DomainError, InvalidPrimeError, PrecisionError,
                     TruncatedTableWarning)
from .characters import is_prime
from .modified import ModifiedCharacter
from .sieve import checkpoints_from_rule
from .summation import NeumaierSum

MAX_DEPTH = 200
MIN_BITS = 128
# 1024 bits already trust depth MAX_DEPTH + 1; the 2 bits-bit logs take
# a second or two at 2^16 bits and minutes at 2^20
MAX_BITS = 1 << 16
MAX_SERIES_N = 10**7
_FRAC_BITS = 63
_SERIES_BLOCK = 1 << 14
# pi 2^-65: the signed 64-bit angle 2m of f = m 2^-63 times this is pi f / 2
_QUARTER_ANGLE = math.pi * 2.0 ** -65
# pole_series_diagnostic keeps every row for n <= _FULL_ROWS, then only
# the checkpoints
_FULL_ROWS = 4096


def _scaled_log(n: int, bits: int) -> int:
    """floor(log(n) * 2^bits) with all bits correct.

    mpmath's log (AGM-based at high precision) is accurate to its working
    precision; a generous guard makes the floor itself safe.
    """
    import mpmath as mp

    with mp.workprec(bits + 64):
        return int(mp.floor(mp.log(n) * mp.mpf(2) ** bits))


def _euclid_quotients(num: int, den: int, depth: int) -> list[int]:
    """Partial quotients of num/den, at most depth of them."""
    out: list[int] = []
    while den and len(out) < depth:
        a, num = divmod(num, den)
        out.append(a)
        num, den = den, num
    return out


@dataclass(frozen=True)
class ConvergentTable:
    """Validated continued fraction data for alpha = log p / log q."""

    p: int
    q: int
    precision: int
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    quality: tuple[float, ...]
    trusted_depth: int

    def rows(self):
        """(a_i, h_i, b_i, quality_i) per convergent, for tabular output."""
        return list(zip(self.partial_quotients,
                        (h for h, _ in self.convergents),
                        (b for _, b in self.convergents),
                        self.quality))


def _quality(r: int, den: int, b: int) -> float:
    """-log(r / den) / log(b), for the exact gap r / den > 0 and b >= 2.

    r / den is Python's correctly rounded int/int division. If it falls
    below the normal float64 range, log(r / den) is taken as
    log r - log den instead, from math.log of the integers.
    """
    gap = r / den
    log_gap = (math.log(gap) if gap >= sys.float_info.min
               else math.log(r) - math.log(den))
    return -log_gap / math.log(b)


def continued_fraction(p: int, q: int, depth: int = 40,
                       bits: int = 256) -> ConvergentTable:
    """Continued fraction of log p / log q with self-validated quotients.

    From one exact pair Lp = floor(log p 2^(2 bits)), Lq likewise, the
    quotients come from the Euclidean algorithm on (Lp >> bits, Lq >> bits)
    = (floor(log p 2^bits), floor(log q 2^bits)) and on (Lp, Lq); only the
    agreeing prefix is trusted. Asking for more quotients than the
    precision supports returns the trusted prefix and warns rather than
    inventing digits.

    quality_i = -log|alpha - h/b| / log b, the exponent with
    |alpha - h/b| = b^(-quality), is inf for b < 2. The gap is taken as
    g = r / (Lq b), r = |Lp b - h Lq|, exactly as integers, so no log at
    high precision is made per convergent. Since Lp/Lq is within
    e = max(1, alpha) / Lq of alpha, g has relative error at most e / g.
    The float steps add, with u = 2^-53 and math.log within one ulp, at
    most u for rounding g and b, 2u for each log and u for the division.
    Against |log g| > log 4 (a convergent has g < 1/b^2) and log b >= log 2
    that is a relative error of at most 8u + e / g in quality; e / g stays
    below 1e-38 on the tables the tests check (128 to 1024 bits, depth up
    to 200). If g underflows float64, log g is log r - log(Lq b) from
    integer logs, with a relative error of at most
    8u (log r + log(Lq b)) / |log g| instead.
    """
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise InvalidPrimeError(
            f"need two distinct primes, got p={p}, q={q}")
    if not MIN_BITS <= bits <= MAX_BITS:
        raise DomainError(f"bits must be in [{MIN_BITS}, {MAX_BITS}],"
                          f" got {bits}")
    if not 1 <= depth <= MAX_DEPTH:
        raise DomainError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")

    lp, lq = _scaled_log(p, 2 * bits), _scaled_log(q, 2 * bits)
    quots = _euclid_quotients(lp >> bits, lq >> bits, depth + 1)
    check = _euclid_quotients(lp, lq, depth + 1)
    agree = 0
    while agree < min(len(quots), len(check)) and quots[agree] == check[agree]:
        agree += 1
    if agree < depth:
        warnings.warn(
            f"only {agree} partial quotients of log {p}/log {q} are stable"
            f" at {bits} bits; table truncated (asked for {depth})",
            TruncatedTableWarning, stacklevel=2)
    kept = quots[:min(agree, depth)]

    h2, h1, b2, b1 = 0, 1, 1, 0     # h_{-2}, h_{-1}, b_{-2}, b_{-1}
    convs: list[tuple[int, int]] = []
    quality: list[float] = []
    for a in kept:
        h2, h1 = h1, a * h1 + h2
        b2, b1 = b1, a * b1 + b2
        convs.append((h1, b1))
        r = abs(lp * b1 - h1 * lq)
        quality.append(math.inf if b1 < 2 or r == 0
                       else _quality(r, lq * b1, b1))

    return ConvergentTable(p, q, bits, tuple(kept), tuple(convs),
                           tuple(quality), agree)


def reconstruct_alpha(table: ConvergentTable) -> Fraction:
    """Fold the partial quotients back into a single rational.

    No command calls it: it is the test oracle for `continued_fraction`'s
    `bits`, folding the trusted quotients back to compare with log p/log q.
    """
    if not table.partial_quotients:
        raise DomainError("empty quotient list")
    x = Fraction(table.partial_quotients[-1])
    for a in reversed(table.partial_quotients[:-1]):
        x = a + 1 / x
    return x


def bugeaud_mu(p: int, q: int, gamma: float) -> float:
    """The exponent mu = gamma * log p * log q.

    gamma is a configuration knob: only the existence of a workable value,
    uniform in p and q, is known. Every downstream threshold carries the
    gamma it was computed with.
    """
    if not (is_prime(p) and is_prime(q)):
        raise InvalidPrimeError(f"need primes, got p={p}, q={q}")
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    # grouped so that exchanging p and q is exact, not just near
    return gamma * (math.log(p) * math.log(q))


def min_riesz_order(mc: ModifiedCharacter, gamma: float) -> int:
    """Least admissible Riesz order: ceil(10 + gamma (|S|+1) max (log p)^2).

    With S empty there are no off-axis poles to dodge and any order works,
    so the answer is 0. DomainError if the threshold overflows a float.
    """
    if not 0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    primes = mc.primes
    if not primes:
        return 0
    worst = max(math.log(p) for p in primes) ** 2
    threshold = 10 + gamma * (len(primes) + 1) * worst
    if not math.isfinite(threshold):
        raise DomainError(f"the order threshold overflows at gamma = {gamma:g}")
    return math.ceil(threshold)


@dataclass(frozen=True)
class PoleSeriesTrace:
    """Partial-sum trace of the pole series at one anchor prime.

    verdict is heuristic by construction: a numerical partial sum cannot
    prove convergence, it can only compare the observed spike growth
    against the n^(-k) decay.
    """

    anchor: int
    k: int
    n_max: int
    ns: np.ndarray
    terms: np.ndarray
    partials: np.ndarray
    max_term: float
    max_term_n: int
    records: tuple[tuple[int, float], ...]
    spike_exponent: float
    tail_estimate: float
    total_estimate: float
    verdict: str

    def rows(self):
        return list(zip(self.ns.tolist(), self.terms.tolist(),
                        self.partials.tolist()))


def _fixed_point_angles(others: list[int], anchor: int) -> list[int]:
    """frac(log p / log anchor) as a 63-bit fixed-point integer."""
    import mpmath as mp

    with mp.workprec(2 * _FRAC_BITS):
        lq = mp.log(anchor)
        return [int(mp.nint(mp.frac(mp.log(p) / lq) * 2 ** _FRAC_BITS))
                for p in others]


def _signed64(v: int) -> int:
    """v mod 2^64 as a two's-complement int64 value."""
    v &= (1 << 64) - 1
    return v - (1 << 64) if v >> 63 else v


def _power_from_square(n: np.ndarray, sq: np.ndarray, k: int) -> np.ndarray:
    """n^k by binary powering of sq = n^2, k >= 2.

    Both buffers are overwritten; the one that holds n^k is returned.
    floor(log2(k // 2)) squarings and popcount(k // 2) - 1 products, and
    one product by n for odd k: an exact n^2 comes out with a relative
    error of at most (ceil(k/2) - 1) u to first order, u = 2^-53.
    """
    e = k >> 1
    acc = n if k & 1 else None
    while True:
        if e & 1:
            if acc is not None:
                acc *= sq
            elif e == 1:
                return sq
            else:
                np.copyto(n, sq)
                acc = n
        e >>= 1
        if not e:
            return acc
        sq *= sq


def _new_records(g: np.ndarray, best: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of the entries of g above best and above every
    earlier entry. Only the entries above best can be one, so only they
    are scanned."""
    cand = np.flatnonzero(g > best)
    top = g[cand]
    np.maximum.accumulate(top, out=top)
    new = np.ones(len(top), dtype=bool)
    np.greater(top[1:], top[:-1], out=new[1:])
    return cand[new], top[new]


def pole_series_diagnostic(mc: ModifiedCharacter, anchor: int, k: int,
                           n_max: int) -> PoleSeriesTrace:
    """Partial sums of sum_n n^(-k) prod_{p in S, p != anchor} 1/|1 - e(n a_p)|.

    a_p = log p / log anchor. The product factor spikes exactly when some
    n a_p is near an integer, i.e. at convergent denominators of a_p, so the
    trace keeps every running record of the product alongside geometrically
    spaced partial sums. Full per-n rows are kept while n <= _FULL_ROWS.

    Each block of _SERIES_BLOCK integers is a few passes over P + 5
    buffers of that length (1 MiB at P = 3), made once per call. Per
    prime, n 2a mod 2^64 for the 63-bit fixed-point angle a of a_p is the
    block's start lo 2a plus a step table j 2a, one wrapping int64 add.
    Read signed, the sum is 2^64 times the signed distance of
    f = n a 2^-63 from the nearest integer, so |sum| pi 2^-65 = pi f / 2
    with f reflected exactly onto (0, 1/2]; the abs is taken on the float,
    since the int64 -2^63 (f = 1/2) has none. Then 1/|2 sin(pi f)| =
    (t + 1/t)/4 with t = tan(pi f / 2) <= 1. n^k is binary powering of
    the exact n^2 (n <= MAX_SERIES_N < 2^26.5), and the term is g / n^k.
    Rows with n <= _FULL_ROWS take their partial sums from a cumsum over
    the block on the Neumaier carry of earlier block sums; a later
    checkpoint's is the carry, or the previous checkpoint's of the block,
    plus the np.add.reduceat sum of the terms since, chained in order.
    One index array gathers the kept rows, and the records are scanned
    only among the n whose product beats the largest of earlier blocks.
    Values and summation order do not depend on how rows and records are
    gathered.

    Error of a term against its value on the fixed-point angles, with
    u = 2^-53, P = len(S) - 1 and numpy's float64 tan within 1 ulp
    (0.51 ulp measured with numpy 2.4 on AVX-512): the angle
    |2m| pi 2^-65 carries 2.35u (2m to float, pi, the product), which
    tan's condition 2x / sin 2x <= pi/2 on (0, pi/4] makes 3.7u; tan adds
    2u, 1/t and the sum 2u, so 7.7u a factor; the P - 1 products add
    P - 1. n^k is floor(log2(k/2)) squarings and popcount(k // 2) - 1
    products of the exact n^2, and one product by n for odd k: at most
    (ceil(k/2) - 1) u, one rounding at k = 4; the division adds u. The
    bound (9P + ceil(k/2)) u, (9P + 2) u at k = 4, covers the
    second-order terms; at most 6.5u is measured on S = {2, 3, 5, 11}.
    It holds while the term is a normal float, which k log2 n < 1021 - P
    ensures: where k log2 n >= 1024, n^k is inf and the term is 0.
    The 63-bit angles, within 2^-64 of frac(a_p), add a relative
    pi n 2^-64 / |sin(pi f)| per prime, which dominates from n ~ 10^4 on:
    at the n = 648,887 record of S = {2, 3, 5, 11}, anchor 11, it bounds
    the error by 7.3e-7 (4.2e-7 actual).

    A dense row's partial (n <= _FULL_ROWS, first block, carry 0) is one
    sequential cumsum: within (n - 1)u of the exact sum of the computed
    terms, all positive, and 46u measured on S = {2, 3, 5, 11}, k = 4.

    Error of a partial sum beyond the dense rows against the exact sum of
    the computed terms up to its n, all positive: a term passes at most
    34 roundings in numpy's sum of at most 2^14 terms or in a reduceat
    segment (8 halvings, 8 lanes of 16 and a tail of 7 in a leaf of 128,
    and the first term or the identity), 2 more in the Neumaier fold of
    block sums and at most 34 chained additions (the geometric:1.05
    checkpoints past n = 4096 in one block): 70 roundings, so 80u covers
    it with the second-order terms.
    """
    if k < 2:
        raise DomainError(f"series needs k >= 2, got {k}")
    if not 1 <= n_max <= MAX_SERIES_N:
        raise DomainError(f"n_max must be in [1, {MAX_SERIES_N}], got {n_max}")
    if anchor not in mc.primes:
        raise InvalidPrimeError(
            f"anchor {anchor} is not one of the modified primes {mc.primes}")
    others = [p for p in mc.primes if p != anchor]
    angles = _fixed_point_angles(others, anchor)
    # n * frac(log p / log anchor) is never an integer: p and the anchor
    # are multiplicatively independent. Only the fixed-point angle a can
    # land on one, first at n = 2^63 / gcd(a, 2^63).
    first = min(((1 << _FRAC_BITS) // math.gcd(a, 1 << _FRAC_BITS)
                for a in angles), default=n_max + 1)
    if first <= n_max:
        raise PrecisionError(
            f"{_FRAC_BITS}-bit angle of n log p / log {anchor} rounds"
            f" to an integer at n = {first}")
    checkpoints = checkpoints_from_rule("geometric:1.05", n_max)

    # buffers for one block, made once per call: the transient memory does
    # not grow with n_max
    width = min(_SERIES_BLOCK, n_max)
    doubled = [_signed64(2 * a) for a in angles]
    steps = [np.arange(width, dtype=np.int64) * np.int64(d) for d in doubled]
    s = np.empty(width, dtype=np.int64)
    t = np.empty(width)
    g = np.empty(width)
    term = np.empty(width)
    offsets = np.arange(width, dtype=np.float64)

    acc = NeumaierSum()
    ns: list[np.ndarray] = []
    terms: list[np.ndarray] = []
    partials: list[np.ndarray] = []
    records: list[tuple[int, float]] = []
    best_g = 0.0
    max_term = 0.0
    max_term_n = 1
    last_decade_start = max(1, n_max // 10)
    sum_g_tail = 0.0
    cnt_tail = 0

    for lo in range(1, n_max + 1, width):
        hi = min(lo + width, n_max + 1)
        w = hi - lo
        gw, sw, tw, tm = g[:w], s[:w], t[:w], term[:w]
        # the /4 of every factor at once: a power of two, exact
        gw.fill(0.25 ** len(angles))
        for d, step in zip(doubled, steps):
            # n 2a mod 2^64 = lo 2a + j 2a: the int64 sum wraps mod 2^64.
            # Read signed it is 2^64 times the signed distance of f from
            # the nearest integer, so the float abs reflects f onto
            # (0, 1/2] exactly; -2^63 (f = 1/2) has no int64 abs
            np.add(step[:w], np.int64(_signed64(lo * d)), out=sw)
            # 1/|2 sin(pi f)| = (t + 1/t)/4 with t = tan(pi f / 2) <= 1;
            # term holds 1/t until the terms are made
            np.multiply(sw, _QUARTER_ANGLE, out=tw)
            np.abs(tw, out=tw)
            np.tan(tw, out=tw)
            np.divide(1.0, tw, out=tm)
            tm += tw
            gw *= tm
        np.add(offsets[:w], lo, out=tm)
        np.multiply(tm, tm, out=tw)         # n^2 < 2^53: exact
        with np.errstate(over="ignore"):    # n^k = inf: the term is 0
            np.divide(gw, _power_from_square(tm, tw, k), out=tm)

        j = int(np.argmax(tm))
        if tm[j] > max_term:
            max_term = float(tm[j])
            max_term_n = lo + j
        # running records of the product factor locate the spikes: n is a
        # record when its g beats every earlier g, earlier blocks included
        rec, top = _new_records(gw, best_g)
        if len(rec):
            records.extend(zip((lo + rec).tolist(), top.tolist()))
            best_g = float(top[-1])
        if hi > last_decade_start:
            cut = max(lo, last_decade_start)
            sum_g_tail += float(np.sum(gw[cut - lo:]))
            cnt_tail += hi - cut

        dense = max(min(hi, _FULL_ROWS + 1) - lo, 0)
        a, b = np.searchsorted(checkpoints, (max(lo, _FULL_ROWS + 1), hi))
        cps = checkpoints[a:b] - lo
        if dense or len(cps):
            keep = np.concatenate((np.arange(dense), cps))
            ns.append(lo + keep)
            terms.append(tm[keep])
            part = np.empty(len(keep))
            if dense:
                np.cumsum(tm[:dense], out=part[:dense])
                part[:dense] += acc.value
            if len(cps):
                # each checkpoint's partial: the carry, then the segment
                # sums from the block start or the previous checkpoint on
                segs = np.add.reduceat(tm[:cps[-1] + 1],
                                       np.concatenate(([0], cps[:-1] + 1)))
                segs[0] += acc.value
                np.cumsum(segs, out=part[dense:])
            partials.append(part)
        acc.add(float(np.sum(tm)))

    # Spike envelope exponent: how fast product records grow with n.
    spike = 0.0
    for nrec, grec in records:
        if nrec >= 2 and grec > 1.0:
            spike = max(spike, math.log(grec) / math.log(nrec))
    # zeta-style tail with the mean product factor over the last decade;
    # exact (empty product aside) only in the sense of Euler-Maclaurin.
    g_mean = sum_g_tail / cnt_tail if cnt_tail else 1.0
    w = float(n_max) + 1.0
    tail = g_mean * (w ** (1 - k) / (k - 1) + w ** (-k) / 2
                     + k * w ** (-k - 1) / 12)
    total = acc.value + tail
    if k - spike > 1.0:
        verdict = (f"convergent (heuristic): records grow like n^{spike:.3f}"
                   f" against decay n^-{k}")
    else:
        verdict = (f"inconclusive (heuristic): records grow like"
                   f" n^{spike:.3f}, too close to the decay n^-{k}")
    return PoleSeriesTrace(anchor, k, n_max, np.concatenate(ns),
                           np.concatenate(terms), np.concatenate(partials),
                           max_term, max_term_n, tuple(records), spike, tail,
                           total, verdict)
