"""Block-sieved evaluation of f(n) and its smoothed partial sums.

The engine factors every n in a block [lo, hi) by dividing out prime powers
of p <= sqrt(hi-1) (plus all primes of the modulus and the override set),
accumulating exact angle numerators as int64 multiples of 1/D turns, D being
the lcm of all value orders. Whatever remains in the quotient array after
division is 1 or a single large prime, finished off by a character table
lookup. Angles stay integers until the final complex conversion, so sieved
values equal the trial-factorization oracle exactly, not just to rounding.

All reductions run on the fixed 4096-chunk grid from `summation`, which
makes every reported sum bit-identical under any block size or thread
count. Riesz means of all requested orders come out of one pass: the engine
accumulates power sums P_j = sum f(n) (log n - c)^j per chunk, centered at
each chunk's own log-midpoint c, and recombines binomially at checkpoints
with exact float summation. Local centering keeps |log n - c| below 2.1
everywhere, so the accumulated mass carries no rounding worth mentioning
and k = 200 stays inside float64 range.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (BlockSizeError, DomainError, InvariantError,
                     OrderTooLargeError)
from .modified import ModifiedCharacter
from .summation import CHUNK, ComplexNeumaierSum, chunk_cuts, piecewise_sums

DEFAULT_BLOCK = 1 << 20
MAX_BLOCK = 1 << 22
MAX_SIEVE_X = 10**9
MAX_ORDER = 200


def thread_count(threads: int | None = None) -> int:
    """Worker count: explicit argument, else MODCHAR_THREADS, else 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("MODCHAR_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def primes_upto(n: int) -> np.ndarray:
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


class SieveContext:
    """Prepared tables for streaming one modified character over blocks."""

    def __init__(self, mc: ModifiedCharacter, x_max: int,
                 block_size: int | None = None, threads: int | None = None):
        if x_max < 0 or x_max > MAX_SIEVE_X:
            raise DomainError(f"x_max must be in [0, {MAX_SIEVE_X}], got {x_max}")
        bs = DEFAULT_BLOCK if block_size is None else int(block_size)
        if bs < 1:
            raise BlockSizeError(f"block size must be positive, got {bs}")
        if bs > MAX_BLOCK:
            raise BlockSizeError(
                f"block size {bs} exceeds the memory budget; the engine holds"
                f" several 8-byte arrays per element, use <= {MAX_BLOCK}")
        self.mc = mc
        self.x_max = int(x_max)
        self.block = -(-bs // CHUNK) * CHUNK
        self.threads = thread_count(threads)
        chi = mc.base
        q = chi.modulus
        self.q = q
        scale = chi.order
        for _, v in mc.modifications:
            scale = math.lcm(scale, v.order)
        self.scale = scale
        self.chi_table = chi.angle_numerators(scale)
        # f(p) for every prime needing special treatment: the override set
        # plus primes of q (where chi vanishes). None encodes f(p) = 0.
        special: dict[int, int | None] = {}
        for p, _ in chi.group.factorization:
            special[p] = None
        for p, v in mc.modifications:
            special[p] = int(v.angle * scale)
        self.special = special
        limit = math.isqrt(max(self.x_max - 1, 0))
        base = primes_upto(limit)
        self.generic_primes = np.array(
            [p for p in base.tolist() if p not in special], dtype=np.int64)
        self.special_list = sorted(special)
        self.is_real = scale <= 2
        self.exp_table = None
        if scale <= 1 << 16:
            ang = 2j * np.pi * np.arange(scale) / scale
            self.exp_table = np.exp(ang)

    def block_angles(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Angle numerators (mod scale) and zero mask for n in [lo, hi)."""
        m = hi - lo
        t = np.zeros(m, dtype=np.int64)
        zero = np.zeros(m, dtype=bool)
        rem = np.arange(lo, hi, dtype=np.int64)
        limit = math.isqrt(hi - 1)
        q, scale = self.q, self.scale
        cut = int(np.searchsorted(self.generic_primes, limit, side="right"))
        sweep = [(int(p), int(self.chi_table[p % q]))
                 for p in self.generic_primes[:cut]]
        sweep += [(p, self.special[p]) for p in self.special_list]
        for p, ang in sweep:
            pe = p
            while pe < hi:
                start = -(-lo // pe) * pe
                if start < pe:
                    start = pe
                if start >= hi:
                    break
                sl = slice(start - lo, m, pe)
                rem[sl] //= p
                if ang is None:
                    if pe == p:
                        zero[sl] = True
                else:
                    t[sl] += ang
                pe *= p
        left = rem > 1
        if q > 1 and left.any():
            look = self.chi_table[rem[left] % q]
            if not (look >= 0).all():
                raise InvariantError("a sieve leftover is not coprime to the"
                                     " modulus")
            t[left] += look
        t %= scale
        if lo == 0:
            zero[0] = True
        return t, zero

    def block_values(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Complex f(n) for n in [lo, hi), plus exact int8 values when real."""
        t, zero = self.block_angles(lo, hi)
        if self.is_real:
            iv = (1 - 2 * (t % 2)).astype(np.int8)
            iv[zero] = 0
            return iv.astype(np.complex128), iv
        if self.exp_table is not None:
            vals = self.exp_table[t]
        else:
            vals = np.exp(2j * np.pi * t / self.scale)
        vals = vals.copy()
        vals[zero] = 0
        return vals, None

    def block_bounds(self) -> list[tuple[int, int]]:
        out = []
        lo = 1
        while lo <= self.x_max:
            hi = min(lo + self.block, self.x_max + 1)
            out.append((lo, hi))
            lo = hi
        return out

    def iter_blocks(self):
        """Yield (lo, hi, complex values, exact int values or None) in order."""
        bounds = self.block_bounds()
        if self.threads <= 1:
            for lo, hi in bounds:
                cv, iv = self.block_values(lo, hi)
                yield lo, hi, cv, iv
            return
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            window = self.threads + 2
            futures = {}
            for i, (lo, hi) in enumerate(bounds[:window]):
                futures[i] = pool.submit(self.block_values, lo, hi)
            for i, (lo, hi) in enumerate(bounds):
                cv, iv = futures.pop(i).result()
                nxt = i + window
                if nxt < len(bounds):
                    futures[nxt] = pool.submit(self.block_values, *bounds[nxt])
                yield lo, hi, cv, iv


def sieve_values(mc: ModifiedCharacter, x_max: int,
                 block_size: int | None = None, threads: int | None = None):
    """Stream f(1), f(2), ..., f(x_max) as complex numbers."""
    ctx = SieveContext(mc, x_max, block_size, threads)
    for _, _, cv, _ in ctx.iter_blocks():
        yield from cv


def checkpoints_from_rule(rule, x_max: int) -> np.ndarray:
    """Materialize a checkpoint rule: every:n, geometric:r, dyadic, or a list.

    The final checkpoint is always x_max.
    """
    if x_max < 1:
        raise DomainError("x_max must be at least 1 for checkpoints")
    if not isinstance(rule, str):
        pts = sorted({int(c) for c in rule})
        if not pts or pts[0] < 1 or pts[-1] > x_max:
            raise DomainError("explicit checkpoints must lie in [1, x_max]")
        if pts[-1] != x_max:
            pts.append(x_max)
        return np.array(pts, dtype=np.int64)
    name, _, arg = rule.partition(":")
    pts: list[int] = []
    if name == "dyadic":
        c = 1
        while c <= x_max:
            pts.append(c)
            c *= 2
    elif name == "every":
        step = int(arg or 1)
        if step < 1:
            raise DomainError(f"every:{arg}: step must be >= 1")
        pts = list(range(step, x_max + 1, step))
    elif name == "geometric":
        ratio = float(arg or 2.0)
        if ratio <= 1.0:
            raise DomainError(f"geometric:{arg}: ratio must exceed 1")
        c = 1
        while c <= x_max:
            pts.append(c)
            c = max(c + 1, int(c * ratio))
    else:
        raise DomainError(f"unknown checkpoint rule {rule!r}")
    if not pts or pts[-1] != x_max:
        pts.append(x_max)
    return np.array(sorted(set(pts)), dtype=np.int64)


@dataclass
class PartialSumSeries:
    """M(x) at checkpoints; exact integer sums ride along for real f.

    sums is the best available route (exact integers when all values are
    0/+-1, the compensated float accumulation otherwise); float_sums keeps
    the compensated route in both cases so the two can be compared.
    """

    checkpoints: np.ndarray
    sums: np.ndarray
    exact_sums: np.ndarray | None
    x_max: int
    checkpoint_rule: str
    config_digest: str
    source: ModifiedCharacter | None = field(default=None, repr=False)
    float_sums: np.ndarray | None = field(default=None, repr=False)

    def rows(self):
        for x, s in zip(self.checkpoints, self.sums):
            yield int(x), s.real, s.imag


@dataclass
class RieszRecord:
    """Riesz means of several orders at shared checkpoints, single pass."""

    orders: tuple[int, ...]
    checkpoints: np.ndarray
    values: np.ndarray              # shape (len(orders), len(checkpoints))
    normalized: bool
    x_max: int
    center: float                   # u0 used by the centered power sums
    config_digest: str
    source: ModifiedCharacter | None = field(default=None, repr=False)

    def row(self, k: int) -> np.ndarray:
        return self.values[self.orders.index(k)]

    def rows(self):
        for i, k in enumerate(self.orders):
            for x, v in zip(self.checkpoints, self.values[i]):
                yield int(x), k, v.real, v.imag


def _checkpoint_walk(ctx: SieveContext, checkpoints: np.ndarray, consume):
    """Drive blocks through chunk-grid pieces, snapshotting at checkpoints.

    consume(lo, hi, cv, iv, cuts, snap_at) is called per block, where cuts
    are the absolute piece boundaries inside (lo, hi) and snap_at maps a
    piece end position to the checkpoint index to record after folding that
    piece.
    """
    cp_plus = checkpoints + 1
    for lo, hi, cv, iv in ctx.iter_blocks():
        cuts = chunk_cuts(lo, hi)
        inside = cp_plus[(cp_plus > lo) & (cp_plus < hi)]
        if len(inside):
            cuts = np.unique(np.concatenate([cuts, inside]))
        ends = np.concatenate([cuts, [hi]])
        snap_at = {}
        for e in ends:
            j = np.searchsorted(checkpoints, e - 1)
            if j < len(checkpoints) and checkpoints[j] == e - 1:
                snap_at[int(e)] = int(j)
        consume(lo, hi, cv, iv, cuts, snap_at)


def partial_sums(mc: ModifiedCharacter, x_max: int,
                 checkpoint_rule="dyadic",
                 block_size: int | None = None,
                 threads: int | None = None) -> PartialSumSeries:
    """Partial sums M(x) at rule-selected checkpoints, one sieve pass."""
    cps = checkpoints_from_rule(checkpoint_rule, x_max)
    ctx = SieveContext(mc, x_max, block_size, threads)
    sums = np.zeros(len(cps), dtype=np.complex128)
    exact = np.zeros(len(cps), dtype=np.int64) if ctx.is_real else None
    acc = ComplexNeumaierSum()
    run_int = 0

    def consume(lo, hi, cv, iv, cuts, snap_at):
        nonlocal run_int
        pieces = piecewise_sums(cv, lo, cuts)
        ipieces = piecewise_sums(iv.astype(np.int64), lo, cuts) \
            if iv is not None else None
        ends = np.concatenate([cuts, [hi]])
        for i, e in enumerate(ends):
            acc.add(complex(pieces[i]))
            if ipieces is not None:
                run_int += int(ipieces[i])
            j = snap_at.get(int(e))
            if j is not None:
                sums[j] = acc.value
                if exact is not None:
                    exact[j] = run_int

    _checkpoint_walk(ctx, cps, consume)
    fsums = sums
    if exact is not None:
        # For real-valued f the exact route is authoritative; the float
        # route stays on float_sums so its drift can be measured.
        sums = exact.astype(np.complex128)
    rule_name = checkpoint_rule if isinstance(checkpoint_rule, str) else "explicit"
    return PartialSumSeries(cps, sums, exact, x_max, rule_name,
                            mc.digest(), mc, float_sums=fsums)


def _inv_factorial(k: int) -> float:
    if k < 150:
        return 1.0 / float(math.factorial(k))
    return math.exp(-math.lgamma(k + 1))


def riesz_means(mc: ModifiedCharacter, orders, x,
                checkpoints="dyadic",
                normalized: bool = False,
                block_size: int | None = None,
                threads: int | None = None) -> RieszRecord:
    """Riesz means sum f(n) log(x/n)^k at checkpoints for several orders k.

    One sieve pass accumulates power sums P_j = sum f(n) (log n - c)^j up
    to j = max(orders), centered per 4096-chunk at the chunk's geometric
    log-midpoint c, and recombines binomially at each checkpoint:
    sum f(n) (log x - log n)^k = sum_chunks sum_j C(k,j) (log x - c)^(k-j)
    (-1)^j P_j. Local centering keeps every accumulated term small (the
    global version carries terms of size (log sqrt x)^k whose rounding,
    about 1e-16 times their total mass, swamps the O(1) remainder the
    fits look for), and the recombination runs in extended precision, so
    what is left is essentially the final rounding to complex128. Cost is
    independent of where the checkpoints sit but recombination is
    O(chunks * k) per checkpoint, hence the density guard.

    normalized=True divides order k by k!.
    """
    ks = sorted({int(k) for k in (orders if hasattr(orders, "__iter__")
                                  else [orders])})
    if not ks or ks[0] < 0:
        raise DomainError("orders must be nonnegative integers")
    if ks[-1] > MAX_ORDER:
        raise OrderTooLargeError(
            f"order {ks[-1]} exceeds {MAX_ORDER}; (log x)^k binomial"
            f" recombination would overflow float64")
    x_max = int(x)
    if x_max < 1:
        raise DomainError("x must be at least 1")
    cps = checkpoints_from_rule(checkpoints, x_max)
    kmax = ks[-1]
    u0 = 0.5 * math.log(x_max) if x_max > 1 else 0.0
    ctx = SieveContext(mc, x_max, block_size, threads)
    ncp = len(cps)

    # Logs, centers and power sums all live in 80-bit longdouble: the value
    # reacts to a perturbation of log n with weight k (log x/n)^(k-1), so
    # float64's 2e-16 per log already costs order-one absolute error at
    # k = 13, x = 1e6, while extended precision leaves the final rounding
    # to complex128 as the only visible term.
    n_chunks = (x_max + CHUNK - 1) // CHUNK
    starts = np.arange(n_chunks, dtype=np.longdouble) * CHUNK + 1
    centers = 0.5 * (np.log(starts) + np.log(starts + (CHUNK - 1)))
    work = ncp * (kmax + 1) * max(n_chunks // 2, 1)
    if work > 10**8:
        raise DomainError(
            f"{ncp} checkpoints with order {kmax} over {n_chunks} chunks"
            f" is {work:.2g} recombination terms; thin the checkpoints")

    # per-chunk power sums land here as their chunk completes
    table = np.zeros((kmax + 1, n_chunks), dtype=np.clongdouble)
    cur_p = np.zeros(kmax + 1, dtype=np.clongdouble)
    done = 0                              # chunks finalized so far
    snaps: list[tuple[int, int, np.ndarray]] = []  # (cp index, done, partial)
    acc0 = ComplexNeumaierSum()
    sums0 = np.zeros(ncp, dtype=np.complex128)
    exact0 = np.zeros(ncp, dtype=np.int64) if ctx.is_real else None
    run_int = 0

    def consume(lo, hi, cv, iv, cuts, snap_at):
        nonlocal run_int, done
        ends = np.concatenate([cuts, [hi]])
        first = (lo - 1) // CHUNK
        span = (hi - 2) // CHUNK - first + 1
        logs = (np.log(np.arange(lo, hi, dtype=np.longdouble))
                - np.repeat(centers[first:first + span], CHUNK)[:hi - lo])
        # j = 0 stays complex128 so the running fold below reproduces
        # partial_sums bit for bit; higher powers pick up longdouble.
        piece_stack = [piecewise_sums(cv, lo, cuts)]
        cur = cv.astype(np.clongdouble)
        for _ in range(kmax):
            cur = cur * logs
            piece_stack.append(piecewise_sums(cur, lo, cuts))
        ipieces = piecewise_sums(iv.astype(np.int64), lo, cuts) \
            if iv is not None else None
        for i, e in enumerate(ends):
            for j in range(kmax + 1):
                cur_p[j] += piece_stack[j][i]
            acc0.add(complex(piece_stack[0][i]))
            if ipieces is not None:
                run_int += int(ipieces[i])
            idx = snap_at.get(int(e))
            if idx is not None:
                snaps.append((idx, done, cur_p.copy()))
                sums0[idx] = acc0.value
                if exact0 is not None:
                    exact0[idx] = run_int
            if (e - 1) % CHUNK == 0:      # chunk boundary: freeze it
                table[:, done] = cur_p
                cur_p[:] = 0
                done += 1

    _checkpoint_walk(ctx, cps, consume)

    # Recombination also runs in extended precision: the binomial terms are
    # a few times the size of the answer, so float64 inputs alone would
    # cost about k ulps of the result.
    log_cp = np.log(cps.astype(np.longdouble))
    values = np.zeros((len(ks), ncp), dtype=np.complex128)
    table_re = table.real
    table_im = table.imag
    one = np.longdouble(1.0)
    for idx, m, partial in snaps:
        ux = log_cp[idx]
        d_done = np.asarray(ux - centers[:m], dtype=np.longdouble)
        d_cur = np.longdouble(ux - centers[m]) if m < n_chunks else one * 0
        for row, k in enumerate(ks):
            tot_re = one * 0
            tot_im = one * 0
            pw = np.ones(m, dtype=np.longdouble)
            pw_cur = one
            c_run = one                   # C(k, j) for j = k - t
            for t in range(k + 1):
                j = k - t
                coef = -c_run if j % 2 else c_run
                tip_re = pw_cur * partial[j].real
                tip_im = pw_cur * partial[j].imag
                tot_re += coef * (np.dot(pw, table_re[j, :m]) + tip_re)
                tot_im += coef * (np.dot(pw, table_im[j, :m]) + tip_im)
                pw = pw * d_done
                pw_cur = pw_cur * d_cur
                c_run = c_run * j / (t + 1)
            values[row, idx] = complex(float(tot_re), float(tot_im))

    for row, k in enumerate(ks):
        if k == 0:
            # k = 0 is the plain partial sum; use the same ordered fold as
            # partial_sums (and the exact integers when f is real).
            values[row] = (exact0.astype(np.complex128)
                           if exact0 is not None else sums0)
        if normalized:
            values[row] *= _inv_factorial(k)
    return RieszRecord(tuple(ks), cps, values, normalized, x_max, u0,
                       mc.digest(), mc)


@dataclass
class MellinResult:
    """Truncated Mellin transform of M with an a-priori tail bound.

    value approximates F(sigma) = sigma * integral of M(x) x^(-1-sigma); the
    integrand is piecewise constant so the truncated part is summed exactly
    (up to rounding). The tail bound uses the observed sup of
    |M(n)|/(log n)^|S|, so it is empirical in the constant but exact in the
    integral: C * Gamma(|S|+1, sigma log X) / sigma^|S|.
    """

    value: complex
    tail_bound: float
    sup_ratio: float
    sigma: float
    x_cut: int
    config_digest: str


def _upper_gamma_int(a: int, z: float) -> float:
    """Unnormalized upper incomplete gamma for integer a >= 0."""
    s = 0.0
    term = 1.0
    for i in range(a + 1):
        if i > 0:
            term = term * z / i
        s += term
    return math.factorial(a) * math.exp(-z) * s


def mellin_transform(mc: ModifiedCharacter, sigma: float, x_cut,
                     block_size: int | None = None,
                     threads: int | None = None) -> MellinResult:
    """sigma * integral_1^x_cut M(x) x^(-1-sigma) dx, summed exactly.

    M is constant on [n, n+1), so the truncated integral is
    sum_{n < x_cut} M(n) (n^-sigma - (n+1)^-sigma). Running prefixes and the
    weighted reduction both ride the fixed chunk grid, so the result is
    block-size and thread-count independent like every other sum here.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    X = int(x_cut)
    if X < 2:
        raise DomainError("x_cut must be at least 2")
    ctx = SieveContext(mc, X, block_size, threads)
    a = len(mc.modifications)
    total = ComplexNeumaierSum()
    prefix = ComplexNeumaierSum()
    sup_ratio = 0.0
    for lo, hi, cv, _ in ctx.iter_blocks():
        top = min(hi, X)          # weights only for n <= X-1
        n = np.arange(lo, hi, dtype=np.float64)
        pw = n ** (-sigma)
        last = float(hi) ** (-sigma)
        w = pw - np.concatenate([pw[1:], [last]])
        cuts = chunk_cuts(lo, hi)
        ends = np.concatenate([cuts, [hi]])
        start = lo
        for e in ends:
            i0, i1 = start - lo, e - lo
            seg = cv[i0:i1]
            m_run = prefix.value + np.cumsum(seg)
            lim = min(i1, top - lo)
            if lim > i0:
                mm = m_run[:lim - i0]
                ww = w[i0:lim]
                total.add(complex(np.dot(mm, ww)))
            absm = np.abs(m_run)
            ns = n[i0:i1]
            if a == 0:
                r = absm.max() if len(absm) else 0.0
            else:
                good = ns >= 2
                r = (absm[good] / np.log(ns[good]) ** a).max() \
                    if good.any() else 0.0
            sup_ratio = max(sup_ratio, float(r))
            prefix.add(complex(seg.sum()))
            start = e
    z = sigma * math.log(X)
    tail = sup_ratio * _upper_gamma_int(a, z) / sigma ** a
    return MellinResult(total.value, tail, sup_ratio, float(sigma), X,
                        mc.digest())
