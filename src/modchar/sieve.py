"""Block-sieved evaluation of f(n) and its smoothed partial sums.

f(n) = chi(m) prod_{p in S} f(p)^v_p(n), m being n without its S-parts, so
the sieve visits only S. Angles are exact integer numerators over D, the
lcm of all value orders, held in the narrowest of int8/int16/int32 whose
maximum is at least 2D + sum_{p in S off q} shift_p floor(log_p x_max), else
in int64, which holds any block: a table entry or a part write stays below
2D, and each p^e <= x_max adds p's shift once before the final reduction
mod D. Real f (D = 2) therefore sieves in int8. A block [lo, hi) starts as
the periodic chi angle table sliced from lo mod q. Each p in S off q adds
angle(f(p)) - angle(chi(p)) at the multiples of every p^e. For each product
d of the S-primes dividing q, ascending, the multiples of d get the table
slice of n/d (consecutive along the stride) plus angle(f(d)); the last
write at n is for its full S-part.
Sieved angles therefore equal the trial-factorization oracle exactly.
Complex values come from the digit tables of `unit_tables` (`unit_values`):
one to four lookups and products per value, no transcendental call per
integer, within 12.5u of e(t/D) (u = 2^-53) with 80-bit longdouble.

Partial sums have a second route that does not sieve. f = chi * h with h
on the S-smooth d only, h(p^e) = f(p)^(e-1) (f(p) - chi(p)), so
M(x) = sum_{d <= x} h(d) X(floor(x/d)), X(y) = sum_{m <= y} chi(m) read off
a prefix table over min(q, x_max + 1) residues. Its cost is the number of
(d, x) pairs, not x; `partial_sums` takes it when a stated cost model says
it is cheaper than the sieve, which stays the route for dense grids, for
the Riesz power sums and for the Mellin transform.

Each public call (`partial_sums`, `riesz_means`, `mellin_transform`)
builds one `SieveContext` and hands it to whichever routes it runs, so D
and the digit tables are made once per call. The chi angle table outlives
the call in `characters.chi_angle_table`, which the L-functions read too,
so `verify` builds it once for its partial sums, its Riesz means and
L(0, chi) or L'(0, chi): q bytes for real f, at most 8q, 8 MB at q = 1e6.

Memory: a call's peak is the tables it keeps, plus one block's working
set, plus one span. The kept tables are the chi angle table and, on the
smooth route, the chi prefix of `_chi_prefix` (4 bytes per residue for
real chi, 16 for complex). A block's working set is its angles, zero mask
and values: about 30 bytes per integer for complex f and 9 for real f
under `partial_sums`, 35 (real f) to 70 (complex f) under `riesz_means`
whatever its orders, and 50 to 72 under `mellin_transform`: their
longdouble logs and powers are per block too (9 to 18 MiB at BLOCK =
2^18). The Riesz carry is max(orders) + 1 numbers, so nothing grows with
the number of chunks. `_walk` and its consumers drop a block's arrays
before the next block is built, so two blocks are never alive at once. A
span is the temporaries of the one O(q) or O(block) builder running,
which works SPAN entries at a time: at most `characters.SPAN_BUDGET`
bytes, whatever q or BLOCK.

One walker, `_walk`, drives every reduction: it cuts each block on the
fixed 4096-chunk grid from `summation` and again after each checkpoint, and
folds the piece sums into M once (exact integers for real f, a compensated
fold otherwise). Sieved partial sums, Riesz means and the Mellin transform
all read M from it, so every reported sum is bit-identical whatever BLOCK
is; the smooth route never sees blocks. Riesz means of all requested
orders come out of the same pass: each piece gives power sums of
log(e/n) >= 0, e its last n, and one longdouble carry takes them from
piece to piece by shifts whose weights are all nonnegative, so nothing
cancels but the sum itself (see `riesz_means`).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .characters import SPAN, angle_dtype, chi_angle_table, periodic_slice
from .errors import DomainError, OrderTooLargeError
from .modified import ModifiedCharacter
from .roots import turns_cos_sin
from .summation import CHUNK, ComplexNeumaierSum, chunk_cuts, piecewise_sums

# Integers per sieve block, a multiple of CHUNK (the walk and the Riesz
# and Mellin passes read each block's pieces off the chunk grid). 2^18: a
# complex block's angles and values stay in cache.
BLOCK = 1 << 18
MAX_SIEVE_X = 10**9
MAX_ORDER = 200
# Largest angle denominator D: above 2^53 the int64 angle arithmetic of
# `block_angles` is no longer exact.
MAX_SCALE = 1 << 53
# Most S-smooth d the smooth route of `partial_sums` lists before it
# yields to the sieve.
MAX_SMOOTH_TERMS = 1 << 20
# Most (d, x) pairs in one 2-D block of the smooth route's pair kernel.
PAIR_BLOCK = 1 << 14
# The route cost model of `partial_sums`, in ns (see its docstring): the
# sieve per integer, for real f and for complex f at table depth L = 1..4;
# the smooth route per prefix residue (real f, complex f), per pair and
# per 2-D block of its pair kernel.
SIEVE_NS = (3.0, 7.0, 12.0, 20.0, 30.0)
RESIDUE_NS = (8.0, 60.0)
PAIR_NS = 7.0
BLOCK_NS = 10_000.0


def angle_scale(chi, values) -> int:
    """D, the lcm of the orders of chi and of the override values."""
    scale = math.lcm(chi.order, *(v.order for v in values))
    if scale > MAX_SCALE:
        raise DomainError(f"the value orders have lcm {scale} > 2^53; angles"
                          f" would no longer be exact")
    return scale


def unit_tables(scale: int) -> tuple[np.ndarray, ...]:
    """Digit tables that turn exact angles t mod D into e(t/D).

    t is written in L = ceil(bitlen(D)/16) digits of base B, the smallest
    integer with B^L >= D, so B <= 2^16 and L <= 4 for D <= 2^53. Table i
    has B entries e(r/D), r = k B^i mod D for k < B, and e(t/D) is the
    product over i of tables[i][digit_i(t)]. Each entry is `turns_cos_sin`
    of its exact numerator r rounded once to complex128: exactly 1, 1j, -1
    or -1j where 4r = 0 (mod D), else from a longdouble angle.

    Error, with eps the longdouble epsilon, u = 2^-53, and longdouble
    atan/cos/sin within one ulp: an entry is off by at most
    a = u + (2 pi + 1) eps, that is 2 pi eps for the angle (|angle| <= pi),
    eps for cos and sin and u for the final rounding. Each of the L - 1
    complex products adds at most 2 sqrt(2) u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Lemma 3.5), so a value is
    off by at most L a + (L - 1) 2 sqrt(2) u to first order: 12.5u at L = 4
    with 80-bit longdouble. Measured against mpmath, values are at most
    0.7u, 1.6u, 2.1u and 1.3u off at L = 1..4, where np.exp of the float64
    angle 2 pi t/D is up to 12u off.
    """
    levels = -(-scale.bit_length() // 16)
    base = math.ceil(scale ** (1 / levels))
    while base ** levels < scale:
        base += 1
    while (base - 1) ** levels >= scale:
        base -= 1
    k = np.arange(base, dtype=np.int64)
    tables, step = [], 1                      # step = B^i mod D
    for _ in range(levels):
        # k step mod D exactly in int64: k < 2^16 is split into bytes, so
        # each product stays below 2^8 D <= 2^61
        r = (k >> 8) * (step * 256 % scale) + (k & 255) * step
        r %= scale
        table = np.empty(base, dtype=np.complex128)
        table.real, table.imag = turns_cos_sin(r, scale)
        tables.append(table)
        step = step * base % scale
    return tuple(tables)


def unit_values(tables, t: np.ndarray) -> np.ndarray:
    """e(t/D) as complex128 for exact angles 0 <= t < D, from the digit
    tables of `unit_tables`: one lookup per table and L - 1 products, in
    steps of SPAN entries. The error bound is that of `unit_tables`. The
    digits are divided in t's dtype into buffers made once per call, so
    beside its output a call holds at most 32 m bytes at L = 2 and 40 m at
    L = 3, 4, m = min(len(t), SPAN) (see tests/test_memory.py)."""
    vals = np.empty(len(t), dtype=np.complex128)
    base = t.dtype.type(len(tables[0]))    # B <= D fits t's dtype
    last = len(tables) - 1
    m = min(len(t), SPAN) if last else 0    # one table needs no buffer
    factor, digit = np.empty(m, np.complex128), np.empty(m, t.dtype)
    quots = [np.empty(m, t.dtype) for _ in range(min(last, 2))]
    for a in range(0, len(t), SPAN):
        rest = t[a:a + SPAN]
        n = len(rest)
        out = vals[a:a + n]
        for i, table in enumerate(tables):
            index = rest
            if i < last:                  # digit = rest mod B, rest //= B
                q = np.floor_divide(rest, base, out=quots[i % 2][:n])
                index = np.multiply(q, base, out=digit[:n])
                np.subtract(rest, index, out=index)
                rest = q
            if i == 0:
                np.take(table, index, out=out, mode="clip")
            else:
                out *= np.take(table, index, out=factor[:n], mode="clip")
    return vals


class SieveContext:
    """One modified character's tables up to x_max, shared by every route
    of a call; tables (of `unit_tables`) is None for real f (D <= 2). Its
    blocks (`iter_blocks`) are BLOCK integers long; memory: see the module."""

    def __init__(self, mc: ModifiedCharacter, x_max: int):
        x_max = _whole("x_max", x_max)
        if x_max < 0 or x_max > MAX_SIEVE_X:
            raise DomainError(f"x_max must be in [0, {MAX_SIEVE_X}], got {x_max}")
        self.mc = mc
        self.x_max = x_max
        chi = mc.base
        self.q = q = chi.modulus
        self.scale = scale = angle_scale(chi, [e.f for e in mc.factors])
        self.shifts = [(e.p, e.shift(scale))    # p in S off q
                       for e in mc.factors if not e.chi.is_zero]
        top = 2 * scale     # bounds each angle a block holds before reduction
        for p, shift in self.shifts:
            pe = p
            while pe <= self.x_max:
                top += shift
                pe *= p
        # int64 always suffices: one n <= x_max takes fewer than 30 shifts,
        # each below D <= 2^53
        self.dtype = angle_dtype(top)
        self.chi_table = chi_angle_table(chi, scale, self.dtype)
        # p in S dividing q: every product 1 < d <= x_max of them with the
        # angle of f(d), ascending in d
        parts = {1: 0}
        for p, step in [(e.p, e.shift(scale)) for e in mc.factors
                        if e.chi.is_zero]:
            for d, a in list(parts.items()):
                while d * p <= self.x_max:
                    d, a = d * p, (a + step) % scale
                    parts[d] = a
        del parts[1]
        self.part_d = np.array(sorted(parts), dtype=np.int64)
        self.part_angle = [parts[d] for d in sorted(parts)]
        self.is_real = scale <= 2
        self.tables = None if self.is_real else unit_tables(scale)

    def block_angles(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Angle numerators (mod scale, in self.dtype) and zero mask for n in
        [lo, hi); hi - 1 may not exceed x_max, which sized the dtype."""
        if hi > self.x_max + 1:
            raise DomainError(f"block end {hi} is past x_max = {self.x_max}")
        m = hi - lo
        q, table = self.q, self.chi_table
        t = periodic_slice(table, lo % q, m)
        zero = t < 0
        firsts = np.maximum(-(-lo // self.part_d), 1) * self.part_d
        for i in np.nonzero(firsts < hi)[0].tolist():
            d, start = int(self.part_d[i]), int(firsts[i])
            sl = slice(start - lo, m, d)
            chi_m = periodic_slice(table, (start // d) % q,
                                   (hi - 1 - start) // d + 1)
            np.less(chi_m, 0, out=zero[sl])
            np.add(chi_m, self.part_angle[i], out=t[sl])
        for p, shift in self.shifts:
            pe = p
            while pe < hi:
                start = max(-(-lo // pe), 1) * pe
                if start >= hi:
                    break
                t[start - lo::pe] += shift
                pe *= p
        t -= t // self.scale * self.scale   # t %= scale, but libdivide-fast
        if lo == 0:
            zero[0] = True
        return t, zero

    def block_values(self, lo: int, hi: int) -> np.ndarray:
        """f(n) for n in [lo, hi): exact 0/+-1 in self.dtype when f is real,
        else complex128 from the digit tables of `unit_tables`."""
        t, zero = self.block_angles(lo, hi)
        if self.is_real:
            vals = t                      # 0 or 1 -> +1 or -1, in place
            vals *= -2
            vals += 1
            vals[zero] = 0
            return vals
        vals = unit_values(self.tables, t)
        vals[zero] = 0
        return vals

    def iter_blocks(self):
        """Yield (lo, hi, block_values(lo, hi)) for the blocks of [1, x_max],
        BLOCK integers each but the last, in order."""
        for lo in range(1, self.x_max + 1, BLOCK):
            hi = min(lo + BLOCK, self.x_max + 1)
            yield lo, hi, self.block_values(lo, hi)


def whole_number(v) -> int | None:
    """v as an int if it is a whole number, else None: an integer that is
    not a bool, or a float with an integer value below 2^53 in size. The
    one integer rule for checkpoints, rule steps and config fields."""
    if isinstance(v, (bool, np.bool_)):
        return None
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, float) and v.is_integer() and abs(v) < 2**53:
        return int(v)
    return None


def _whole(name: str, v) -> int:
    """v through `whole_number`, else a DomainError naming it."""
    n = whole_number(v)
    if n is None:
        raise DomainError(f"{name} must be a whole number, got {v!r}")
    return n


def parse_checkpoint_rule(rule: str) -> tuple[str, int | float]:
    """A checkpoint rule string in normal form, with its argument.

    every:n takes a whole step n >= 1 and geometric:r a finite ratio
    r > 1, each written as a JSON number; every:1e3 has the normal form
    every:1000, a geometric rule keeps its text. dyadic (or dyadic:) is
    the ratio 2. Anything else is a DomainError.
    """
    name, _, text = rule.partition(":")
    if name == "dyadic":
        if text:
            raise DomainError(f"checkpoint rule {rule!r}: dyadic takes no"
                              f" argument")
        return "dyadic", 2.0
    if name not in ("every", "geometric"):
        raise DomainError(f"unknown checkpoint rule {rule!r}; use dyadic,"
                          f" every:n, geometric:r or an explicit list")
    try:
        arg = json.loads(text)
    except (ValueError, RecursionError):
        arg = None
    if isinstance(arg, bool) or not isinstance(arg, (int, float)):
        raise DomainError(f"checkpoint rule {rule!r}: argument {text!r} is"
                          f" not a number")
    if name == "geometric":
        if not 1 < arg <= sys.float_info.max:
            raise DomainError(f"checkpoint rule {rule!r}: the ratio must"
                              f" exceed 1 and be finite")
        return rule, float(arg)
    step = whole_number(arg)
    if step is None or step < 1:
        raise DomainError(f"checkpoint rule {rule!r}: the step must be >= 1"
                          f" and whole")
    return f"every:{step}", step


def checkpoints_from_rule(rule, x_max: int) -> np.ndarray:
    """Materialize a checkpoint rule (see `parse_checkpoint_rule`) or a
    list of whole numbers (`whole_number`).

    The final checkpoint is always x_max.
    """
    if x_max < 1:
        raise DomainError("x_max must be at least 1 for checkpoints")
    if not isinstance(rule, str):
        pts = []
        for c in rule:
            n = whole_number(c)
            if n is None:
                raise DomainError(f"explicit checkpoints must be whole"
                                  f" numbers, got {c!r}")
            pts.append(n)
        pts = sorted(set(pts))
        if not pts or pts[0] < 1 or pts[-1] > x_max:
            raise DomainError("explicit checkpoints must lie in [1, x_max]")
        if pts[-1] != x_max:
            pts.append(x_max)
        return np.array(pts, dtype=np.int64)
    normal, arg = parse_checkpoint_rule(rule)
    if normal.startswith("every:"):
        step = min(arg, x_max + 1)
        pts = np.arange(step, x_max + 1, step, dtype=np.int64)
    else:                           # a geometric ratio; dyadic doubles
        # the next point is max(c + 1, int(c * arg)), with no call per step
        pts, c = [], 1
        while c <= x_max:
            pts.append(c)
            d = int(c * arg)
            c = d if d > c else c + 1
    # every rule's points increase strictly and stay <= x_max
    pts = np.asarray(pts, dtype=np.int64)
    if not len(pts) or pts[-1] != x_max:
        pts = np.append(pts, np.int64(x_max))
    return pts


@dataclass
class PartialSumSeries:
    """M(x) at checkpoints; exact integer sums ride along for real f.

    sums is exact integers when all values are 0/+-1, else complex128 from
    the route `partial_sums` took. float_sums is the same array as sums:
    for real f every integer here is below 2^53, so its float is exact.
    """

    checkpoints: np.ndarray
    sums: np.ndarray
    exact_sums: np.ndarray | None
    x_max: int
    checkpoint_rule: str
    config_digest: str
    float_sums: np.ndarray | None = field(default=None, repr=False)


@dataclass
class RieszRecord:
    """Riesz means of several orders at shared checkpoints, single pass."""

    orders: tuple[int, ...]
    checkpoints: np.ndarray
    values: np.ndarray              # shape (len(orders), len(checkpoints))
    normalized: bool
    x_max: int
    config_digest: str
    source: ModifiedCharacter | None = field(default=None, repr=False)

    def row(self, k: int) -> np.ndarray:
        return self.values[self.orders.index(k)]


def _merge_cuts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.union1d of two sorted arrays without repeats, without its hash:
    one stable sort (a linear merge of the two runs), adjacent repeats
    dropped."""
    cuts = np.concatenate((a, b))
    cuts.sort(kind="stable")
    keep = np.empty(len(cuts), dtype=bool)
    keep[:1] = True
    np.not_equal(cuts[1:], cuts[:-1], out=keep[1:])
    return cuts[keep]


def _walk(ctx: SieveContext, checkpoints: np.ndarray):
    """Yield (lo, hi, vals, starts, closed, run) for every block, in order.

    The block's pieces begin at offsets `starts` into vals: the fixed chunk
    grid, cut again after each checkpoint in [lo, hi), the i-th of which
    ends piece closed[i]. run[i] is M after piece i, from the one fold every
    sum here shares: an exact int64 cumsum for real f, the compensated
    ComplexNeumaierSum otherwise, both carried across blocks.

    One block is alive at a time: the walk drops its vals before it builds
    the next block, and each consumer drops its own block arrays at the end
    of its loop body.
    """
    fold, carry = ComplexNeumaierSum(), 0
    for lo, hi, vals in ctx.iter_blocks():
        a, b = np.searchsorted(checkpoints, [lo, hi])
        ends = checkpoints[a:b] + 1           # a checkpoint x closes at x + 1
        cuts = _merge_cuts(chunk_cuts(lo, hi), ends[ends < hi])
        pieces = piecewise_sums(vals, lo, cuts)
        if ctx.is_real:
            run = np.cumsum(pieces, dtype=np.int64) + carry
            carry = int(run[-1])
        else:
            run = fold.add_many(pieces)
        starts = np.concatenate(([0], cuts - lo))
        yield lo, hi, vals, starts, np.searchsorted(cuts, ends), run
        del vals


def _sieve_sums(ctx: SieveContext, cps: np.ndarray) -> np.ndarray:
    """M at the checkpoints from one sieve pass: int64 for real f, else
    the compensated complex128 fold of `_walk`."""
    m = []
    for _, _, vals, _, closed, run in _walk(ctx, cps):
        m.append(run[closed])
        del vals
    return np.concatenate(m)


def _smooth_terms(ctx: SieveContext, x_top: int, limit=math.inf):
    """The S-smooth d <= x_top, ascending, as (d, angle, g); None past
    `limit` d.

    f = chi * h with h(p^e) = f(p)^(e-1) g_p, g_p = f(p) - chi(p), on S
    only. The d come as array products over p in S, each next to the
    exact angle numerator sum_p (e_p - 1) angle(f(p)) over D = ctx.scale
    and the product g of its g_p, so h(d) = e(angle/D) g: an int64 for
    real f, else complex128, with g_p from `EulerFactor.g`.
    """
    scale, real = ctx.scale, ctx.is_real
    d, angle = np.ones(1, np.int64), np.zeros(1, np.int64)
    g = np.ones(1, np.int64 if real else np.complex128)
    for factor in ctx.mc.factors:
        p, a_f = factor.p, int(factor.f.angle * scale)
        g_p = int(factor.g.real) if real else factor.g
        parts = [(d, angle, g)]
        cur_d, cur_a, cur_g = d, angle, g * g_p
        while True:                   # d p^e from d p^(e-1), e = 1, 2, ...
            keep = cur_d <= x_top // p
            if not keep.any():
                break
            cur_d, cur_a, cur_g = cur_d[keep] * p, cur_a[keep], cur_g[keep]
            parts.append((cur_d, cur_a, cur_g))
            cur_a = (cur_a + a_f) % scale
        d, angle, g = (np.concatenate(col) for col in zip(*parts))
        if len(d) > limit:
            return None
    order = np.argsort(d, kind="stable")
    return d[order], angle[order], g[order]


def _chi_prefix(ctx: SieveContext, n: int):
    """X(r) = chi(1) + ... + chi(r) for r < n <= q, and X(q).

    Built SPAN residues at a time, so the peak is the prefix plus one
    span's temporaries. Real chi: int8 values summed into an int32 prefix
    (|X| <= q <= 1e6). Complex: values from `unit_values` over ctx.tables,
    prefix through one compensated `ComplexNeumaierSum` fold carried from
    span to span, bit-identical to a fold over all n at once. X(q) is
    phi(q) for principal chi, else 0.
    """
    chi = ctx.mc.base
    x_q = chi.group.phi if chi.is_principal else 0
    table = ctx.chi_table[:n]
    if ctx.is_real:                 # angles -1, 0, 1 are chi = 0, 1, -1
        out = np.empty(n, dtype=np.int32)
        lut = np.array([0, 1, -1], np.int32)
        for a in range(0, n, SPAN):
            np.take(lut, table[a:a + SPAN] + 1, out=out[a:a + SPAN])
        out[0] = 0                  # X(0) = 0, not chi(q) = chi(0)
        return np.cumsum(out, out=out), x_q
    out = np.empty(n, dtype=np.complex128)
    fold = ComplexNeumaierSum()
    for a in range(0, n, SPAN):
        t = table[a:a + SPAN]
        vals = unit_values(ctx.tables, np.maximum(t, 0))
        vals[t < 0] = 0
        if a == 0:
            vals[0] = 0             # X(0) = 0, not chi(q) = chi(0)
        fold.add_many(vals, out=out[a:a + SPAN])
    return out, x_q


def _pair_blocks(cps: np.ndarray, d: np.ndarray):
    """Yield (i0, i1, k): the rows d[i0:i1] meet the checkpoints cps[k:],
    k the first with x >= d[i0]. Each block is one row or at most
    PAIR_BLOCK pairs; d ascends, so its later rows meet no more. Every d
    must be at most cps[-1]."""
    firsts = np.searchsorted(cps, d).tolist()
    n, i = len(cps), 0
    while i < len(firsts):
        k = firsts[i]
        i1 = min(len(firsts), i + max(1, PAIR_BLOCK // (n - k)))
        yield i, i1, k
        i = i1


def _smooth_sums(ctx: SieveContext, cps: np.ndarray,
                 terms=None) -> np.ndarray:
    """M at the checkpoints as sum_{d <= x} h(d) X(floor(x/d)).

    terms is (d, angle, g) from `_smooth_plan`, else listed here for the
    d <= cps[-1]. The context's digit tables give both h(d) = e(angle/D) g
    and the chi values of `_chi_prefix`; X(y) = floor(y/q) X(q) +
    X(y mod q). The pairs (d, x) go through `_pair_blocks` as 2-D arrays:
    y = floor(x/d) and floor(y/q) in float64, exact for x < 2^52: where d
    does not divide x, x/d lies at least 1/d below the next integer, more
    than the rounding error u x/d, and an integer quotient is exact. A pair
    with x < d in a block has y = 0 and X(0) = 0, so it adds nothing. Sums
    are int64 for real f, else complex128, each block's rows added in turn.
    """
    x_top = int(cps[-1])
    if cps[0] < 1 or x_top > ctx.x_max:
        raise DomainError(f"checkpoints must lie in [1, {ctx.x_max}]")
    d, angle, g = _smooth_terms(ctx, x_top) if terms is None else terms
    real = ctx.is_real
    h = g * (1 - 2 * angle) if real else unit_values(ctx.tables, angle) * g
    q = ctx.q
    prefix, x_q = _chi_prefix(ctx, min(q, x_top + 1))
    out = np.zeros(len(cps), dtype=np.int64 if real else np.complex128)
    xs, ds = cps.astype(np.float64), d.astype(np.float64)
    for i0, i1, k in _pair_blocks(cps, d):
        y = np.divide(xs[k:], ds[i0:i1, None])
        np.floor(y, out=y)
        if x_top >= q:
            wraps = np.floor(y / q)
            y -= wraps * q
        big_x = prefix[y.astype(np.intp)]
        if x_top >= q and x_q:
            big_x = big_x + wraps.astype(np.int64) * x_q
        if real:
            big_x = np.multiply(big_x, h[i0:i1, None], dtype=np.int64)
        else:
            big_x *= h[i0:i1, None]
        out[k:] += big_x.sum(axis=0)
    return out


def _smooth_plan(ctx: SieveContext, cps: np.ndarray):
    """(d, angle, g) for `_smooth_sums` when its modelled cost is at most
    the sieve's, else None; see `partial_sums` for the model. It reads
    only the character, x_max and the checkpoints."""
    levels = 0 if ctx.is_real else len(ctx.tables)
    budget = SIEVE_NS[levels] * ctx.x_max
    # every d meets the last checkpoint, so each costs at least one pair
    terms = _smooth_terms(ctx, int(cps[-1]),
                          min(MAX_SMOOTH_TERMS, budget / PAIR_NS))
    if terms is None:
        return None
    cost = min(ctx.q, ctx.x_max + 1) * RESIDUE_NS[levels > 0]
    for i0, i1, k in _pair_blocks(cps, terms[0]):
        cost += BLOCK_NS + PAIR_NS * (i1 - i0) * (len(cps) - k)
        if cost > budget:
            return None
    return terms


def partial_sums(mc: ModifiedCharacter, x_max: int,
                 checkpoint_rule="dyadic") -> PartialSumSeries:
    """Partial sums M(x) at rule-selected checkpoints, by the cheaper route.

    Routes: the sieve (`_sieve_sums`, one pass over n <= x_max) and the
    convolution f = chi * h over the S-smooth d (`_smooth_sums`), both
    reading the one `SieveContext` this call builds. The route depends
    only on (mc, x_max, checkpoints), never on BLOCK, and the sieve's sums
    do not depend on it either. Real f gives the same exact integers on
    both.

    Cost model (ns, measured with numpy 2 on a 2-vCPU Xeon; the chi angle
    table, which both routes read, is left out): the sieve costs x_max
    times SIEVE_NS = 3 per integer for real f, 7, 12, 20 and 30 for complex
    f at table depth L = 1..4. The smooth route costs RESIDUE_NS = 8 (real)
    or 60 (complex) per prefix residue, min(q, x_max + 1) of them, plus
    PAIR_NS = 7 per entry and BLOCK_NS = 1e4 per block of `_pair_blocks`;
    the entries are the pairs (d, x) with d <= x, about sum_x #{d <= x},
    plus the few with x < d that a block carries. The smooth route is taken
    when its cost is at most the sieve's. Measured spreads: 2-6 ns per
    integer for real f, 6-10 at L = 1, 11-17 at L = 2; 6-9 ns per pair.
    Dense grids (every:100 at 2e6 is 2e7 pairs for |S| = 4) stay on the
    sieve; geometric grids and dyadic ones mostly go smooth.

    Complex error, to first order in u = 2^-53, with e the value bound of
    `unit_tables` (at most 12.5u), y_d = floor(x/d), n_x the number of
    smooth d <= x and w(d) the number of S-primes dividing d: the smooth
    route is within
        sum_{d <= x} 2^w(d) [(y_d mod q) e
                             + ((w(d) + 1) e + (sqrt2 n_x + 3 sqrt2 w(d) + 5) u) |X(y_d)|]
    of M(x): each chi value in the prefix is within e and the compensated
    fold adds 2u|X|; h(d) takes w(d) + 1 unit values (each g_p off by at
    most 2e + 2 sqrt2 u, |g_p| <= 2) and w(d) rounded complex products
    (2 sqrt2 u each); the pair product adds 2 sqrt2 u and the sum over the
    n_x terms sqrt2 (n_x - 1) u of sum |h X|. The sieve's error is at most
    x e + (CHUNK + 1) u x + 2u|M|: it rounds x values and sums each chunk
    left to right. So complex M(x) from two checkpoint rules can differ in
    the last bits when they take different routes; both are inside their
    bounds. Memory: see the module docstring.
    """
    x_max = _whole("x_max", x_max)
    cps = checkpoints_from_rule(checkpoint_rule, x_max)
    ctx = SieveContext(mc, x_max)
    terms = _smooth_plan(ctx, cps)
    m = _sieve_sums(ctx, cps) if terms is None else _smooth_sums(ctx, cps, terms)
    sums = m.astype(np.complex128, copy=False)
    exact = m if m.dtype.kind == "i" else None
    rule_name = checkpoint_rule if isinstance(checkpoint_rule, str) else "explicit"
    return PartialSumSeries(cps, sums, exact, x_max, rule_name, mc.digest(),
                            float_sums=sums)


def riesz_means(mc: ModifiedCharacter, orders, x,
                checkpoints="dyadic",
                normalized: bool = False) -> RieszRecord:
    """Riesz means R_k(x) = sum_{n <= x} f(n) log(x/n)^k at checkpoints, for
    several orders k in one sieve pass.

    The k = 0 row is M(x) from the route `partial_sums` takes for the same
    checkpoints: `_smooth_sums`, or else the walk's fold, so the two agree
    bit for bit. For k > 0, with K = max(orders) and e_p the last n of the
    walk's piece p (the 4096-chunk grid, cut after each checkpoint), each
    piece gives L_p[j] = sum_{n in p} f(n) log(e_p/n)^j / j!, j <= K, from
    a power chain of log e_p - log n >= 0. One carry V of K + 1 entries
    moves on by
        V <- (V conv [d^m/m!]_{m <= K})[:K + 1] + L_p,  d = log(e_p/e_(p-1)),
    since log(e'/n)^k/k! = sum_m (d^m/m!) log(e/n)^(k-m)/(k-m)!. After the
    piece that x closes, V_k = R_k(x)/k!: the row is k! V_k, or V_k when
    normalized=True. All of it runs in 80-bit longdouble (complex for
    complex f), at x K products in the chain plus (K + 1)^2 per piece.

    Error. Every weight that meets f(n) (log(e_p/n)^j, 1/j!, d^m/m!) is
    nonnegative, so nothing cancels but the sum itself. With eps the
    longdouble unit roundoff, A_j(x) = sum_{n <= x} |f(n)| log(x/n)^j / j!,
    P the pieces up to x and logl within one ulp, V_k is to first order
    and per component within
        ((3k + 2) P + k + CHUNK + 1) eps A_k(x) + 5 eps log(x) A_(k-1)(x):
    (k + CHUNK + 1) eps of each piece's mass for its chain, sum and 1/j!;
    (3k + 2) eps of the carried mass per shift (2k for the weights, k + 1
    for the convolution, 1 for the add); and 5 eps log x on log x - log n
    through the composed shifts. k! V_k adds 2 eps A_k(x), and each row
    the final rounding to complex128. For (3k + 2) P <= 2^12 that is at
    most 4.2u A_k(x), u = 2^-53, plus the log term; measured values are
    within one final rounding of 50-digit mpmath. Where longdouble is only
    a double, expect 2^11 times more.
    """
    ks = sorted({_whole("order", k) for k in
                 (orders if hasattr(orders, "__iter__") else [orders])})
    if not ks or ks[0] < 0:
        raise DomainError("orders must be nonnegative integers")
    if ks[-1] > MAX_ORDER:
        raise OrderTooLargeError(
            f"order {ks[-1]} exceeds {MAX_ORDER}; R_k(x) grows like"
            f" (log x)^k, which would overflow float64")
    x_max = _whole("x", x)
    if x_max < 1:
        raise DomainError("x must be at least 1")
    cps = checkpoints_from_rule(checkpoints, x_max)
    ctx = SieveContext(mc, x_max)
    kmax = ks[-1]
    terms = _smooth_plan(ctx, cps) if ks[0] == 0 else None
    pos = [k for k in ks if k > 0]     # the rows the carry gives
    dtype = np.longdouble if ctx.is_real else np.clongdouble
    # j! for j <= kmax, each rounded once from the exact integer
    fact = np.array([math.factorial(j) for j in range(kmax + 1)],
                    dtype=np.longdouble)
    steps = np.arange(1, kmax + 1, dtype=np.longdouble)
    carry = np.zeros(kmax + 1, dtype)
    last = np.longdouble(0)             # log e_(p-1); no piece yet, log 1
    v_rows, m_rows = [], []
    # k = 0 alone on the smooth route walks nothing
    walk = _walk(ctx, cps) if pos or terms is None else ()
    for lo, hi, vals, starts, closed, run in walk:
        m_rows.append(run[closed])
        if not pos:
            del vals
            continue
        lens = np.diff(starts, append=hi - lo)
        logs = np.log(np.arange(lo, hi, dtype=np.longdouble))
        ends = logs[starts + lens - 1]              # log e_p
        np.subtract(np.repeat(ends, lens), logs, out=logs)
        local = np.empty((kmax + 1, len(starts)), dtype)
        pw = vals.astype(dtype)
        local[0] = np.add.reduceat(pw, starts)
        for j in range(1, kmax + 1):
            pw *= logs
            local[j] = np.add.reduceat(pw, starts)
        local /= fact[:, None]
        # shift weights d^m/m! per piece, row p
        shift = np.ones((len(starts), kmax + 1), np.longdouble)
        np.cumprod(np.diff(ends, prepend=last)[:, None] / steps, axis=1,
                   out=shift[:, 1:])
        last = ends[-1]
        for p in range(len(starts)):    # local[:, p] becomes V after p
            carry = np.convolve(carry, shift[p])[:kmax + 1] + local[:, p]
            local[:, p] = carry
        v_rows.append(local[np.ix_(pos, closed)])
        del vals, logs, pw, local

    values = np.zeros((len(ks), len(cps)), dtype=np.complex128)
    if pos:
        v = np.concatenate(v_rows, axis=1)
        values[-len(pos):] = v if normalized else v * fact[pos, None]
    if ks[0] == 0:
        values[0] = (np.concatenate(m_rows) if terms is None
                     else _smooth_sums(ctx, cps, terms))
    return RieszRecord(tuple(ks), cps, values, normalized, x_max,
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


def mellin_transform(mc: ModifiedCharacter, sigma: float, x_cut) -> MellinResult:
    """sigma * integral_1^x_cut M(x) x^(-1-sigma) dx, summed exactly.

    M is constant on [n, n+1), so the truncated integral is
    sum_{n < X} M(n) (n^-sigma - (n+1)^-sigma), which by parts is
    sum_{n <= X} f(n) n^-sigma - M(X) X^-sigma: no difference of nearly
    equal weights. Its piece sums go through the compensated fold on the
    fixed chunk grid and M comes from the walk, so the result does not
    depend on BLOCK, like every other sum here. The tail bound's
    Gamma(|S|+1, sigma log X) is mpmath's gammainc at 53 bits, whatever
    precision the caller left mpmath at.
    """
    if not 0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    X = _whole("x_cut", x_cut)
    if X < 2:
        raise DomainError("x_cut must be at least 2")
    ctx = SieveContext(mc, X)
    a = len(mc.factors)
    total = ComplexNeumaierSum()
    sup_ratio, m_before = 0.0, 0
    for lo, hi, vals, starts, _, run in _walk(ctx, np.array([X])):
        n = np.arange(lo, hi, dtype=np.float64)
        total.add_many(np.add.reduceat(vals * n ** -sigma, starts))
        # M(n) is the fold's M before n's piece plus a running sum in it;
        # with the one checkpoint at X every piece is a whole chunk
        m = np.zeros((len(starts), CHUNK),
                     dtype=np.int64 if ctx.is_real else vals.dtype)
        m.flat[:hi - lo] = vals
        m = np.cumsum(m, axis=1)
        m += np.concatenate(([m_before], run[:-1]))[:, None]
        m_before = run[-1]
        absm = np.abs(m.ravel()[:hi - lo])
        if a:
            absm = absm[n >= 2] / np.log(n[n >= 2]) ** a
        sup_ratio = max(sup_ratio, float(absm.max(initial=0.0)))
        del vals, n, m, absm
    value = total.value - complex(m_before) * float(X) ** -sigma
    z = sigma * math.log(X)
    import mpmath as mp

    with mp.workprec(53):
        tail = sup_ratio * float(mp.gammainc(a + 1, z)) / sigma ** a
    return MellinResult(value, tail, sup_ratio, float(sigma), X, mc.digest())
