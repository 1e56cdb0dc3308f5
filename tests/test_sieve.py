"""Sieve engine: block values, partial sums, Riesz means, Mellin."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modchar import sieve
from modchar.characters import (SPAN, Character, character_from_label,
                                character_group, enumerate_characters,
                                is_prime, periodic_slice)
from modchar.errors import DomainError, OrderTooLargeError
from modchar.lfunctions import L_value, LContext, evaluate_F
from modchar.modified import build_modified, eval_f_exact
from modchar.roots import UnitValue
from modchar.sieve import (CHUNK, SieveContext, _merge_cuts, _smooth_plan,
                           _walk, checkpoints_from_rule, mellin_transform,
                           partial_sums, riesz_means)
from modchar.summation import ComplexNeumaierSum, NeumaierSum, chunk_cuts

ONE = UnitValue.one()
MINUS = UnitValue.minus_one()


def bcc():
    return build_modified(character_from_label("3.2"), {3: ONE})


def fig1():
    return build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})


def fig2():
    mods = {p: ONE for p in (2, 3, 5, 11)}
    mods[7] = MINUS
    return build_modified(character_from_label("3.2"), mods)


def complex_mc():
    return build_modified(character_from_label("5.2"),
                          {2: MINUS, 7: UnitValue.root(1, 3)})


def stream(mc, x):
    return np.concatenate([vals.astype(np.complex128, copy=False) for _, _, vals
                           in SieveContext(mc, x).iter_blocks()])


def test_first_values_and_running_sum():
    vals = stream(bcc(), 9)
    assert np.array_equal(vals.real, [1, -1, 1, 1, -1, -1, 1, -1, 1])
    assert not vals.imag.any()
    assert int(np.cumsum(vals.real)[-1]) == 1      # M(9) = 1


def test_overrides_propagate_to_prime_powers():
    vals = stream(fig1(), 27)
    # f(2) = f(3) = +1 force every power of 2 and 3 to +1
    for n in (2, 3, 4, 8, 9, 16, 27, 6, 12, 24):
        assert vals[n - 1] == 1
    # 7 = 1 mod 3 keeps chi's value, 13 too
    assert vals[7 - 1] == 1 and vals[13 - 1] == 1


def test_sieve_angles_match_exact_evaluation():
    # rational-angle comparison, no floats anywhere
    mc = complex_mc()
    x = 3 * CHUNK + 500
    ctx = SieveContext(mc, x)
    t, zero = ctx.block_angles(1, x + 1)
    for n in range(1, x + 1):
        v = eval_f_exact(mc, n)
        if v.is_zero:
            assert zero[n - 1], n
        else:
            assert not zero[n - 1], n
            num, den = int(t[n - 1]), ctx.scale
            assert v.angle.numerator * den == num * v.angle.denominator, n


def _assert_angles_exact(mc, ctx, lo, hi):
    t, zero = ctx.block_angles(lo, hi)
    for n in range(lo, hi):
        v = eval_f_exact(mc, n)
        assert zero[n - lo] == v.is_zero, n
        if not v.is_zero:
            assert v.angle * ctx.scale == int(t[n - lo]), n


@st.composite
def _sieve_cases(draw):
    """Composite q <= 60, any chi, S of 0-4 primes with 0-2 dividing q."""
    q = draw(st.sampled_from([n for n in range(4, 61) if not is_prime(n)]))
    chars = enumerate_characters(q)
    chi = chars[draw(st.integers(0, len(chars) - 1))]
    q_primes = [p for p, _ in chi.group.factorization]
    on_q = draw(st.lists(st.sampled_from(q_primes), max_size=2, unique=True))
    off_q = draw(st.lists(st.sampled_from(
        [p for p in (2, 3, 5, 7, 11, 13) if q % p]),
        max_size=4 - len(on_q), unique=True))
    mods = {p: UnitValue.root(draw(st.integers(0, 11)),
                              draw(st.integers(1, 12)))
            for p in on_q + off_q}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # f(p) = chi(p) entries drop out
        mc = build_modified(chi, mods, allow_imprimitive=True)
    lo = draw(st.integers(1, 10**6))
    hi = lo + draw(st.integers(1, 3 * q))  # shorter and longer than q
    return mc, lo, hi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_sieve_cases())
def test_block_angles_match_exact_evaluation(case):
    mc, lo, hi = case
    _assert_angles_exact(mc, SieveContext(mc, hi - 1), lo, hi)


def test_block_angles_two_override_primes_on_q():
    # 2 and 3 both divide q = 12: n = 2^a 3^b m needs the S-part 2^a 3^b
    # written last on the multiples of 6, 12, 18, ...
    mc = build_modified(character_from_label("12.5"),
                        {2: UnitValue.root(1, 3), 3: UnitValue.root(1, 4),
                         5: UnitValue.root(1, 5)}, allow_imprimitive=True)
    ctx = SieveContext(mc, 10**5)
    _assert_angles_exact(mc, ctx, 1, 3000)
    _assert_angles_exact(mc, ctx, 10**5 - 1000, 10**5 + 1)


def test_block_angles_exact_at_dtype_boundary():
    # chi_5.2(2) = e(3/12) and f(2) = e(2/12): D = 12 and the shift is 11,
    # so before reduction n = 2^a holds chi(2^a mod 5) + 11a, which is 130
    # at n = 2048 and wraps int8; x_max = 1023 keeps the bound 24 + 11*9
    # inside int8, x_max = 2048 needs int16
    chi = character_from_label("5.2")
    mc = build_modified(chi, {2: UnitValue.root(1, 6)})
    for x_max, dtype in ((1023, np.int8), (2048, np.int16)):
        ctx = SieveContext(mc, x_max)
        assert (ctx.scale, ctx.shifts, ctx.dtype) == (12, [(2, 11)], dtype)
        _assert_angles_exact(mc, ctx, 1, x_max + 1)
    assert int(ctx.chi_table[2048 % 5]) + 11 * 11 > np.iinfo(np.int8).max
    with pytest.raises(DomainError):        # past the x_max that sized it
        ctx.block_angles(1, 2050)
    # D = 4 * 3^11 > 2^16: chi's table entries alone leave int16
    mc = build_modified(chi, {2: UnitValue.root(1, 3**11),
                              3: UnitValue.root(5, 7)})
    ctx = SieveContext(mc, 10**5)
    assert ctx.dtype == np.int32 and ctx.scale == 4 * 3**11 * 7
    assert int(ctx.chi_table.max()) > np.iinfo(np.int16).max
    for n in (2**16, 3**10, 10**5 - 200):
        _assert_angles_exact(mc, ctx, n - 100, min(n + 100, 10**5 + 1))


def _value_error_bound(levels: int) -> float:
    """Largest |computed - exact| for a value built from `levels` tables.

    With u = 2^-53 and eps = np.finfo(np.longdouble).eps, so that this also
    holds where longdouble is only a double, and longdouble atan, cos and
    sin within one ulp:
    - a table entry e(r/D), |r/D| <= 1/2, takes its angle 2 pi (r/D) from
      8 atan(1) (error <= eps relative), r/D (<= eps/2) and one product
      (<= eps/2): at most 2 eps |angle| <= 2 pi eps. cos and sin add eps,
      and rounding each part to float64 adds u |part|, at most u in modulus.
      So an entry is off by a <= u + (2 pi + 1) eps;
    - each of the levels - 1 complex float64 products adds at most
      sqrt(2) gamma_2 <= 2 sqrt(2) u (1 + 2u) relative error (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.5).
    The total is levels a + (levels - 1) 2 sqrt(2) u to first order; the
    factor 1 + 1e-9 covers the products of these terms, each below 1e-29.
    """
    u, eps = 2.0 ** -53, float(np.finfo(np.longdouble).eps)
    a = u + (2 * math.pi + 1) * eps
    return (levels * a + (levels - 1) * 2 * math.sqrt(2) * u) * (1 + 1e-9)


def test_block_values_match_mpmath_at_every_table_depth():
    # one config per table depth L = ceil(bitlen(D)/16), each value checked
    # against mpmath's e(a/b) for the exact angle a/b of eval_f_exact, a
    # route that shares nothing with the tables; the L = 2 block is longer
    # than SPAN, so the walk crosses a span boundary
    chi_40961 = Character(character_group(40961), (1,))      # order 40960
    chi_999983 = Character(character_group(999983), (1,))    # order 999982
    cases = [
        (build_modified(chi_40961, {2: UnitValue.root(1, 5)}), 1, 3000),
        (build_modified(chi_999983, {2: UnitValue.root(1, 3)}), 2,
         SPAN + 1000),
        (build_modified(chi_999983, {3: UnitValue.root(7, 65521)}), 3, 2000),
        # two overrides of prime order near 2^26 and 2^25: D near 2^52
        (build_modified(character_from_label("3.2"),
                        {2: UnitValue.root(12345, 67108859),
                         5: UnitValue.root(777, 33554393)}), 4, 2000),
    ]
    for mc, levels, x in cases:
        ctx = SieveContext(mc, x)
        assert -(-ctx.scale.bit_length() // 16) == levels == len(ctx.tables)
        bound = _value_error_bound(levels)
        vals = ctx.block_values(1, x + 1)
        assert vals.dtype == np.complex128
        with mpmath.workprec(113):
            for n in range(1, x + 1):
                v, z = eval_f_exact(mc, n), vals[n - 1]
                if v.is_zero:
                    assert z == 0, n
                    continue
                ref = mpmath.expjpi(mpmath.mpf(2 * v.numerator)
                                    / v.denominator)
                err = abs(mpmath.mpc(z.real, z.imag) - ref)
                assert err <= bound, (n, levels, float(err) / 2.0 ** -53)


@pytest.mark.parametrize("scale", [4, 12, 8 * 65537, 1 << 20])
def test_unit_tables_are_exact_at_quarter_turns(scale):
    # an entry whose numerator r has 4r = 0 (mod D) is exactly 1, 1j, -1
    # or -1j, never cos/sin of a rounded angle (sin pi ~ 5e-20); 8 * 65537
    # and 2^20 need two digit tables, and 2^20's second table holds three
    # quarter turns besides r = 0
    tables = sieve.unit_tables(scale)
    base = len(tables[0])
    exact = {0: 1, 1: 1j, 2: -1, 3: -1j}
    checked = 0
    for i, table in enumerate(tables):
        r = np.arange(base) * base ** i % scale
        for k in np.flatnonzero(4 * r % scale == 0):
            assert table[k] == exact[4 * int(r[k]) // scale], (scale, i, k)
            checked += 1
    assert checked == {4: 4, 12: 4, 8 * 65537: 2, 1 << 20: 5}[scale]


def test_periodic_slice_wraps():
    table = np.arange(7, dtype=np.int64)
    for start in range(7):
        for n in (0, 1, 5, 7, 8, 30, 100):
            ref = table[(start + np.arange(n)) % 7]
            assert np.array_equal(periodic_slice(table, start, n), ref)


def _scalar_running(acc, xs):
    out = []
    for x in xs:
        acc.add(x)
        out.append(acc.value)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_vectorised_neumaier_fold_is_bit_identical(seed):
    rng = np.random.default_rng(seed)
    n = 3000
    # wide dynamic range, and every third piece cancels most of the sum so far
    mags = 10.0 ** rng.uniform(-200, 200, n)
    re = rng.choice([-1.0, 1.0], n) * mags
    im = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20, 20, n)
    re[2::3] = -np.cumsum(re)[1::3][:len(re[2::3])] * (1 + 1e-15)
    cuts = np.sort(rng.choice(np.arange(1, n), 12, replace=False))
    ref = _scalar_running(NeumaierSum(), re.tolist())
    acc = NeumaierSum()
    got = np.concatenate([acc.add_many(part) for part in np.split(re, cuts)])
    assert got.tobytes() == np.array(ref).tobytes()
    z = re + 1j * im
    ref = _scalar_running(ComplexNeumaierSum(), z.tolist())
    acc = ComplexNeumaierSum()
    got = np.concatenate([acc.add_many(part) for part in np.split(z, cuts)])
    assert got.tobytes() == np.array(ref, dtype=np.complex128).tobytes()
    assert acc.value == ref[-1]


def test_checkpoint_rules():
    assert checkpoints_from_rule("dyadic", 10).tolist() == [1, 2, 4, 8, 10]
    assert checkpoints_from_rule("every:3", 10).tolist() == [3, 6, 9, 10]
    assert checkpoints_from_rule("every:1", 5).tolist() == [1, 2, 3, 4, 5]
    assert checkpoints_from_rule("geometric:2", 10).tolist() == [1, 2, 4, 8, 10]
    assert checkpoints_from_rule([5, 2, 8], 10).tolist() == [2, 5, 8, 10]
    assert checkpoints_from_rule([10], 10).tolist() == [10]
    # geometric always advances even when the ratio rounds to a step of 0
    pts = checkpoints_from_rule("geometric:1.0001", 50)
    assert pts.tolist() == list(range(1, 51))
    # JSON-number arguments; rules the config rejects are DomainErrors
    assert checkpoints_from_rule("every:4e0", 10).tolist() == [4, 8, 10]
    assert checkpoints_from_rule("every:20", 10).tolist() == [10]
    assert checkpoints_from_rule("every:" + "9" * 30, 10).tolist() == [10]
    for bad in ("every:0", "geometric:1.0", "geometric:0.5", "nonsense",
                "every:", "geometric:", "dyadic:7", "every:1e3x",
                "geometric:nan", "geometric:inf", "every"):
        with pytest.raises(DomainError):
            checkpoints_from_rule(bad, 10)
    for bad_list in ([0, 5], [5, 20], []):
        with pytest.raises(DomainError):
            checkpoints_from_rule(bad_list, 10)
    with pytest.raises(DomainError):
        checkpoints_from_rule("dyadic", 0)


def test_geometric_checkpoints_match_the_max_loop():
    # the points max(c + 1, int(c r)) from 1, and x_max; small c with
    # int(c r) = c, ratios that land on whole numbers, x on a point
    def points(r, x):
        pts, c = [], 1
        while c <= x:
            pts.append(c)
            c = max(c + 1, int(c * r))
        return pts if pts[-1] == x else pts + [x]

    for r in (1.0001, 1.01, 1.05, 1.5, 2.0, 2.5, 3.0, 10.0, 1e300):
        for x in (1, 2, 3, 7, 64, 97, 1000, 10**5, 2 * 10**6):
            got = checkpoints_from_rule(f"geometric:{r!r}", x)
            assert got.dtype == np.int64 and got.tolist() == points(r, x), \
                (r, x)


def test_partial_sums_integer_route():
    x = 3 * CHUNK + 17
    ps = partial_sums(bcc(), x, "every:1")
    direct = np.cumsum(stream(bcc(), x).real).astype(np.int64)
    assert ps.exact_sums is not None
    assert np.array_equal(ps.exact_sums, direct)
    # public sums are the exact route, float route stays inspectable
    assert np.array_equal(ps.sums, ps.exact_sums.astype(np.complex128))
    assert np.abs(ps.float_sums - ps.sums).max() < 1e-10
    assert ps.checkpoint_rule == "every:1"
    assert ps.config_digest == bcc().digest()


def test_partial_sums_complex_route():
    mc = complex_mc()
    x = 2 * CHUNK + 100
    ps = partial_sums(mc, x, "every:7")
    assert ps.exact_sums is None
    direct = np.cumsum(stream(mc, x))
    idx = ps.checkpoints - 1
    assert np.abs(ps.sums - direct[idx]).max() < 1e-10
    assert ps.float_sums is ps.sums


def test_block_independence(monkeypatch):
    # the spec pins block sizes 1e4 and 1e6, here on the chunk grid
    mcs = (bcc(), complex_mc())
    refs = [(partial_sums(mc, 2 * 10**5, "geometric:1.1"),
             riesz_means(mc, [0, 3, 7], 2 * 10**5, "dyadic")) for mc in mcs]
    for bs in (12288, 1003520):
        monkeypatch.setattr(sieve, "BLOCK", bs)
        for mc, (ref, rz_ref) in zip(mcs, refs):
            ps = partial_sums(mc, 2 * 10**5, "geometric:1.1")
            assert np.array_equal(ps.sums, ref.sums)
            assert ps.float_sums.tobytes() == ref.float_sums.tobytes()
            rz = riesz_means(mc, [0, 3, 7], 2 * 10**5, "dyadic")
            assert rz.values.tobytes() == rz_ref.values.tobytes()


def test_block_sizes_chunk_to_2_20_are_bit_identical(monkeypatch):
    # past 2^20, so the default 2^18 block and the old default 2^20 both cut
    # the range; a dense grid keeps partial sums on the sieve
    x = (1 << 20) + (1 << 18) + 77
    for mc in (bcc(), complex_mc()):
        assert _smooth_plan(SieveContext(mc, x),
                            checkpoints_from_rule("every:7", x)) is None
        runs = set()
        for bs in (CHUNK, 1 << 18, 1 << 20):
            monkeypatch.setattr(sieve, "BLOCK", bs)
            runs.add((partial_sums(mc, x, "every:7").sums.tobytes(),
                      riesz_means(mc, [0, 2], x,
                                  "geometric:1.2").values.tobytes()))
        assert len(runs) == 1


def test_merge_cuts_is_union1d():
    rng = np.random.default_rng(1101)
    for _ in range(500):
        lo = int(rng.integers(1, 10**7))
        hi = lo + int(rng.integers(1, 6 * CHUNK))
        ends = np.unique(rng.integers(lo + 1, hi + 1,
                                      size=int(rng.integers(0, 30))))
        ends = ends[ends < hi]
        for extra in (ends, ends[:0]):
            want = np.union1d(chunk_cuts(lo, hi), extra)
            got = _merge_cuts(chunk_cuts(lo, hi), extra)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    empty = np.zeros(0, np.int64)
    assert len(_merge_cuts(empty, empty)) == 0


@pytest.mark.parametrize("seed", range(4))
def test_walk_cuts_are_chunks_and_checkpoint_ends(seed, monkeypatch):
    # the walk's pieces start at the chunk grid and after each checkpoint,
    # as np.union1d makes them; edges: blocks with no cut at all, a
    # checkpoint x = 0 mod 4096 whose end x + 1 is a chunk cut, and a
    # checkpoint at hi - 1 that closes its block's last piece
    rng = np.random.default_rng(seed)
    block = CHUNK * int(rng.integers(1, 4))
    x = 7 * CHUNK + int(rng.integers(0, CHUNK))
    cps = {2 * CHUNK, 3 * CHUNK, block, 2 * block, x}
    cps |= set(rng.integers(1, x, size=int(rng.integers(0, 40))).tolist())
    cps = np.array(sorted(cps), dtype=np.int64)
    ref = partial_sums(fig1(), x, cps)
    monkeypatch.setattr(sieve, "BLOCK", block)
    for mc in (bcc(), complex_mc()):
        ctx = SieveContext(mc, x)
        no_cut = 0
        for lo, hi, vals, starts, closed, run in _walk(ctx, cps):
            ends = cps[(cps >= lo) & (cps < hi)] + 1
            want = np.union1d(chunk_cuts(lo, hi), ends[ends < hi])
            assert np.array_equal(starts, np.concatenate(([0], want - lo)))
            assert np.array_equal(closed, np.searchsorted(want, ends))
            assert len(run) == len(starts)
            no_cut += len(starts) == 1
        if block == CHUNK:
            assert no_cut
    for bs in (CHUNK, 3 * CHUNK):
        monkeypatch.setattr(sieve, "BLOCK", bs)
        ps = partial_sums(fig1(), x, cps)
        assert np.array_equal(ps.exact_sums, ref.exact_sums)


def test_float_accumulation_drift_large_x():
    # compensated float route vs exact integers over the full 1e8 range
    ps = partial_sums(bcc(), 10**8, "dyadic")
    drift = np.abs(ps.float_sums - ps.exact_sums.astype(np.complex128))
    assert drift.max() <= 1e-8


def test_riesz_matches_direct_double_loop():
    x = 10**4
    cps = [10, 100, 1234, 4096, x]
    ks = list(range(21))
    for mc in (bcc(), fig2(), complex_mc()):
        vals = stream(mc, x)
        logs = np.log(np.arange(1, x + 1, dtype=np.longdouble))
        rec = riesz_means(mc, ks, x, cps)
        for k in ks:
            row = rec.row(k)
            for i, cp in enumerate(cps):
                lx = np.log(np.longdouble(cp))
                w = (lx - logs[:cp]) ** k
                ref = complex(np.dot(vals[:cp].real, w)
                              + 1j * np.dot(vals[:cp].imag, w))
                err = abs(row[i] - ref)
                tol = 1e-9 * max(abs(ref), 1.0)
                assert err <= tol, (k, cp, err)


def test_riesz_k0_is_exact_partial_sum():
    for mc in (bcc(), complex_mc()):
        x = 2 * CHUNK + 77
        rec = riesz_means(mc, [0, 4], x, "dyadic")
        ps = partial_sums(mc, x, "dyadic")
        assert np.array_equal(rec.row(0), ps.sums)


def test_riesz_normalized_scaling():
    mc = bcc()
    raw = riesz_means(mc, [0, 5, 13], 10**4, "dyadic")
    norm = riesz_means(mc, [0, 5, 13], 10**4, "dyadic", normalized=True)
    for k in (0, 5, 13):
        expect = raw.row(k) / math.factorial(k)
        assert np.abs(norm.row(k) - expect).max() <= 1e-12 * np.abs(expect).max()


def test_riesz_edge_cases():
    mc = bcc()
    rec = riesz_means(mc, [0, 1, 2], 1, [1])
    assert rec.row(0)[0] == 1 and rec.row(1)[0] == 0 and rec.row(2)[0] == 0
    # checkpoints on both sides of a chunk boundary
    rec = riesz_means(mc, [3], 10**4, [CHUNK, CHUNK + 1, 2 * CHUNK, 10**4])
    vals = stream(mc, 10**4).real
    logs = np.log(np.arange(1, 10**4 + 1, dtype=np.longdouble))
    for i, cp in enumerate([CHUNK, CHUNK + 1, 2 * CHUNK, 10**4]):
        ref = float(np.dot(vals[:cp],
                           (np.log(np.longdouble(cp)) - logs[:cp]) ** 3))
        assert abs(rec.row(3)[i] - ref) <= 1e-9 * max(abs(ref), 1.0)


def _direct_riesz(vals, x, k):
    """sum_{n<=x} f(n) (log x - log n)^k in longdouble, with a bound on its
    own rounding: 80-bit logs and powers (each log off by u80 relative, the
    k-th power by about 64 k u80, the sum by x u80 of its mass), f's float64
    roots of unity off by u64 each, and the final rounding to complex128."""
    u64, u80 = 2.0**-53, float(np.finfo(np.longdouble).eps) / 2
    lx = np.log(np.longdouble(x))
    base = lx - np.log(np.arange(1, x + 1, dtype=np.longdouble))
    w = base ** k
    f = vals[:x]
    ref = complex(float(np.dot(f.real.astype(np.longdouble), w)),
                  float(np.dot(f.imag.astype(np.longdouble), w)))
    absf = np.abs(f).astype(np.longdouble)
    mass = float(np.dot(absf, w))
    dmass = k * float(lx) * float(np.dot(absf, base ** (k - 1)))
    tol = (2 * u64 * abs(ref) + (2 * u64 * mass if f.imag.any() else 0.0)
           + u80 * (dmass + (x + 64 * k) * mass))
    return ref, tol


def test_riesz_small_x_matches_direct_sum():
    # x = 1..64 cut the first chunk into one-integer pieces, so the carry
    # shifts after every n; CHUNK - 1 and CHUNK close the first chunk's
    # last pieces, and CHUNK + 1 is the first x whose carry crosses the
    # chunk grid
    cps = list(range(1, 65)) + [CHUNK - 1, CHUNK, CHUNK + 1]
    x = cps[-1]
    for mc, k in ((fig1(), 39), (complex_mc(), 13)):
        vals = np.array([eval_f_exact(mc, n).to_complex()
                         for n in range(1, x + 1)])
        row = riesz_means(mc, [0, k], x, cps).row(k)
        for i, cp in enumerate(cps):
            ref, tol = _direct_riesz(vals, cp, k)
            assert abs(row[i] - ref) <= tol, (k, cp, row[i], ref, tol)


def test_riesz_guards():
    mc = bcc()
    with pytest.raises(OrderTooLargeError):
        riesz_means(mc, [201], 100)
    with pytest.raises(DomainError):
        riesz_means(mc, [-1], 100)
    with pytest.raises(DomainError):
        riesz_means(mc, [2], 0)


def _carry_bound(k, x, pieces, mass_k, mass_km1):
    """The first-order rounding bound of `riesz_means`' docstring for
    R_k(x) = k! V_k, eps the longdouble unit roundoff, sqrt 2 times the
    per-component bound for a complex modulus; the final rounding to
    complex128 is left to the caller."""
    eps = float(np.finfo(np.longdouble).eps) / 2
    return math.sqrt(2) * math.factorial(k) * eps * (
        ((3 * k + 2) * pieces + k + CHUNK + 3) * mass_k
        + 5 * math.log(x) * mass_km1)


def test_riesz_dense_grid_matches_sparse_grid():
    # 40,000 checkpoints at k = 13: the carry costs (k + 1)^2 per piece,
    # and every:50 cuts about 40,500 pieces against every:5000's 900.
    # |f| <= 1, so the mass sum_{n <= x} |f(n)| log(x/n)^j / j! is at
    # most x for every j
    mc, k, x = bcc(), 13, 2_000_000
    dense = riesz_means(mc, [k], x, "every:50")
    sparse = riesz_means(mc, [k], x, "every:5000")
    assert len(dense.checkpoints) == 40_000
    at = np.searchsorted(dense.checkpoints, sparse.checkpoints)
    assert np.array_equal(dense.checkpoints[at], sparse.checkpoints)
    u = 2.0**-53
    for cp, a, b in zip(sparse.checkpoints.tolist(), dense.values[0, at],
                        sparse.values[0]):
        tol = (_carry_bound(k, cp, cp // CHUNK + cp // 50 + 1, cp, cp)
               + _carry_bound(k, cp, cp // CHUNK + cp // 5000 + 1, cp, cp)
               + 2 * u * max(abs(a), abs(b)))
        assert abs(a - b) <= tol, (cp, a, b, tol)
    vals = stream(mc, 200_000)
    for cp in (4100, 200_000):
        ref, tol = _direct_riesz(vals, cp, k)
        got = dense.values[0, np.searchsorted(dense.checkpoints, cp)]
        assert abs(got - ref) <= tol, (cp, got, ref, tol)


@pytest.mark.parametrize("make, k", [(fig1, 39), (complex_mc, 13)])
def test_riesz_carry_across_many_pieces_matches_direct_sum(make, k,
                                                           monkeypatch):
    # one block per chunk, so the carry crosses 64 blocks, and each of the
    # 226 checkpoints cuts its chunk in two; every sixth row and the last,
    # within the direct sum's own rounding bound plus the carry's
    monkeypatch.setattr(sieve, "BLOCK", CHUNK)
    mc, x = make(), (1 << 18) + 77
    rec = riesz_means(mc, [k], x, "geometric:1.05")
    cps = rec.checkpoints.tolist()
    assert len(cps) > 220
    vals = stream(mc, x)
    absf = np.abs(vals).astype(np.longdouble)
    logn = np.log(np.arange(1, x + 1, dtype=np.longdouble))
    for i in [*range(0, len(cps), 6), len(cps) - 1]:
        cp = cps[i]
        ref, tol = _direct_riesz(vals, cp, k)
        base = np.log(np.longdouble(cp)) - logn[:cp]
        pw = base ** (k - 1)
        mass_km1 = float(np.dot(absf[:cp], pw)) / math.factorial(k - 1)
        mass_k = float(np.dot(absf[:cp], pw * base)) / math.factorial(k)
        pieces = (cp - 1) // CHUNK + i + 2
        tol += _carry_bound(k, cp, pieces, mass_k, mass_km1)
        got = rec.values[0, i]
        assert abs(got - ref) <= tol, (cp, got, ref, tol)


def test_riesz_normalized_high_orders_do_not_underflow():
    # V_k = R_k(x)/k! comes straight from the carry; a float64 1/k! would
    # underflow from k = 171 (1/180! reads 0)
    u = 2.0**-53
    mc = bcc()
    for k in (150, 180, 200):
        raw = riesz_means(mc, [k], 10**4).values[0]
        norm = riesz_means(mc, [k], 10**4, normalized=True).values[0]
        assert not raw.imag.any() and not norm.imag.any()
        for r, v in zip(raw.real.tolist(), norm.real.tolist()):
            ref = float(mpmath.mpf(r) / mpmath.factorial(k))
            assert abs(v - ref) <= 2 * u * abs(ref) + 2.0**-1074, (k, r, v)
        assert norm.real[-1] > 0


def test_sieve_context_guards():
    mc = bcc()
    with pytest.raises(DomainError):
        SieveContext(mc, 100.5)
    with pytest.raises(DomainError):
        SieveContext(mc, 10**9 + 1)
    with pytest.raises(DomainError):
        SieveContext(mc, -1)


def test_sieve_context_rejects_inexact_scale():
    mc = build_modified(character_from_label("3.2"),
                        {2: UnitValue.root(1, 2**40 + 15),
                         5: UnitValue.root(1, 2**40)})
    with pytest.raises(DomainError):
        SieveContext(mc, 100)


@pytest.mark.parametrize("call, args", [
    (partial_sums, (100.7,)),
    (partial_sums, (True,)),
    (riesz_means, ([1], 100.9)),
    (riesz_means, ([1.5], 100)),
    (riesz_means, ([True], 100)),
    (riesz_means, (["3"], 100)),
    (mellin_transform, (1.0, 1000.5)),
    (mellin_transform, (1.0, "1000")),
], ids=["x_max-float", "x_max-bool", "x-float", "order-float", "order-bool",
        "order-str", "x_cut-float", "x_cut-str"])
def test_sizes_and_orders_must_be_whole(call, args):
    # no silent int(): sizes and orders follow the config's `whole_number`
    with pytest.raises(DomainError):
        call(bcc(), *args)


def test_whole_float_sizes_are_taken_as_ints():
    ps = partial_sums(bcc(), 1000.0)
    assert type(ps.x_max) is int and ps.x_max == 1000
    assert ps.checkpoints[-1] == 1000
    rec = riesz_means(bcc(), [np.int64(3), 3.0], 1000.0)
    assert rec.orders == (3,) and type(rec.x_max) is int
    assert mellin_transform(bcc(), 1.0, 1000.0).x_cut == 1000


def test_mellin_guards():
    with pytest.raises(DomainError):
        mellin_transform(bcc(), 0.0, 1000)
    with pytest.raises(DomainError):
        mellin_transform(bcc(), -0.5, 1000)
    with pytest.raises(DomainError):
        mellin_transform(bcc(), 1.0, 1)
    with pytest.raises(DomainError):
        mellin_transform(bcc(), float("nan"), 1000)
    with pytest.raises(DomainError):
        mellin_transform(bcc(), float("inf"), 1000)


def test_mellin_agrees_with_series_evaluation():
    # the truncated part misses about a1 * (1 + sigma log X) X^-sigma of
    # F(sigma), so sigma = 0.1 needs X around 1e7 before the factor-2
    # bracket closes; the a-priori tail bound stays honest (larger) still
    res = mellin_transform(bcc(), 0.1, 10**7)
    direct = abs(evaluate_F(bcc(), 0.1))
    assert direct / 2 <= abs(res.value) <= 2 * direct
    assert abs(res.value - evaluate_F(bcc(), 0.1)) <= res.tail_bound
    assert res.sup_ratio > 0 and res.tail_bound > 0


def test_mellin_unmodified_chi3_hits_l_value():
    chi = character_from_label("3.2")
    plain = build_modified(chi, {})
    res = mellin_transform(plain, 1.0, 10**5)
    target = L_value(LContext(chi), 1.0)
    assert abs(res.value - target) <= res.tail_bound
    assert res.tail_bound < 1e-3


def _upper_gamma_closed_form(a, z):
    """Gamma(a+1, z) = a! e^-z sum_{i <= a} z^i / i! for integer a >= 0."""
    return math.factorial(a) * math.exp(-z) * sum(
        z ** i / math.factorial(i) for i in range(a + 1))


def test_mellin_tail_bound_is_the_closed_form():
    # |S| = 0, 1, 2, 4; the tail is sup |M(n)|/(log n)^|S| times
    # Gamma(|S|+1, sigma log X) / sigma^|S|, whatever mpmath's precision
    plain = build_modified(character_from_label("3.2"), {})
    for mc in (plain, bcc(), complex_mc(), fig1()):
        a = len(mc.modifications)
        for sigma, X in ((0.1, 1000), (0.5, 5000), (2.0, 1000)):
            res = mellin_transform(mc, sigma, X)
            want = (res.sup_ratio / sigma ** a
                    * _upper_gamma_closed_form(a, sigma * math.log(X)))
            assert abs(res.tail_bound - want) <= 1e-14 * want, (a, sigma, X)
            with mpmath.workdps(5):
                low = mellin_transform(mc, sigma, X)
            assert low.tail_bound == res.tail_bound, (a, sigma, X)


def test_mellin_block_independence(monkeypatch):
    ref = mellin_transform(complex_mc(), 0.5, 3 * 10**4)
    for bs in (12288, 1003520):
        monkeypatch.setattr(sieve, "BLOCK", bs)
        r = mellin_transform(complex_mc(), 0.5, 3 * 10**4)
        assert r.value == ref.value and r.sup_ratio == ref.sup_ratio


def test_mellin_matches_direct_weighted_sum():
    # sum_{n<X} M(n) (n^-sigma - (n+1)^-sigma) in longdouble, where the
    # weight differences keep about u80 n / sigma of relative error
    for mc in (bcc(), complex_mc()):
        vals = stream(mc, 3 * 10**4)
        m = np.cumsum(vals.astype(np.clongdouble))
        n = np.arange(1, 3 * 10**4 + 1, dtype=np.longdouble)
        for sigma in (0.5, 1.0):
            w = n ** -sigma - (n + 1) ** -sigma
            for X in (CHUNK, CHUNK + 1, 3 * 10**4):
                ref = complex(np.dot(m[:X - 1], w[:X - 1]))
                got = mellin_transform(mc, sigma, X).value
                assert abs(got - ref) <= 1e-12 * abs(ref), (sigma, X)
