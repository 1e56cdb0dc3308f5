"""The smooth route of partial sums, f = chi * h over the S-smooth d,
against the sieve, trial factorization and mpmath."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modchar.characters import (SPAN, Character, character_from_label,
                                character_group, enumerate_characters)
from modchar import sieve
from modchar.modified import build_modified, eval_f_exact
from modchar.roots import UnitValue
from modchar.sieve import (CHUNK, MAX_SIEVE_X, SieveContext, _chi_prefix,
                           _sieve_sums, _smooth_plan, _smooth_sums,
                           _smooth_terms, checkpoints_from_rule,
                           chi_angle_table, partial_sums, riesz_means,
                           unit_values)
from modchar.summation import ComplexNeumaierSum

ONE = UnitValue.one()
MINUS = UnitValue.minus_one()
U = 2.0 ** -53


def _modified(chi, mods):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # f(p) = chi(p) entries drop out
        return build_modified(chi, mods, allow_imprimitive=True)


def _smooth_d(mc, x):
    return _smooth_terms(SieveContext(mc, x), x)[0]


def _exact_sums(mc, cps):
    """M at the checkpoints from trial factorization: int for real f, else
    the exact angle counts summed in mpmath at 40 digits."""
    cps = [int(c) for c in cps]
    out, counts, i = [], {}, 0
    for n in range(1, cps[-1] + 1):
        v = eval_f_exact(mc, n)
        if not v.is_zero:
            key = (v.numerator, v.denominator)
            counts[key] = counts.get(key, 0) + 1
        while i < len(cps) and cps[i] == n:
            out.append(dict(counts))
            i += 1
    with mpmath.workdps(40):
        unit = {key: mpmath.expjpi(mpmath.mpf(2 * key[0]) / key[1])
                for key in counts}
        return [mpmath.fsum(c * unit[key] for key, c in cnt.items())
                for cnt in out]


@st.composite
def _cases(draw):
    """q <= 40 (1, principal and prime powers included), any chi, 0-4
    override primes with some dividing q, real or complex values, and a
    random checkpoint list up to x_max <= 1500."""
    q = draw(st.integers(1, 40))
    chars = enumerate_characters(q)
    chi = chars[draw(st.integers(0, len(chars) - 1))]
    pool = sorted({2, 3, 5, 7, 11, 13} | {p for p, _ in chi.group.factorization})
    primes = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    if draw(st.booleans()):
        mods = {p: draw(st.sampled_from([ONE, MINUS])) for p in primes}
    else:
        mods = {p: UnitValue.root(draw(st.integers(0, 11)),
                                  draw(st.integers(1, 12))) for p in primes}
    x_max = draw(st.integers(1, 1500))
    cps = draw(st.lists(st.integers(1, x_max), max_size=25))
    return _modified(chi, mods), x_max, np.array(sorted(set(cps) | {x_max}))


def _assert_routes_agree(mc, x_max, cps):
    # both routes read one context, the smooth one first: a chi prefix
    # that wrote into the shared chi table would throw the sieve off
    ctx = SieveContext(mc, x_max)
    smooth = _smooth_sums(ctx, cps)
    sieve = _sieve_sums(ctx, cps)
    exact = _exact_sums(mc, cps)
    assert smooth.dtype == sieve.dtype
    if smooth.dtype.kind == "i":
        want = [int(mpmath.nint(m.real)) for m in exact]
        assert smooth.tolist() == want == sieve.tolist()
        return
    for got_s, got_v, m in zip(smooth, sieve, exact):
        ref = complex(m)
        assert abs(got_s - ref) <= 1e-11 * x_max
        assert abs(got_v - ref) <= 1e-11 * x_max


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_cases())
def test_smooth_sieve_and_trial_factorization_agree(case):
    _assert_routes_agree(*case)


def test_smooth_route_principal_and_smooth_checkpoints():
    # chi principal with x >= q needs the floor(y/q) X(q) term; checkpoints
    # that are themselves S-smooth need d <= x, not d < x
    cases = [
        (_modified(enumerate_characters(1)[0], {2: MINUS, 3: MINUS}), 500),
        (_modified(character_group(6).principal(),
                   {2: UnitValue.root(1, 3), 5: MINUS}), 700),
        (_modified(character_from_label("7.1"), {3: MINUS}), 400),
        (_modified(character_from_label("3.2"), {p: ONE for p in (2, 3, 5)}),
         900),
    ]
    for mc, x in cases:
        smooth_d = _smooth_d(mc, x)
        cps = np.unique(np.concatenate([smooth_d, [x]]))
        _assert_routes_agree(mc, x, cps)


def test_smooth_route_near_the_sieve_cap():
    # windows M(x) - M(x - W) just below MAX_SIEVE_X: the smooth route's
    # floor(x/d) at x ~ 1e9 against a sieve block and trial factorization
    chi_7 = character_from_label("7.3")                      # order 6
    cases = [
        _modified(character_from_label("3.2"), {p: ONE for p in (2, 3, 5, 11)}),
        _modified(Character(character_group(101), (50,)),    # quadratic
                  {2: ONE, 3: MINUS, 5: ONE}),
        _modified(chi_7, {2: UnitValue.root(1, 4), 7: UnitValue.root(1, 3)}),
    ]
    w = 40
    for mc in cases:
        ctx = SieveContext(mc, MAX_SIEVE_X)
        for x in (MAX_SIEVE_X, MAX_SIEVE_X - 12345):
            cps = np.array([x - w, x], dtype=np.int64)
            m = _smooth_sums(ctx, cps)
            window = ctx.block_values(x - w + 1, x + 1)
            exact = [eval_f_exact(mc, n) for n in range(x - w + 1, x + 1)]
            if m.dtype.kind == "i":
                got = int(m[1] - m[0])
                assert got == int(window.sum())
                assert got == sum(int(v.to_complex().real) for v in exact)
            else:
                ref = sum(v.to_complex() for v in exact)
                assert abs((m[1] - m[0]) - ref) <= 1e-8
                assert abs(window.sum() - ref) <= 1e-12 * w


def test_smooth_terms_stop_at_the_last_checkpoint():
    # checkpoints far below x_max: the S-smooth d past cps[-1] meet no
    # checkpoint, so neither the plan nor the sums may list them; with 300
    # checkpoints a pair block holds 54 rows, and one starting at such a d
    # would meet no checkpoint at all
    mc = _modified(character_from_label("3.2"),
                   {p: ONE for p in (2, 5, 7, 11)})
    x_max = 10**6
    cps = np.arange(1, 301, dtype=np.int64)
    ctx = SieveContext(mc, x_max)
    terms = _smooth_plan(ctx, cps)
    assert terms is not None and terms[0][-1] <= cps[-1] < terms[0][-1] * 2
    sieve = _sieve_sums(ctx, cps)
    assert np.array_equal(_smooth_sums(ctx, cps, terms), sieve)
    assert np.array_equal(_smooth_sums(ctx, cps), sieve)


def test_chi_prefix_spans_match_one_fold():
    # `_chi_prefix` works SPAN residues at a time, carrying one compensated
    # fold: bit-identical to one add_many over every value at once, for a
    # prefix of all q residues and for one ending just past a span; for
    # real chi equal to one integer accumulate
    q = 999983
    grp = character_group(q)
    cplx = _modified(Character(grp, (1,)), {2: UnitValue.root(1, 3)})
    real = _modified(Character(grp, ((q - 1) // 2,)), {2: ONE, 3: ONE})
    for mc in (cplx, real):
        for n in (q, 3 * SPAN + 7):
            ctx = SieveContext(mc, n - 1)
            prefix, x_q = _chi_prefix(ctx, n)
            assert x_q == 0 and len(prefix) == n
            t = ctx.chi_table[:n].copy()
            t[0] = -1
            if mc is real:
                want = np.add.accumulate(np.array([0, 1, -1])[t + 1])
                assert prefix.dtype == np.int32
                assert np.array_equal(prefix, want)
                continue
            vals = unit_values(ctx.tables, np.maximum(t, 0))
            vals[t < 0] = 0
            want = ComplexNeumaierSum().add_many(vals)
            assert prefix.tobytes() == want.tobytes(), n
    principal = _modified(grp.principal(), {2: MINUS})
    assert _chi_prefix(SieveContext(principal, 10), 11)[1] == q - 1


def _value_bound(levels):
    # `unit_tables`: L a + (L - 1) 2 sqrt2 u with a = u + (2 pi + 1) eps
    eps = float(np.finfo(np.longdouble).eps)
    a = U + (2 * math.pi + 1) * eps
    return levels * a + (levels - 1) * 2 * math.sqrt(2) * U


def _smooth_bound(mc, x_max, cps, levels):
    """The first-order error bound of the `partial_sums` docstring."""
    e = _value_bound(levels)
    q = mc.base.modulus
    ctx = SieveContext(mc, x_max)
    d = _smooth_terms(ctx, x_max)[0]
    prefix, x_q = _chi_prefix(ctx, min(q, x_max + 1))
    w = np.array([sum(int(dd) % p == 0 for p in mc.primes) for dd in d])
    out = []
    for x in cps.tolist():
        sel = d <= x
        y = x // d[sel]
        big_x = np.abs(prefix[y % q] + (y // q) * x_q)
        ws = w[sel]
        out.append(float(np.sum(2.0 ** ws * (
            (y % q) * e + ((ws + 1) * e + (math.sqrt(2) * sel.sum()
                                          + 3 * math.sqrt(2) * ws + 5) * U)
            * big_x))))
    return np.array(out) * (1 + 1e-6)


def test_complex_smooth_sums_within_their_bound_against_mpmath():
    # L = 1 over a small modulus, L = 2 with x past q (the compensated
    # prefix over 1008 residues and the wrap), L = 2 with x < q
    chi_1009 = Character(character_group(1009), (1,))       # order 1008
    chi_40961 = Character(character_group(40961), (1,))     # order 40960
    cases = [
        (_modified(character_from_label("7.3"),
                   {2: UnitValue.root(1, 12), 3: UnitValue.root(5, 12),
                    5: UnitValue.root(7, 12)}), 6000, 1),
        (_modified(chi_1009, {2: UnitValue.root(1, 65537),
                              3: UnitValue.root(2, 3)}), 6000, 2),
        (_modified(chi_40961, {2: UnitValue.root(1, 7)}), 4000, 2),
    ]
    for mc, x, levels in cases:
        cps = checkpoints_from_rule("geometric:1.3", x)
        ctx = SieveContext(mc, x)
        assert len(ctx.tables) == levels
        got = _smooth_sums(ctx, cps)
        bound = _smooth_bound(mc, x, cps, levels)
        with mpmath.workdps(40):
            for g, m, b in zip(got, _exact_sums(mc, cps), bound):
                err = abs(mpmath.mpc(g.real, g.imag) - m)
                assert err <= b, (float(err), b)


def test_route_follows_the_cost_model_and_riesz_k0_follows_it(monkeypatch):
    mc = build_modified(character_from_label("3.2"),
                        {p: ONE for p in (2, 3, 5, 11)})
    cplx = build_modified(character_from_label("5.2"),
                          {2: MINUS, 7: UnitValue.root(1, 3)})
    x = 300_000
    sparse = checkpoints_from_rule("geometric:1.05", x)
    dense = checkpoints_from_rule("every:1", x)
    for f in (mc, cplx):
        ctx = SieveContext(f, x)
        assert _smooth_plan(ctx, sparse) is not None
        assert _smooth_plan(ctx, dense) is None
    x = 2 * CHUNK + 77
    for f in (mc, cplx):
        for rule in ("dyadic", "every:1"):
            with monkeypatch.context() as m:
                m.setattr(sieve, "BLOCK", CHUNK)
                ps = partial_sums(f, x, rule)
            rec = riesz_means(f, [0, 3], x, rule)
            assert np.array_equal(rec.row(0), ps.sums)


def test_one_chi_table_across_calls(monkeypatch):
    # the last chi angle table is kept, read-only: partial_sums, then
    # riesz_means of [0] and of [0, 2], on one chi and D build it once, on
    # the smooth route and on the sieve; another chi or D builds it once more
    built = []
    table = Character.angle_numerators

    def counting(chi, scale, dtype=np.int64):
        built.append(scale)
        return table(chi, scale, dtype)

    monkeypatch.setattr(Character, "angle_numerators", counting)
    fig1 = build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})
    cplx = build_modified(character_from_label("5.2"),
                          {2: MINUS, 7: UnitValue.root(1, 3)})
    for f in (fig1, cplx):
        for x, rule in ((300_000, "geometric:1.05"), (2 * CHUNK, "every:1")):
            chi_angle_table.cache_clear()
            built.clear()
            ps = partial_sums(f, x, rule)
            for orders in ([0], [0, 2]):
                rec = riesz_means(f, orders, x, rule)
                assert rec.row(0).tobytes() == ps.sums.tobytes()
            assert len(built) == 1, (rule, built)
    built.clear()
    partial_sums(fig1, 300_000, "geometric:1.05")     # another chi
    partial_sums(fig1, 300_000, "dyadic")
    assert built == [2]
    fig1_d6 = build_modified(character_from_label("3.2"),
                             {2: UnitValue.root(1, 3)})
    partial_sums(fig1_d6, 300_000, "geometric:1.05")  # same chi, D = 6
    riesz_means(fig1_d6, [0, 1], 300_000, "geometric:1.05")
    assert built == [2, 6]
    assert chi_angle_table.cache_info().currsize == 1
    ctx = SieveContext(fig1_d6, 100)
    with pytest.raises(ValueError):
        ctx.chi_table[1] = 0
