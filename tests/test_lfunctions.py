"""L-functions: Hurwitz zeta, special values, functional equation, a_{N+k}."""

import cmath
import math
import random
import time
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modchar.characters import (Character, character_from_label,
                                character_group, enumerate_characters,
                                eval_char, parity)
from modchar import lfunctions
from modchar.errors import (DomainError, NearPoleWarning, ParityError,
                            PoleError, PrimitivityError,
                            UntrustedTheoryWarning)
from modchar.lfunctions import (L0_exact, LContext, L_value,
                                L_value_with_bound, Lprime0,
                                complex_gamma, evaluate_F,
                                euler_factor_ratio, functional_equation_check,
                                gauss_sum, hurwitz_zeta_with_bound,
                                l_special_factor, leading_coefficient,
                                lprime0_direct, lprime0_functional)
from modchar.modified import build_modified, compute_N, compute_T
from modchar.roots import UnitValue

ONE = UnitValue.one()
MINUS = UnitValue.minus_one()
U = 2.0 ** -53


def chi3():
    return character_from_label("3.2")


def bcc():
    return build_modified(chi3(), {3: ONE})


def test_hurwitz_closed_forms():
    # zeta(0, a) = 1/2 - a
    for a in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        v = hurwitz_zeta_with_bound(0.0, float(a))[0]
        assert abs(v - (0.5 - float(a))) < 1e-12
    assert abs(hurwitz_zeta_with_bound(2.0, 1.0)[0] - math.pi**2 / 6) < 1e-12
    # sum over half-integers: zeta(2, 1/2) = pi^2/2
    assert abs(hurwitz_zeta_with_bound(2.0, 0.5)[0] - math.pi**2 / 2) < 1e-12


def test_hurwitz_against_direct_series():
    # rigorous independent oracle: plain series with an integral tail bound,
    # usable once Re s is large enough for the tail to clear 1e-13
    rng = random.Random(3)
    for _ in range(25):
        s = complex(rng.uniform(4.0, 9.0), rng.uniform(-20.0, 20.0))
        a = rng.uniform(1e-3, 1.0)
        n_cut = 10**5
        n = np.arange(n_cut, dtype=np.longdouble) + np.longdouble(a)
        ref = complex(np.sum(np.exp(-np.clongdouble(s) * np.log(n))))
        tail = (n_cut + a) ** (1 - s.real) / (s.real - 1)
        assert tail < 1e-13
        val, bound = hurwitz_zeta_with_bound(s, a)
        assert abs(val - ref) <= bound + tail + 1e-13, (s, a)


def test_hurwitz_against_mpmath():
    # independent implementation across the continued domain
    mp.mp.dps = 30
    rng = random.Random(5)
    pts = [(complex(rng.uniform(-3.0, 3.0), rng.uniform(-25.0, 25.0)),
            rng.uniform(1e-3, 1.0)) for _ in range(40)]
    pts += [(complex(0.0, 0.0), 0.25), (complex(-1.5, 0.0), 1.0)]
    for s, a in pts:
        if abs(s - 1) < 0.05:
            continue
        val, bound = hurwitz_zeta_with_bound(s, a)
        ref = complex(mp.zeta(mp.mpc(s), mp.mpf(a)))
        assert abs(val - ref) <= bound + abs(ref) * 1e-13, (s, a)


def test_hurwitz_reported_bound_meets_target():
    # the bound meets eps up to the unavoidable final rounding of the
    # returned complex128, which scales with the value itself
    rng = random.Random(9)
    for _ in range(30):
        s = complex(rng.uniform(-2.0, 5.0), rng.uniform(-10.0, 10.0))
        if abs(s - 1) < 0.05:
            continue
        val, bound = hurwitz_zeta_with_bound(s, rng.uniform(0.05, 1.0), 1e-12)
        assert bound <= 1e-12 + abs(val) * 2.3e-16


def test_hurwitz_guards():
    with pytest.raises(PoleError):
        hurwitz_zeta_with_bound(1.0, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta_with_bound(2.0, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta_with_bound(2.0, 1.5)
    with pytest.raises(DomainError):
        hurwitz_zeta_with_bound(150.0, 0.5)


def test_hurwitz_rejects_zero_eps():
    with pytest.raises(DomainError, match="eps must be positive"):
        hurwitz_zeta_with_bound(0.5, 0.5, 0.0)


def test_hurwitz_rejects_negative_eps():
    with pytest.raises(DomainError, match="eps must be positive"):
        hurwitz_zeta_with_bound(0.5, 0.5, -1.0)
    with pytest.raises(DomainError, match="eps must be positive"):
        hurwitz_zeta_with_bound(0.5, 0.5, math.inf)


def test_hurwitz_rejects_nan_s():
    for s in (math.nan, complex(0.5, math.nan)):
        with pytest.raises(DomainError, match="only"):
            hurwitz_zeta_with_bound(s, 0.5, 1e-12)


def test_hurwitz_prints_the_modulus_of_s_in_full():
    # |100 + i| is above the cap; three significant digits read "100"
    with pytest.raises(DomainError) as err:
        hurwitz_zeta_with_bound(100 + 1j, 0.5)
    assert str(err.value) == ("|s| = 100.00499987500625; only |s| <= 100"
                              " is supported")


def test_l_at_one_and_lprime0_direct_against_mpmath():
    # the residue sums of L(1, chi) and L'(0, chi) in one array pass each,
    # against the same sums at 30 digits; a per-residue float loop was
    # 8e-14 off for L'(0) of 1009.2
    def ref(chi, fn):
        q = chi.modulus
        with mp.workdps(30):
            tot = mp.mpc(0)
            for a in range(1, q):
                v = eval_char(chi, a)
                if not v.is_zero:
                    tot += (mp.expjpi(2 * mp.mpf(v.numerator) / v.denominator)
                            * fn(mp.mpf(a) / q))
            return complex(tot)
    for label in ("61.2", "1009.5", "1009.2"):
        chi = character_from_label(label)
        want = -ref(chi, mp.digamma) / chi.modulus
        val, bound = L_value_with_bound(LContext(chi), 1)
        assert abs(val - want) <= bound, label
    chi = character_from_label("1009.2")
    assert abs(lprime0_direct(chi) - ref(chi, mp.loggamma)) <= 2e-14


def test_gamma_against_mpmath():
    pts = (0.5 + 0j, 1 + 0j, 4.7 + 0j, -0.5 + 0j, -2.3 + 1.1j,
           0.3 - 2j, 3 + 4j, 1 - 10j)
    for z in pts:
        with mp.workdps(25):
            ref = complex(mp.gamma(mp.mpc(z)))
        assert abs(complex_gamma(z) - ref) <= 1e-15 * abs(ref), z
    assert abs(complex_gamma(0.5 + 0j) - math.sqrt(math.pi)) < 1e-13
    for pole in (0 + 0j, -1 + 0j, -6 + 0j):
        with pytest.raises(PoleError):
            complex_gamma(pole)
    # off the real axis Gamma is mpmath's at 53 bits, whatever precision
    # the caller left mpmath at
    want = complex_gamma(0.3 - 2j)
    with mp.workdps(5):
        got = complex_gamma(0.3 - 2j)
    assert (got.real, got.imag) == (want.real, want.imag)


def test_gauss_sums():
    # tau(chi3) = i sqrt(3); tau of the real character mod 5 is sqrt(5)
    assert abs(gauss_sum(chi3()) - 1j * math.sqrt(3)) < 1e-12
    assert abs(gauss_sum(character_from_label("5.4")) - math.sqrt(5)) < 1e-12
    for q in range(3, 21):
        for chi in enumerate_characters(q):
            if chi.is_primitive and not chi.is_principal:
                assert abs(abs(gauss_sum(chi)) - math.sqrt(q)) < 1e-10


def test_root_numbers_unimodular():
    assert abs(LContext(chi3()).root_number - 1) < 1e-10
    for q in range(3, 21):
        for chi in enumerate_characters(q):
            if chi.is_primitive and not chi.is_principal:
                assert abs(abs(LContext(chi).root_number) - 1) < 1e-10


@pytest.mark.parametrize("q, exponent", [(7, 1), (999961, 16666), (1009, 1)],
                         ids=["7.3-order-6", "999961-order-60",
                              "1009-order-phi-q"])
def test_context_roots_equal_unit_roots_per_residue(q, exponent):
    # the context gathers e(k/order) from its `order` distinct values;
    # element for element they are _unit_roots on each residue's own k
    chi = Character(character_group(q), (exponent,))
    ctx = LContext(chi)
    want = lfunctions._unit_roots(ctx.vector[1], chi.order)
    assert ctx.roots.dtype == want.dtype and ctx.roots.shape == want.shape
    assert (ctx.roots == want).all()


def test_l_value_special_points():
    ctx = LContext(chi3())
    assert abs(L_value(ctx, 0.0) - (1 / 3)) <= 1e-10
    assert abs(L_value(ctx, 1.0) - math.pi / (3 * math.sqrt(3))) <= 1e-10
    # modulus 1 reduces to the Riemann zeta function
    zeta_ctx = LContext(character_group(1).principal())
    assert abs(L_value(zeta_ctx, 2.0) - math.pi**2 / 6) < 1e-10
    with pytest.raises(PoleError):
        L_value(zeta_ctx, 1.0)


def test_l_value_conjugation_at_real_s():
    chi = character_from_label("5.2")
    ctx, ctx_bar = LContext(chi), LContext(chi.conjugate())
    for s in (0.3, 0.7, 1.0, 2.3):
        a, b = L_value(ctx, s), L_value(ctx_bar, s)
        assert abs(a - b.conjugate()) < 1e-12


def test_l_value_continuous_through_one():
    # s = 1 takes the finite part -log w of w^(1-s)/(s-1) in the same
    # pass; approaching values must agree
    ctx = LContext(chi3())
    at_one = L_value(ctx, 1.0)
    near = L_value(ctx, 1.0 + 1e-7)
    assert abs(at_one - near) < 1e-6


def _mp_l_value(chi, s):
    """q^-s sum_a chi(a) zeta(s, a/q) in mpmath at 35 digits."""
    q = chi.modulus
    with mp.workdps(35):
        ms = mp.mpc(s.real, s.imag)
        tot = mp.mpc(0)
        for a in range(1, q + 1):
            v = eval_char(chi, a)
            if not v.is_zero:
                tot += (mp.expjpi(mp.mpf(2 * v.numerator) / v.denominator)
                        * mp.zeta(ms, mp.mpf(a) / q))
        return tot * mp.power(q, -ms)


def _check_certified(chi, s, eps=1e-12):
    """|L - ref| within the reported bound plus one ulp per component, and
    the bound within eps plus the |L| 2^-52 of L's own final rounding."""
    val, bound = L_value_with_bound(LContext(chi, eps), s)
    gap = float(abs(mp.mpc(val) - _mp_l_value(chi, s)))
    ulps = math.ulp(abs(val.real)) + math.ulp(abs(val.imag))
    assert gap <= bound + ulps, (chi.label, s, gap, bound)
    assert bound <= eps + abs(val) * 2.0 ** -52, (chi.label, s, bound)
    return val, bound


@st.composite
def _characters(draw):
    chars = enumerate_characters(draw(st.integers(1, 100)))
    return chars[draw(st.integers(0, len(chars) - 1))]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(chi=_characters(),
       sigma=st.floats(-2.0, 3.0), t=st.floats(-25.0, 25.0))
def test_l_value_bound_is_certified(chi, sigma, t):
    s = complex(sigma, t)
    if abs(s - 1) < 0.1:
        s += 0.2
    _check_certified(chi, s)


def _count_fallbacks(monkeypatch):
    calls = []
    inner = lfunctions._em_sum_bigfloat

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(lfunctions, "_em_sum_bigfloat", counted)
    return calls


@pytest.mark.parametrize("q, s", [(61, -3.5), (1009, -0.5)])
def test_l_value_fallback_meets_eps(monkeypatch, q, s):
    # longdouble rounding alone is over 1e-12 here: the residues are
    # combined on mpmath, and the bound still meets eps
    calls = _count_fallbacks(monkeypatch)
    chi = next(c for c in enumerate_characters(q) if c.order > 2)
    _check_certified(chi, complex(s))
    assert len(calls) == 1


@pytest.mark.parametrize("s, a", [(-3.5, 0.3), (complex(-1.5, 4), 0.7)])
def test_plain_hurwitz_fallback_meets_eps(monkeypatch, s, a):
    # eps = 1e-17 is under the longdouble rounding term, so zeta(s, a) for
    # a plain a runs on mpmath with every weight 1, and meets eps there
    calls = _count_fallbacks(monkeypatch)
    eps = 1e-17
    val, bound = hurwitz_zeta_with_bound(s, a, eps)
    assert len(calls) == 1
    with mp.workdps(50):
        gap = float(abs(mp.mpc(val) - mp.zeta(mp.mpc(s), mp.mpf(a))))
    assert gap <= bound, (s, a, gap, bound)
    assert bound <= eps + abs(val) * 2.0 ** -52, (s, a, bound)


def test_l_value_large_modulus_fast_route(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    chi = next(c for c in enumerate_characters(1009) if c.order > 2)
    _, bound = _check_certified(chi, 0.5 + 0j)
    assert not calls and bound <= 1e-12


def test_l_value_at_q_30011_stays_on_the_longdouble_route(monkeypatch):
    # phi(q) = 30010 residues: priced as a recursive sum (m in K) the
    # rounding term is 3.3e-12, over eps, and every residue went to
    # mpmath; the fold's depth (16 here) keeps it near 3e-14
    calls = _count_fallbacks(monkeypatch)
    ctx = LContext(character_from_label("30011.2"))
    _, bound = L_value_with_bound(ctx, 0.5)
    assert not calls and bound <= 1e-12


def test_fold_is_within_its_depth_bound_of_fsum():
    # 1 and then 2^16 - 1 copies of u: a left-to-right sum drops each u, an
    # error of about m u; the halving fold stays within its depth
    # ceil(log2 m) = 16 times u sum|x|, to first order
    m = 1 << 16
    x = np.full(m, U)
    x[0] = 1.0
    rng = np.random.default_rng(32)
    y = rng.standard_normal(4001) * np.exp(rng.uniform(-30, 30, 4001))
    for v, left_to_right_fails in ((x, True), (y, False)):
        exact, mass = math.fsum(v), math.fsum(np.abs(v))
        d = lfunctions._depth(len(v))
        bound = d * U / (1 - d * U) * mass + U * abs(exact)
        if left_to_right_fails:
            assert abs(float(np.cumsum(v)[-1]) - exact) > d * U * mass
        assert abs(lfunctions._fold(v.copy()) - exact) <= bound


@pytest.mark.parametrize("s", [0.5, 0.5 + 3j])
def test_l_value_at_q_1051_within_its_bound_of_mpmath(s):
    # a seeded character mod the prime 1051, against mpmath's Hurwitz zeta
    # at 20 digits residue by residue (about 2 s for both s)
    q = 1051
    exponent = random.Random(32).randrange(1, q - 1)
    chi = Character(character_group(q), (exponent,))
    val, bound = L_value_with_bound(LContext(chi), s)
    with mp.workdps(20):
        ms = mp.mpf(s) if isinstance(s, float) else mp.mpc(s.real, s.imag)
        tot = mp.mpc(0)
        for a in range(1, q):
            v = eval_char(chi, a)
            tot += (mp.expjpi(mp.mpf(2 * v.numerator) / v.denominator)
                    * mp.zeta(ms, mp.mpf(a) / q))
        gap = float(abs(mp.mpc(val) - tot * mp.power(q, -ms)))
    assert gap <= bound, (chi.label, s, gap, bound)
    assert bound <= 1e-12 + abs(val) * 2.0 ** -52


def test_l_value_bound_certified_at_one():
    val, bound = L_value_with_bound(LContext(chi3()), 1.0)
    assert isinstance(bound, float)
    assert bound <= 1e-12 + abs(val) * 2.0 ** -52
    assert abs(val - math.pi / (3 * math.sqrt(3))) <= bound


def _mp_l_at_one(chi):
    """-(1/q) sum_a chi(a) psi(a/q) in mpmath at 50 digits."""
    q = chi.modulus
    with mp.workdps(50):
        tot = mp.mpc(0)
        for a in range(1, q):
            v = eval_char(chi, a)
            if not v.is_zero:
                tot += (mp.expjpi(mp.mpf(2 * v.numerator) / v.denominator)
                        * mp.digamma(mp.mpf(a) / q))
        return -tot / q


def test_l_at_one_within_its_bound_of_the_digamma_sum(monkeypatch):
    # L(1, chi) = -(1/q) sum chi(a) psi(a/q), the finite part of the
    # Hurwitz sum, from the longdouble pass; a float64 digamma route was
    # 2.2e-16 off at 4.3, above this pass's bound of 2.09e-16
    monkeypatch.setattr(lfunctions, "_em_sum_bigfloat", None)
    chis = [character_from_label(label)
            for label in ("4.3", "5.4", "61.10", "1009.5")]
    even59 = next(c for c in enumerate_characters(59)
                  if parity(c) == 1 and c.order > 2)
    for chi in chis + [even59]:
        val, bound = L_value_with_bound(LContext(chi), 1)
        gap = float(abs(mp.mpc(val) - _mp_l_at_one(chi)))
        assert gap <= bound <= 1e-12 + abs(val) * 2.0 ** -52, (
            chi.label, gap, bound)
    assert L_value(LContext(chis[0]), 1) == math.pi / 4


def test_l_at_one_on_mpmath_within_its_bound(monkeypatch):
    # eps = 1e-30 is below the longdouble rounding term: the pass runs on
    # mpmath, with -log w in place of w^(1-s)/(s-1) there too
    calls = []
    bigfloat = lfunctions._em_sum_bigfloat
    monkeypatch.setattr(lfunctions, "_em_sum_bigfloat",
                        lambda *args: calls.append(args) or bigfloat(*args))
    for label in ("4.3", "61.10"):
        chi = character_from_label(label)
        val, bound = L_value_with_bound(LContext(chi, eps=1e-30), 1)
        gap = float(abs(mp.mpc(val) - _mp_l_at_one(chi)))
        assert gap <= bound <= 1e-30 + abs(val) * 2.0 ** -52, (
            label, gap, bound)
    assert len(calls) == 2


def test_pole_at_one_without_a_non_principal_context():
    # s = 1 is a pole unless a non-principal chi's weights cancel it
    for a in (np.array([0.25, 0.75]),
              LContext(character_group(5).principal())):
        with pytest.raises(PoleError):
            hurwitz_zeta_with_bound(1, a)


def test_l0_exact_values():
    assert L0_exact(chi3()) == Fraction(1, 3)
    assert L0_exact(character_from_label("4.3")) == Fraction(1, 2)
    # a complex odd character gives its numerators over q, one per angle:
    # mod 5, chi(2) = i, so L(0) = (3 - 2i + 0 (-1) - 3(-i))/5 = 0.6 + 0.2i
    chi5 = character_from_label("5.2")
    val = L0_exact(chi5)
    assert val.dtype == np.int64 and val.tolist() == [3, -2, 0, -3]
    c_chi, exact = l_special_factor(chi5)
    assert exact is None and abs(c_chi - (0.6 + 0.2j)) < 1e-15
    with pytest.raises(ParityError):
        L0_exact(character_from_label("5.4"))


def _l0_by_residue(chi):
    """L(0, chi) from eval_char one residue at a time, the reference: the
    numerators c_j = -(sum of the a with chi(a) = e(j/order)) over q, with
    e(1/2) = -1 folded into c_0; Fraction(c_0, q) when no other c_j is
    left, else the int64 vector c."""
    q, order = chi.modulus, chi.order
    c = [0] * order
    for a in range(1, q):
        v = eval_char(chi, a)
        if not v.is_zero:
            j = v.numerator * (order // v.denominator)
            if 2 * j == order:
                c[0] += a
            else:
                c[j] -= a
    return Fraction(c[0], q) if not any(c[1:]) else np.array(c, np.int64)


def test_l0_exact_matches_the_per_residue_sum():
    # the chi vector with per-angle int64 sums against eval_char, over
    # every odd character mod q <= 60 and a few larger moduli
    chars = [chi for q in range(3, 61) for chi in enumerate_characters(q)
             if parity(chi) == -1]
    for q in (1009, 2021, 4096):
        chars += [chi for chi in enumerate_characters(q)
                  if parity(chi) == -1][:3]
    for chi in chars:
        got, want = L0_exact(chi), _l0_by_residue(chi)
        assert type(got) is type(want) and np.array_equal(got, want), \
            chi.label


@pytest.mark.parametrize("q", [101, 1009, 9973])
def test_l0_exact_on_random_odd_characters(q):
    # the int64 fold of L0_exact against the per-residue numerators of
    # eval_char, on seeded random odd chi
    rng = random.Random(q)
    grp = character_group(q)
    chars = []
    while len(chars) < 4:
        chi = grp.character(tuple(rng.randrange(o) for o in grp.orders))
        if parity(chi) == -1:
            chars.append(chi)
    for chi in chars:
        got, want = L0_exact(chi), _l0_by_residue(chi)
        assert type(got) is type(want) and np.array_equal(got, want), \
            chi.label


def test_c_chi_is_the_sequential_sum_of_the_exact_terms():
    # c_chi of every odd chi mod q <= 60, bit for bit, against the sum the
    # exact form has always been rounded by: a Python sum from 0j over the
    # nonzero numerators of the reference, in angle order, of
    # e(j/order) * (c_j/q)
    for q in range(3, 61):
        for chi in enumerate_characters(q):
            if parity(chi) != -1:
                continue
            ref = _l0_by_residue(chi)
            if isinstance(ref, Fraction):
                want = complex(ref)
            else:
                want = sum((UnitValue.root(j, len(ref)).to_complex()
                            * (int(n) / q)
                            for j, n in enumerate(ref.tolist()) if n), 0j)
            got, exact = l_special_factor(chi)
            assert (got.real.hex(), got.imag.hex()) \
                == (want.real.hex(), want.imag.hex()), chi.label
            assert exact == (ref if isinstance(ref, Fraction) else None)


@pytest.mark.parametrize("q", [5, 61, 1009])
def test_c_chi_matches_mpmath_within_its_rounding_bound(q):
    # each root e(j/order) is within u + (2 pi + 1) eps (`turns_cos_sin`),
    # and c_j/q, the products and the n additions add at most n 2u of the
    # mass = sum|c_j|/q: against 50 digits, |c_chi - L(0)| is at most
    # mass (u + (2 pi + 1) eps + n 2u)
    u, eps = 2.0 ** -53, float(np.finfo(np.longdouble).eps)
    rng = random.Random(q)
    chars = [chi for chi in enumerate_characters(q)
             if parity(chi) == -1 and chi.order > 2]
    for chi in rng.sample(chars, min(3, len(chars))):
        c = L0_exact(chi)
        n = np.count_nonzero(c)
        mass = float(np.abs(c).sum()) / q
        vals = [(a, eval_char(chi, a)) for a in range(1, q)]
        got, _ = l_special_factor(chi)
        with mp.workdps(50):
            ref = -mp.fsum(a * mp.expjpi(2 * mp.mpf(v.numerator)
                                         / v.denominator)
                           for a, v in vals if not v.is_zero) / q
            err = float(abs(mp.mpc(got.real, got.imag) - ref))
        assert err <= mass * (u + (2 * math.pi + 1) * eps + n * 2 * u), \
            (chi.label, err)


def test_c_chi_at_q_99991_is_one_array_pass():
    # chi of order phi(q) puts one residue on each of 99,990 angles; an
    # exact Fraction per term took over 1 s on a 2-core x86 machine
    chi = character_group(99991).character((1,))
    assert chi.order == 99990 and parity(chi) == -1
    t0 = time.perf_counter()
    l_special_factor(chi)
    assert time.perf_counter() - t0 <= 0.5


def test_lprime0_known_values():
    # L'(0, chi5) = log((1+sqrt 5)/2), L'(0, chi8) = log(1+sqrt 2)
    v5 = Lprime0(character_from_label("5.4"))
    assert abs(v5 - math.log((1 + math.sqrt(5)) / 2)) < 1e-10
    chi8 = next(c for c in enumerate_characters(8)
                if c.is_primitive and parity(c) == 1)
    v8 = Lprime0(chi8)
    assert abs(v8 - math.log(1 + math.sqrt(2))) < 1e-10


def test_lprime0_dual_routes_agree():
    for label in ("5.4",):
        chi = character_from_label(label)
        gap = abs(lprime0_direct(chi) - lprime0_functional(chi))
        assert gap <= 1e-8
    chi8 = next(c for c in enumerate_characters(8)
                if c.is_primitive and parity(c) == 1)
    assert abs(lprime0_direct(chi8) - lprime0_functional(chi8)) <= 1e-8
    # complex even primitive character: conjugation symmetry
    chi13 = next(c for c in enumerate_characters(13)
                 if c.is_primitive and parity(c) == 1
                 and not c.is_principal and c.order > 2)
    assert abs(Lprime0(chi13.conjugate())
               - Lprime0(chi13).conjugate()) < 1e-10


def test_l_at_one_has_no_negative_zero_part():
    # the Hurwitz pass adds + 0j at s = 1 too, which turns a -0.0 part
    # into 0.0: `lfun --label 4.3 --s 1` prints "+ 0i", not "+ -0i"
    for q in range(3, 61):
        for chi in enumerate_characters(q):
            if chi.is_principal:
                continue
            v, _ = L_value_with_bound(LContext(chi), 1)
            for part in (v.real, v.imag):
                assert math.copysign(1.0, part) > 0 or part != 0, chi.label


def test_lprime0_functional_is_the_route_on_the_conjugate():
    # L(1, conj chi) is taken as conj L(1, chi) on chi's own table; it
    # equals the pass on conj chi's own context part for part (== treats
    # the sign of a zero part as equal), complex chi included
    seen_complex = False
    for q in range(3, 61):
        for chi in enumerate_characters(q):
            if chi.is_principal or parity(chi) != 1 or not chi.is_primitive:
                continue
            seen_complex |= chi.order > 2
            lbar = L_value(LContext(chi.conjugate()), 1)
            want = LContext(chi).root_number * math.sqrt(q) * lbar / 2
            got = lprime0_functional(chi)
            assert got == want, chi.label
    assert seen_complex


def test_lprime0_guards():
    with pytest.raises(ParityError):
        lprime0_direct(chi3())
    imprimitive = next(c for c in enumerate_characters(9)
                       if not c.is_principal and c.conductor() == 3)
    # that induced character is even (it inflates an odd chi3 value times
    # the trivial character mod 9 only when parities allow; check first)
    if parity(imprimitive) == 1:
        with pytest.raises(PrimitivityError):
            lprime0_direct(imprimitive)


def test_euler_factor_ratio_values():
    assert euler_factor_ratio(build_modified(chi3(), {}), 0.7) == 1
    assert abs(euler_factor_ratio(bcc(), 1.0) - 1.5) < 1e-15
    # Fig. 1 config at s=1, against a hand-expanded oracle
    fig1 = build_modified(chi3(), {p: ONE for p in (2, 3, 5, 11)})
    got = euler_factor_ratio(fig1, 1.0)
    oracle = 1.0
    for p in (2, 3, 5, 11):
        cp = eval_char(chi3(), p).to_complex()
        oracle *= (1 - cp / p) / (1 - 1 / p)
    assert abs(got - oracle) < 1e-14
    assert abs(got - 8.1) < 1e-12    # 3 * 3/2 * 3/2 * 6/5


def test_euler_factor_ratio_poles():
    with pytest.raises(PoleError) as ei:
        euler_factor_ratio(bcc(), 0.0)
    assert ei.value.prime == 3 and ei.value.index == 0
    # f(7) = -1 has poles at odd multiples of i pi / log 7
    fig2 = build_modified(chi3(), {2: ONE, 3: ONE, 5: ONE, 11: ONE, 7: MINUS})
    with pytest.raises(PoleError) as ei:
        euler_factor_ratio(fig2, complex(0, math.pi / math.log(7)))
    assert ei.value.prime == 7
    with pytest.warns(NearPoleWarning):
        euler_factor_ratio(bcc(), 1e-9)


def test_evaluate_f_reduction_and_pole_orders():
    plain = build_modified(chi3(), {})
    assert abs(evaluate_F(plain, 1.0)
               - L_value(LContext(chi3()), 1.0)) < 1e-14
    # sigma * F(sigma) -> L(0,chi)/log 3 = 1/(3 log 3) for the BCC config
    limit = 1 / (3 * math.log(3))
    for sigma in (1e-3, 1e-4):
        assert abs(sigma * evaluate_F(bcc(), sigma) - limit) < 1e-2 * limit
    # Fig. 1: sigma^4 F(sigma) -> L(0,chi) prod (1-chi(p))/log p
    fig1 = build_modified(chi3(), {p: ONE for p in (2, 3, 5, 11)})
    lim4 = (1 / 3) * (2 / math.log(2)) * (1 / math.log(3)) \
        * (2 / math.log(5)) * (2 / math.log(11))
    vals = [abs(sigma**4 * evaluate_F(fig1, sigma))
            for sigma in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(v > 0.05 for v in vals)
    assert abs(vals[-1] - lim4) < 0.05 * lim4
    # Fig. 3: T = -3 makes F vanish at 0; nearby it is tiny, not huge
    fig3 = build_modified(chi3(), {p: MINUS for p in (3, 7, 13, 19)})
    assert abs(evaluate_F(fig3, 1e-3)) < 1.0


def test_functional_equation_residuals():
    for s in (-0.5, 0.3, 0.9):
        for q in range(3, 21):
            for chi in enumerate_characters(q):
                if not chi.is_primitive or chi.is_principal:
                    continue
                assert functional_equation_check(LContext(chi), s) <= 1e-8, \
                    (chi.label, s)


def test_functional_equation_guards():
    imprimitive = next(c for c in enumerate_characters(9)
                       if not c.is_principal and c.conductor() == 3)
    with pytest.raises(PrimitivityError):
        functional_equation_check(LContext(imprimitive), 0.3)
    with pytest.raises(DomainError):
        functional_equation_check(LContext(chi3()), 1.0)   # Gamma(1-s) pole


def _fe_rhs(ctx, s, partner):
    """eps(chi) partner 2^s pi^(s-1) q^(1/2-s) Gamma(1-s) sin(pi(s+kappa)/2),
    multiplied in the order functional_equation_check uses."""
    return (ctx.root_number * partner * 2 ** s * math.pi ** (s - 1)
            * ctx.chi.modulus ** (0.5 - s) * complex_gamma(1 - s)
            * cmath.sin(math.pi * (s + ctx.kappa) / 2))


def _primitive_characters(q_max):
    return [chi for q in range(3, q_max + 1) for chi in enumerate_characters(q)
            if chi.is_primitive and not chi.is_principal]


def test_functional_equation_on_the_critical_line_matches_the_second_route():
    # on Re s = 1/2 the partner is conj L(s, chi) and no Hurwitz pass runs;
    # L(1 - s, conj chi) on conj chi's own context has the same bits, so
    # the residual does too
    for chi in _primitive_characters(60):
        ctx = LContext(chi)
        for s in (0.5, 0.5 + 3j, 0.5 - 3j, 0.5 + 11.5j):
            lhs = L_value(ctx, s)
            partner = L_value(LContext(chi.conjugate()), 1 - s)
            assert partner == lhs.conjugate(), (chi.label, s)
            assert functional_equation_check(ctx, s, lhs) \
                == abs(lhs - _fe_rhs(ctx, complex(s), partner)), (chi.label, s)


@pytest.mark.parametrize("s", [-0.5, 0.3 - 2j])
def test_functional_equation_off_the_line_matches_the_second_route(s):
    # off the line the partner is conj L(1 - conj s, chi), one more pass on
    # chi's context: within both partners' certified bounds of the second
    # route, L(1 - s, conj chi) on conj chi's own context
    s = complex(s)
    for chi in _primitive_characters(60):
        ctx = LContext(chi)
        lhs = L_value(ctx, s)
        own, bound = L_value_with_bound(ctx, 1 - s.conjugate())
        partner, bound_bar = L_value_with_bound(LContext(chi.conjugate()),
                                                1 - s)
        assert abs(own.conjugate() - partner) <= bound + bound_bar
        gap = abs(functional_equation_check(ctx, s, lhs)
                  - abs(lhs - _fe_rhs(ctx, s, partner)))
        assert gap <= (bound + bound_bar) * abs(_fe_rhs(ctx, s, 1)), \
            (chi.label, s, gap)


def test_neg_power_at_real_s_equals_the_cos_sin_form():
    def cos_sin_form(x, s):
        lx = np.log(x)
        mod = np.exp(-s * lx)
        return lfunctions._clongdouble(mod * np.cos(0 * lx),
                                       -mod * np.sin(0 * lx)), mod

    x = np.concatenate([np.arange(1, 40, dtype=np.longdouble),
                        np.linspace(0.01, 1, 37, dtype=np.longdouble)])
    for s in (-3.5, -0.5, 0.0, 0.5, 1.5, 2.0, 7.25):
        for xs in (x, np.longdouble(61)):        # the residues, and q
            z, mod = lfunctions._neg_power(xs, complex(s))
            ref, ref_mod = cos_sin_form(xs, s)
            assert z.dtype == np.clongdouble
            assert np.array_equal(mod, ref_mod) and np.array_equal(z, ref), s


def test_leading_coefficient_bcc_closed_form():
    # a_{1+k} = 1/(3 (k+1) log 3): c_chi = 1/3 exactly, one group-1 factor
    for k in (0, 1, 5, 13, 10**6):
        t0 = time.perf_counter()
        lc = leading_coefficient(bcc(), k)
        assert k < 10**6 or time.perf_counter() - t0 < 1.0   # O(N), not O(k)
        assert lc.N == 1 and lc.k == k
        expected = 1 / (3 * (k + 1) * math.log(3))
        assert abs(lc.value - expected) <= 1e-14 * expected
        assert lc.c_chi_exact == Fraction(1, 3)
        assert lc.factorial_ratio == Fraction(1, k + 1)
        assert lc.factors == ((3, 1, lc.factors[0][2]),)
        assert abs(lc.factors[0][2] - 1 / math.log(3)) < 1e-15
        assert abs(lc.recompute() - lc.value) <= 1e-12 * abs(lc.value)


def test_leading_coefficient_empty_s():
    lc = leading_coefficient(build_modified(chi3(), {}), 4)
    assert lc.N == 0 and lc.value == complex(Fraction(1, 3))
    assert lc.factors == ()


def test_leading_coefficient_fig2_group_breakdown():
    fig2 = build_modified(chi3(), {2: ONE, 3: ONE, 5: ONE, 11: ONE, 7: MINUS})
    lc = leading_coefficient(fig2, 0)
    groups = {p: g for p, g, _ in lc.factors}
    assert groups == {2: 1, 3: 1, 5: 1, 11: 1, 7: 2}
    f7 = next(v for p, _, v in lc.factors if p == 7)
    assert abs(f7 - math.log(7) / 2) < 1e-15
    assert abs(lc.recompute() - lc.value) <= 1e-12 * abs(lc.value)


def test_leading_coefficient_group3_and_even_base():
    # group 3: f(p) and chi(p) both off 1
    mc = build_modified(chi3(), {2: UnitValue.root(1, 3)})
    lc = leading_coefficient(mc, 2)
    p, g, v = lc.factors[0]
    w = cmath.exp(2j * math.pi / 3)
    assert (p, g) == (2, 3)
    assert abs(v - (1 - (-1)) / (1 - w)) < 1e-15
    # even base: c_chi = L'(0, chi)
    chi5 = character_from_label("5.4")
    mc5 = build_modified(chi5, {2: ONE, 3: ONE})
    lc5 = leading_coefficient(mc5, 0)
    assert lc5.N == 1 and lc5.c_chi_exact is None
    expected = math.log((1 + math.sqrt(5)) / 2) \
        * (2 / math.log(2)) * (2 / math.log(3))
    assert abs(lc5.value - expected) < 1e-9 * expected


def test_leading_coefficient_guards():
    with pytest.raises(DomainError):
        leading_coefficient(bcc(), -1)
    imprimitive = next(c for c in enumerate_characters(9)
                       if not c.is_principal and c.conductor() == 3
                       and parity(c) == -1)
    mc = build_modified(imprimitive, {2: ONE}, allow_imprimitive=True)
    with pytest.warns(UntrustedTheoryWarning):
        leading_coefficient(mc, 0)


def test_leading_coefficient_describe_round_trip():
    lc = leading_coefficient(bcc(), 13)
    d = lc.describe()
    assert d["N"] == 1 and d["k"] == 13
    assert d["c_chi_exact"] == "1/3"
    assert d["factorial_ratio"] == [1, 14]
    value = complex(*d["value"])
    assert abs(value - lc.value) == 0


def test_leading_coefficient_warns_at_a_zero_of_f():
    # ord_0 F = T - [chi even] < 0: the value is F's first nonzero Taylor
    # coefficient, F(s)/s^z -> value, and the warning names z
    fig3 = build_modified(chi3(), {p: MINUS for p in (3, 7, 13, 19)})
    even = build_modified(character_from_label("5.4"),
                          {2: UnitValue.root(1, 4)})
    for mc, z in ((fig3, 3), (even, 1)):
        with pytest.warns(UntrustedTheoryWarning,
                          match=f"zero of order {z} at s = 0"):
            lc = leading_coefficient(mc, 0)
        assert lc.N == 0
        sigma = 1e-4
        assert abs(evaluate_F(mc, sigma) / sigma ** z - lc.value) \
            < 1e-2 * abs(lc.value)
    fig1 = build_modified(chi3(), {p: ONE for p in (2, 3, 5, 11)})
    fig2 = build_modified(chi3(), {2: ONE, 3: ONE, 5: ONE, 11: ONE, 7: MINUS})
    for mc in (fig1, fig2, bcc()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leading_coefficient(mc, 0)


_PRIMITIVE = [c for q in range(3, 61) for c in enumerate_characters(q)
              if c.is_primitive and not c.is_principal]
# real and complex chi drawn alike often: only 39 of the 661 are real
_PRIMITIVE_CHI = st.one_of(
    st.sampled_from([c for c in _PRIMITIVE if c.order == 2]),
    st.sampled_from([c for c in _PRIMITIVE if c.order > 2]))
_ORDER_LE_6 = st.integers(1, 6).flatmap(
    lambda m: st.builds(UnitValue.root, st.integers(0, m - 1), st.just(m)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chi=_PRIMITIVE_CHI,
       mods=st.dictionaries(st.sampled_from((2, 3, 5, 7, 11, 13)),
                            _ORDER_LE_6, max_size=3))
def test_euler_factor_records_against_eval_char_and_F_near_zero(chi, mods):
    # T and N from eval_char alone; where ord_0 F >= 0, N! a_N at k = 0
    # is the limit of s^N F(s), checked at sigma = 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # f(p) = chi(p) entries drop out
        mc = build_modified(chi, mods)
    chi_at = {p: eval_char(chi, p) for p in mods}
    kept = {p: v for p, v in mods.items() if v != chi_at[p]}
    assert mc.primes == tuple(sorted(kept))
    t = (sum(v.is_one for v in kept.values())
         - sum(chi_at[p].is_one for p in kept))
    even = eval_char(chi, chi.modulus - 1).is_one      # chi(-1) = 1
    order = t - even
    assert compute_T(mc) == t and compute_N(mc) == max(0, order)
    if order < 0:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lc = leading_coefficient(mc, 0)
    want = math.factorial(order) * lc.value
    sigma = 1e-6
    ctx = LContext(chi, eps=1e-15)
    l1, bound = L_value_with_bound(ctx, sigma)
    l2 = L_value(ctx, 2 * sigma)
    got = sigma ** order * euler_factor_ratio(mc, sigma) * l1
    # s^N F(s) = N! a_N (1 + s D + O(s^2)), D its log-derivative at 0. Each
    # 1 - w p^-s of a factor adds +-w log p/(1 - w) to D, at most
    # log p/|1 - w|, for w != 1, and +-log p/2 for w = 1 besides the s it
    # gives or takes; then it loses about 2u/(sigma log p) at sigma to
    # cancellation, 4u allowed. L's share of D (L'/L(0) odd, L''/2L'(0)
    # even) is read from L at sigma and 2 sigma, doubled; the whole
    # first-order term is doubled again, and L's own bound is added.
    d, cancel = 0.0, 0.0
    for p, v in kept.items():
        for w in (chi_at[p], v):
            if w.is_one:
                d += math.log(p) / 2
                cancel += 4 * U / (sigma * math.log(p))
            elif not w.is_zero:
                d += math.log(p) / abs(1 - w.to_complex())
    d += 2 * abs(l2 / (2 if even else 1) / l1 - 1) / sigma
    tol = 2 * sigma * d + cancel + 8 * U + bound / abs(l1)
    assert abs(got - want) <= tol * abs(want), (chi.label, mods)
