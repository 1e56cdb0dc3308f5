"""Acceptance gate: ten end-to-end criteria, one printed verdict each.

Every test prints a single PASS/FAIL line (visible through pytest's
capture) and then asserts, so a red criterion is a red test. Tolerances
and runtime budgets sit inline next to each check.
"""

import json
import math
import random
import time
import warnings
from itertools import product

import mpmath as mp
import numpy as np

from modchar.analysis import (fit_riesz_polynomial, growth_check,
                              mellin_lemma_check)
from modchar.characters import character_from_label, enumerate_characters
from modchar.cli import main
from modchar.diophantine import (continued_fraction, min_riesz_order,
                                 pole_series_diagnostic)
from modchar.lfunctions import (LContext, L_value, functional_equation_check,
                                lprime0_direct, lprime0_functional, parity)
from modchar.modified import build_modified, eval_f_exact
from modchar.roots import UnitValue
from modchar.sieve import (CHUNK, RieszRecord, SieveContext, mellin_transform,
                           partial_sums, riesz_means)

ONE = UnitValue.one()
MINUS = UnitValue.minus_one()


def chi3():
    return character_from_label("3.2")


def bcc():
    return build_modified(chi3(), {3: ONE})


def fig1():
    return build_modified(chi3(), {p: ONE for p in (2, 3, 5, 11)})


def fig2():
    mods = {p: ONE for p in (2, 3, 5, 11)}
    mods[7] = MINUS
    return build_modified(chi3(), mods)


def complex_mc():
    return build_modified(character_from_label("5.2"),
                          {2: MINUS, 7: UnitValue.root(1, 3)})


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_preset_reproduction(tmp_path, capsys):
    # fig1/fig2/fig3 report N = 4, 3, 0 with exact integer accumulators
    # and a partial-sum CSV over x <= 10^6; budget 30 s per preset
    expected = {"fig1": 4, "fig2": 3, "fig3": 0}
    fails, took = [], {}
    for name, n_want in expected.items():
        t0 = time.perf_counter()
        code = main(["preset", name, "--xmax", "1000000",
                     "--outdir", str(tmp_path), "--json"])
        took[name] = time.perf_counter() - t0
        report = json.loads(capsys.readouterr().out)
        if code != 0 or report["N"] != n_want:
            fails.append(f"{name}: N = {report['N']}, wanted {n_want}")
        if not report["exact_accumulator"]:
            fails.append(f"{name}: accumulator not exact")
        with open(report["csv"], encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        if lines[0] != "x,re_sum,im_sum":
            fails.append(f"{name}: bad CSV header")
        xs = [int(line.split(",")[0]) for line in lines[1:]]
        if max(xs) != 10**6 or any(x > 10**6 for x in xs):
            fails.append(f"{name}: checkpoint range wrong")
        re_last = float(lines[-1].split(",")[1])
        if not re_last.is_integer():
            fails.append(f"{name}: non-integer accumulated sum")
        if took[name] > 30.0:
            fails.append(f"{name}: took {took[name]:.1f}s > 30s")
    announce(capsys, 1, not fails,
             "presets N = 4/3/0 exact, CSVs to 1e6, "
             + ", ".join(f"{n} {t:.1f}s" for n, t in took.items())
             + ("" if not fails else "; " + "; ".join(fails)))


def test_criterion_02_sign_pattern_matrix(capsys):
    # all 2^4 sign patterns at {2, 3, 5, 11}; the oracle recounts both
    # cardinalities from scratch (chi mod 3 is 1 exactly on p = 1 mod 3)
    primes = (2, 3, 5, 11)
    chi_one = sum(1 for p in primes if p != 3 and p % 3 == 1)
    fails = []
    for signs in product((1, -1), repeat=4):
        f_one = sum(1 for s in signs if s == 1)
        t_want = f_one - chi_one
        n_want = max(0, t_want)                   # odd base character
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mc = build_modified(chi3(), {
                p: (ONE if s == 1 else MINUS)
                for p, s in zip(primes, signs)})
        if (mc.sign_shift, mc.pole_order) != (t_want, n_want):
            fails.append(f"{signs}: got ({mc.sign_shift}, {mc.pole_order}),"
                         f" wanted ({t_want}, {n_want})")
    announce(capsys, 2, not fails,
             "16/16 sign patterns match the recounted (T, N)"
             if not fails else "; ".join(fails))


def test_criterion_03_sieve_vs_exact_oracle(capsys):
    # 10 seeded random configs, q <= 20, |S| <= 4, orders <= 12: sieved
    # angles equal trial-factorization values exactly for all n <= 10^5
    rng = random.Random(20260819)
    x = 10**5
    t0 = time.perf_counter()
    fails = []
    labels = []
    for _ in range(10):
        q = rng.randint(3, 20)
        chars = enumerate_characters(q)
        chi = chars[rng.randrange(len(chars))]
        mods = {}
        for p in rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23),
                            rng.randint(0, 4)):
            b = rng.randint(1, 12)
            mods[p] = UnitValue.root(rng.randrange(b), b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mc = build_modified(chi, mods, allow_imprimitive=True)
        labels.append(chi.label)
        ctx = SieveContext(mc, x)
        t, zero = ctx.block_angles(1, x + 1)
        scale = ctx.scale
        for n in range(1, x + 1):
            v = eval_f_exact(mc, n)
            if v.is_zero != bool(zero[n - 1]):
                fails.append(f"{chi.label}: zero mismatch at n = {n}")
                break
            if not v.is_zero and (v.angle.numerator * scale
                                  != int(t[n - 1]) * v.angle.denominator):
                fails.append(f"{chi.label}: angle mismatch at n = {n}")
                break
    took = time.perf_counter() - t0
    if took > 60.0:
        fails.append(f"took {took:.1f}s > 60s")
    announce(capsys, 3, not fails,
             f"10 configs ({', '.join(labels)}) exact to 1e5, {took:.1f}s"
             if not fails else "; ".join(fails))


def test_criterion_04_riesz_vs_double_loop(capsys):
    # single-pass smoothed sums against the direct O(x * k) reference
    x = 10**4
    ks = (0, 1, 2, 5, 13)
    cps = (10, 123, 4096, x)
    t0 = time.perf_counter()
    worst = 0.0
    for mc in (bcc(), fig2(), complex_mc()):
        vals = np.fromiter((complex(z) for z in
                            (eval_f_exact(mc, n).to_complex()
                             for n in range(1, x + 1))),
                           dtype=np.complex128, count=x)
        logs = np.log(np.arange(1, x + 1, dtype=np.longdouble))
        rec = riesz_means(mc, ks, x, cps)
        for k in ks:
            row = rec.row(k)
            for i, cp in enumerate(cps):
                w = (np.log(np.longdouble(cp)) - logs[:cp]) ** k
                ref = complex(np.dot(vals[:cp].real, w)
                              + 1j * np.dot(vals[:cp].imag, w))
                worst = max(worst,
                            abs(row[i] - ref) / max(abs(ref), 1.0))
    took = time.perf_counter() - t0
    ok = worst <= 1e-9 and took <= 30.0
    announce(capsys, 4, ok,
             f"3 configs, k in {ks}: worst relative gap {worst:.2e}"
             f" (tol 1e-9), {took:.1f}s")


def test_criterion_05_l_special_values(capsys):
    t0 = time.perf_counter()
    fails = []
    gap0 = abs(L_value(LContext(chi3()), 0.0) - 1.0 / 3.0)
    if gap0 > 1e-10:
        fails.append(f"L(0) gap {gap0:.2e} > 1e-10")
    chi8 = next(c for c in enumerate_characters(8)
                if c.is_primitive and parity(c) == 1)
    for chi in (character_from_label("5.4"), chi8):
        dual = abs(lprime0_direct(chi) - lprime0_functional(chi))
        if dual > 1e-8:
            fails.append(f"L'(0) routes differ by {dual:.2e} at {chi.label}")
    worst_fe, n_chars = 0.0, 0
    for q in range(3, 21):
        for chi in enumerate_characters(q):
            if not chi.is_primitive or chi.is_principal:
                continue
            n_chars += 1
            ctx = LContext(chi)
            for s in (-0.5, 0.3, 0.9):
                worst_fe = max(worst_fe, functional_equation_check(ctx, s))
    if worst_fe > 1e-8:
        fails.append(f"functional equation residual {worst_fe:.2e} > 1e-8")
    took = time.perf_counter() - t0
    if took > 60.0:
        fails.append(f"took {took:.1f}s > 60s")
    announce(capsys, 5, not fails,
             f"L(0) gap {gap0:.1e}, dual L'(0) <= 1e-8, worst equation"
             f" residual {worst_fe:.1e} over {n_chars} characters, {took:.1f}s"
             if not fails else "; ".join(fails))


def test_criterion_06_leading_coefficient_fit(capsys):
    # one flipped prime, k = 13: degree-14 fit over x <= 10^6 against
    # a_14 = 1/(3 * 14 * log 3), within 5 percent, decade ratio <= 1.5
    t0 = time.perf_counter()
    rec = riesz_means(bcc(), [13], 10**6, checkpoints="geometric:1.02")
    fit = fit_riesz_polynomial(rec, 13, 1)
    took = time.perf_counter() - t0
    theory = 1.0 / (3.0 * 14.0 * math.log(3.0))
    rel = abs(fit.lead / theory - 1.0)
    ok = (rel <= 0.05 and fit.residual_decade_ratio <= 1.5 and took <= 300.0
          and abs(fit.theory - theory) < 1e-15)
    announce(capsys, 6, ok,
             f"lead {fit.lead.real:.8f} vs 1/(42 log 3) = {theory:.8f},"
             f" off by {rel:.2e} (tol 5e-2); decade ratio"
             f" {fit.residual_decade_ratio:.3f} (tol 1.5); {took:.1f}s")


def test_criterion_07_structure_suite(capsys):
    fails = []
    # exact-polynomial data comes back with coefficients to 1e-6
    coeffs = (7.0, 0.25, -1.0, 2.5)
    xs = np.unique(np.geomspace(10, 1e6, 60).astype(np.int64))
    u = np.log(xs.astype(np.float64))
    row = np.zeros(len(xs), dtype=np.complex128)
    for c in reversed(coeffs):
        row = row * u + c
    rec = RieszRecord((2,), xs, row[np.newaxis, :], False, int(xs[-1]),
                      "synthetic")
    fit = fit_riesz_polynomial(rec, 2, 1)
    coeff_err = max(abs(g - w) for g, w in zip(fit.coefficients, coeffs))
    if coeff_err > 1e-6:
        fails.append(f"synthetic fit off by {coeff_err:.2e}")
    # order-0 smoothed sums are the partial sums, bit for bit
    x = 2 * CHUNK + 77
    for mc in (bcc(), complex_mc()):
        if not np.array_equal(riesz_means(mc, [0, 4], x, "dyadic").row(0),
                              partial_sums(mc, x, "dyadic").sums):
            fails.append(f"k = 0 row differs from partial sums ({mc.digest()})")
    # single-prime override, anchor at it: the comparison series is zeta(k)
    mp.mp.dps = 25
    worst = 0.0
    for k in (2, 5, 13):
        trace = pole_series_diagnostic(bcc(), 3, k, 10**4)
        worst = max(worst, abs(trace.total_estimate - float(mp.zeta(k))))
    if worst > 1e-8:
        fails.append(f"pole series vs zeta gap {worst:.2e} > 1e-8")
    announce(capsys, 7, not fails,
             f"synthetic fit {coeff_err:.1e} (tol 1e-6); k=0 row exact;"
             f" zeta gap {worst:.1e} (tol 1e-8)"
             if not fails else "; ".join(fails))


def test_criterion_08_omega_evidence(capsys):
    # heuristic by construction: a finite run cannot prove a limsup; the
    # 0.05 floor is an empirical acceptance threshold, not a proved bound
    t0 = time.perf_counter()
    ps = partial_sums(bcc(), 10**7, checkpoint_rule="geometric:1.01")
    omega = growth_check(ps, 1, "omega")
    ps_f1 = partial_sums(fig1(), 10**7, checkpoint_rule="geometric:1.01")
    upper = growth_check(ps_f1, 4, "upper")
    took = time.perf_counter() - t0
    ok = (omega.tail_inf > 0.05 and omega.heuristic
          and math.isfinite(upper.sup) and took <= 600.0)
    announce(capsys, 8, ok,
             f"single-flip tail inf |M|/log x = {omega.tail_inf:.4f}"
             f" (> 0.05, {omega.verdict}); four-flip sup |M|/(log x)^4"
             f" = {upper.sup:.4f} ({upper.verdict}); x <= 1e7, {took:.1f}s")


def test_criterion_09_diophantine(capsys):
    t0 = time.perf_counter()
    fails = []
    table = continued_fraction(2, 3, depth=30)
    # exhaustive best-approximation records up to 10^4
    alpha = np.longdouble(math.log(2)) / np.longdouble(math.log(3))
    n = np.arange(1, 10**4 + 1, dtype=np.longdouble)
    gap = np.abs(n * alpha - np.round(n * alpha))
    best = np.minimum.accumulate(gap)
    records = [1] + [int(i + 1) for i in range(1, len(gap))
                     if gap[i] < best[i - 1]]
    denoms = sorted({b for _, b in table.convergents if b <= 10**4})
    if denoms != records:
        fails.append(f"denominators {denoms} != scan records {records}")
    with mp.workprec(600):
        a_hp = mp.log(2) / mp.log(3)
        for h, b in table.convergents:
            if not abs(a_hp - mp.mpf(h) / b) < mp.mpf(1) / (b * b):
                fails.append(f"law fails at {h}/{b}")
    k_fig1 = min_riesz_order(fig1(), 1.0)
    k_bcc = min_riesz_order(bcc(), 1.0)
    if (k_fig1, k_bcc) != (39, 13):
        fails.append(f"thresholds ({k_fig1}, {k_bcc}) != (39, 13)")
    took = time.perf_counter() - t0
    if took > 60.0:
        fails.append(f"took {took:.1f}s > 60s")
    announce(capsys, 9, not fails,
             f"records {records} match convergents; |alpha - h/b| < 1/b^2"
             f" all rows; k_min = 39/13; {took:.1f}s"
             if not fails else "; ".join(fails))


def test_criterion_10_mellin(capsys):
    fails = []
    worst = 0.0
    for sigma in (1.0, 0.5, 0.25):
        for alpha in (0.0, 1.0, 2.0, 3.0):
            numeric, analytic, gap = mellin_lemma_check(sigma, alpha)
            worst = max(worst, gap / analytic)
    if worst > 1e-6:
        fails.append(f"quadrature off by {worst:.2e} relative")
    plain = build_modified(chi3(), {})
    res = mellin_transform(plain, 1.0, 10**5)
    l1 = L_value(LContext(chi3()), 1.0)
    gap = abs(res.value - l1)
    if gap > res.tail_bound:
        fails.append(f"transform gap {gap:.2e} exceeds reported bound"
                     f" {res.tail_bound:.2e}")
    announce(capsys, 10, not fails,
             f"12-point grid worst {worst:.1e} relative (tol 1e-6);"
             f" transform vs L(1) gap {gap:.2e} <= bound"
             f" {res.tail_bound:.2e}"
             if not fails else "; ".join(fails))
