"""Polynomial fits, growth diagnostics, and the smoothing-integral check."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from modchar.analysis import (fit_riesz_polynomial, growth_check,
                              mellin_lemma_check)
from modchar.characters import character_from_label
from modchar.errors import (BelowOrderThresholdWarning, DomainError, FitError)
from modchar.modified import build_modified
from modchar.roots import UnitValue
from modchar.sieve import RieszRecord, partial_sums, riesz_means


def bcc():
    return build_modified(character_from_label("3.2"), {3: UnitValue.one()})


def synthetic_record(coeffs, k, x_lo=10.0, x_hi=1e6, npoints=60):
    """RieszRecord whose order-k row is exactly a polynomial in log x.

    coeffs are power-basis c_0..c_D; no source character is attached, so
    the fit runs without a theory column.
    """
    xs = np.unique(np.geomspace(x_lo, x_hi, npoints).astype(np.int64))
    u = np.log(xs.astype(np.float64))
    row = np.zeros(len(xs), dtype=np.complex128)
    for c in reversed(coeffs):
        row = row * u + c
    values = row[np.newaxis, :]
    return RieszRecord((k,), xs, values, False, int(xs[-1]),
                       "synthetic")


def test_synthetic_cubic_recovered():
    # degree 3 = N + k with k = 2, N = 1; data is the exact polynomial
    coeffs = (7.0, 0.25, -1.0, 2.5)
    rec = synthetic_record(coeffs, 2)
    fit = fit_riesz_polynomial(rec, 2, 1)
    assert fit.degree == 3
    assert fit.npoints == len(rec.checkpoints)
    for got, want in zip(fit.coefficients, coeffs):
        assert abs(got - want) < 1e-6
    assert abs(fit.lead - 2.5) < 1e-8
    assert fit.residual_norm < 1e-7
    assert fit.max_residual < 1e-6
    assert fit.instability < 1e-6
    assert fit.theory is None and fit.lead_ratio is None
    assert fit.lead_gap is None
    assert fit.config_digest == "synthetic"
    lo, hi = fit.u_window
    assert math.isclose(lo, math.log(rec.checkpoints[0]))
    assert math.isclose(hi, math.log(rec.checkpoints[-1]))


def test_synthetic_evaluate_reproduces_polynomial():
    coeffs = (7.0, 0.25, -1.0, 2.5)
    fit = fit_riesz_polynomial(synthetic_record(coeffs, 2), 2, 1)
    for x in (25.0, 1e3, 4e4, 9e5):
        u = math.log(x)
        want = ((2.5 * u - 1.0) * u + 0.25) * u + 7.0
        got = fit.evaluate([x])[0]
        assert abs(got - want) < 1e-8 * abs(want)


def test_synthetic_complex_lead():
    coeffs = (1.0 - 2.0j, 0.5j, 3.0 + 4.0j)
    fit = fit_riesz_polynomial(synthetic_record(coeffs, 1), 1, 1)
    assert fit.degree == 2
    assert abs(fit.lead - (3.0 + 4.0j)) < 1e-8
    for got, want in zip(fit.coefficients, coeffs):
        assert abs(got - want) < 1e-6


def test_fit_rejects_bad_requests():
    rec = synthetic_record((1.0, 2.0), 1)
    with pytest.raises(DomainError):
        fit_riesz_polynomial(dataclasses.replace(rec, normalized=True), 1, 1)
    with pytest.raises(DomainError):
        fit_riesz_polynomial(rec, 3, 1)          # order 3 not in the record
    with pytest.raises(DomainError):
        fit_riesz_polynomial(rec, 1, -1)
    rec0 = synthetic_record((1.0,), 0)
    with pytest.raises(FitError):
        fit_riesz_polynomial(rec0, 0, 0)         # degree 0 is degenerate


def test_fit_rejects_thin_grids():
    # 10 points cannot pin degree 3 (needs 12)
    rec = synthetic_record((7.0, 0.25, -1.0, 2.5), 2, npoints=10)
    with pytest.raises(FitError):
        fit_riesz_polynomial(rec, 2, 1)
    # 30 points squeezed into one decade
    rec = synthetic_record((1.0, 2.0), 1, x_lo=100.0, x_hi=999.0, npoints=30)
    with pytest.raises(FitError):
        fit_riesz_polynomial(rec, 1, 0)
    # 40 points but only 8 distinct abscissas: rank < degree + 1
    xs = np.repeat(np.geomspace(10, 1e6, 8).astype(np.int64), 5)
    values = np.zeros((1, len(xs)), dtype=np.complex128)
    rec = RieszRecord((9,), xs, values, False, int(xs[-1]), "thin")
    with pytest.raises(FitError):
        fit_riesz_polynomial(rec, 9, 0)


def _bcc_record():
    return riesz_means(bcc(), [5, 13], 100000, checkpoints="geometric:1.02")


def test_smoothed_sum_fit_matches_closed_form():
    # one flipped prime, simple pole: degree N + k = 14 in log x, leading
    # coefficient 1 / (3 * 14 * log 3); measured ratio 1 + 1.4e-6 at 1e5
    rec = _bcc_record()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_riesz_polynomial(rec, 13, 1)   # 13 meets the threshold
    theory = 1.0 / (42.0 * math.log(3.0))
    assert fit.theory is not None
    assert abs(fit.theory - theory) < 1e-15
    assert abs(fit.lead / theory - 1.0) < 1e-4
    assert abs(fit.lead_ratio - 1.0) < 1e-4
    assert fit.lead_gap == abs(fit.lead - fit.theory)
    assert 0.5 < fit.residual_decade_ratio < 1.2
    assert fit.condition < 100.0
    assert fit.instability < 1e-4
    assert 0.0 < fit.residual_norm < 2.0
    assert fit.npoints == len(rec.checkpoints) - 1   # x = 1 dropped
    assert fit.config_digest == rec.config_digest


def test_fit_warns_below_threshold():
    rec = _bcc_record()
    with pytest.warns(BelowOrderThresholdWarning,
                      match="below the admissible threshold 13"):
        fit = fit_riesz_polynomial(rec, 5, 1)
    # the fit itself still runs, and at this size even k = 5 looks clean
    assert abs(fit.lead_ratio - 1.0) < 1e-3


def _bcc_series():
    return partial_sums(bcc(), 100000, checkpoint_rule="geometric:1.01")


def test_growth_verdicts_discriminate():
    ps = _bcc_series()
    # |M(x)| itself keeps setting records: omega-consistent, not O(1)
    g = growth_check(ps, 0, "omega")
    assert g.verdict == "consistent-with-omega"
    assert g.sup == 8.0
    assert growth_check(ps, 0, "upper").verdict == "inconclusive"
    # |M(x)| / log x is bounded and keeps returning to its record
    assert growth_check(ps, 1, "upper").verdict == "consistent-with-O"
    assert growth_check(ps, 1, "omega").verdict == "consistent-with-omega"
    # dividing by (log x)^4 kills the signal
    assert growth_check(ps, 4, "upper").verdict == "consistent-with-O"
    assert growth_check(ps, 4, "omega").verdict == "inconclusive"


def test_growth_bounded_series():
    plain = build_modified(character_from_label("3.2"), {})
    ps = partial_sums(plain, 100000, checkpoint_rule="geometric:1.01")
    g = growth_check(ps, 0, "upper")
    assert g.verdict == "consistent-with-O"
    assert g.sup == 1.0                          # period sums stay in 0, 1
    assert growth_check(ps, 0, "omega").verdict == "consistent-with-omega"


def test_growth_scale_invariance():
    ps = _bcc_series()
    for exponent, mode in ((0, "omega"), (0, "upper"), (1, "upper"),
                           (1, "omega"), (4, "omega"), (4, "upper")):
        base = growth_check(ps, exponent, mode)
        for c in (17.0, -0.003, 2.0j):
            scaled = dataclasses.replace(ps, sums=ps.sums * c)
            g = growth_check(scaled, exponent, mode)
            assert g.verdict == base.verdict
            assert np.allclose(g.ratios, abs(c) * base.ratios, rtol=1e-12)


def test_growth_zero_series_inconclusive():
    ps = _bcc_series()
    zeroed = dataclasses.replace(ps, sums=np.zeros_like(ps.sums))
    for mode in ("omega", "upper"):
        g = growth_check(zeroed, 1, mode)
        assert g.verdict == "inconclusive"
        assert g.sup == 0.0


def test_growth_report_fields():
    ps = _bcc_series()
    g = growth_check(ps, 1, "omega")
    assert g.mode == "omega" and g.exponent == 1
    assert g.heuristic is True
    assert g.config_digest == ps.config_digest
    assert g.checkpoints.dtype == np.int64
    assert g.checkpoints.min() >= 2               # x = 1 dropped for log
    assert np.all(np.diff(g.running_max) >= 0)
    assert g.sup == g.running_max[-1]
    half = len(g.ratios) // 2
    assert g.tail_inf == g.running_max[half:].min()
    assert g.tail_inf <= g.sup
    xs = g.checkpoints.astype(np.float64)
    want = np.abs(ps.sums[ps.checkpoints >= 2]) / np.log(xs)
    assert np.allclose(g.ratios, want, rtol=1e-12)


def test_growth_guards():
    ps = _bcc_series()
    with pytest.raises(DomainError):
        growth_check(ps, -1, "upper")
    with pytest.raises(DomainError):
        growth_check(ps, 1, "sideways")
    short = partial_sums(bcc(), 1000, checkpoint_rule=[100, 500, 1000])
    with pytest.raises(DomainError):
        growth_check(short, 1, "upper")


def test_smoothing_integral_grid():
    # integral_1^inf (log x)^a x^(-1-s) dx = Gamma(a+1) / s^(a+1)
    for sigma in (1.0, 0.5, 0.25):
        for alpha in (0.0, 1.0, 2.0, 3.0):
            numeric, analytic, gap = mellin_lemma_check(sigma, alpha)
            want = math.gamma(alpha + 1.0) / sigma ** (alpha + 1.0)
            assert abs(analytic - want) < 1e-12 * want
            assert gap <= 1e-6
            assert abs(numeric - analytic) == gap
    assert mellin_lemma_check(1.0, 0.0)[1] == 1.0
    assert mellin_lemma_check(1.0, 1.0)[1] == 1.0
    assert mellin_lemma_check(0.25, 3.0)[1] == 1536.0
    # non-integer alpha goes through the same incomplete-gamma tail
    numeric, analytic, gap = mellin_lemma_check(2.0, 0.5)
    assert abs(analytic - math.gamma(1.5) / 2.0 ** 1.5) < 1e-12
    assert gap <= 1e-6


def test_smoothing_integral_ignores_the_callers_mpmath_precision():
    want = mellin_lemma_check(0.25, 2.5)
    for dps in (5, 50):
        with mp.workdps(dps):
            assert mellin_lemma_check(0.25, 2.5) == want, dps


def test_smoothing_integral_guards():
    for sigma in (0.0, -1.0):
        with pytest.raises(DomainError):
            mellin_lemma_check(sigma, 1.0)
    with pytest.raises(DomainError):
        mellin_lemma_check(1.0, -0.5)
    with pytest.raises(DomainError):
        mellin_lemma_check(1.0, 1.0, x_cut=1.0)
