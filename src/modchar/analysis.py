"""Polynomial fits, growth diagnostics, and the smoothing-integral check.

The smoothed sums sum_{n<=x} f(n) (log x/n)^k should equal a polynomial of
degree N+k in log x up to O(1) once k clears the diophantine threshold.
`fit_riesz_polynomial` recovers that polynomial by least squares in an
orthogonalized basis (degree-40 monomial fits in log x are numerically
singular) and compares the fitted leading coefficient against the closed
form. `growth_check` turns partial sums into ratio diagnostics against
(log x)^exponent. Every verdict these produce is heuristic: a finite run
cannot prove a limsup statement, it can only be consistent with one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre

from .errors import (BelowOrderThresholdWarning, DomainError, FitError)
from .diophantine import min_riesz_order
from .lfunctions import leading_coefficient
from .sieve import PartialSumSeries, RieszRecord

MAX_CONDITION = 1e12


@dataclass(frozen=True)
class PolyFit:
    """Least-squares polynomial in u = log x fitted to one Riesz row."""

    degree: int
    coefficients: tuple[complex, ...]   # c_0..c_D, power basis in u
    residual_norm: float                # rms over the fitted checkpoints
    max_residual: float
    residual_decade_ratio: float        # top decade vs the one below
    condition: float
    lead: complex
    theory: complex | None
    lead_ratio: complex | None          # lead / theory
    lead_gap: float | None              # |lead - theory|
    instability: float
    npoints: int
    u_window: tuple[float, float]
    config_digest: str

    def evaluate(self, x) -> np.ndarray:
        """Fitted polynomial at the given x values."""
        u = np.log(np.asarray(x, dtype=np.float64))
        out = np.zeros(u.shape, dtype=np.complex128)
        for c in reversed(self.coefficients):
            out = out * u + c
        return out


def _legendre_lead(coef: np.ndarray, degree: int, half_width: float) -> complex:
    """Leading power-basis coefficient hiding in a Legendre expansion.

    P_D has leading coefficient binom(2D, D)/2^D on [-1, 1]; mapping
    t = (u - center)/h divides it by h^D. Lower-degree basis members
    contribute nothing to the top power.
    """
    top = math.comb(2 * degree, degree) / 2.0 ** degree
    return complex(coef[degree]) * top / half_width ** degree


def _lstsq_lead(u: np.ndarray, y: np.ndarray,
                degree: int) -> tuple[np.ndarray, complex, float, int]:
    """Legendre fit on the window of u; returns (coef, lead, cond, rank)."""
    lo, hi = float(u.min()), float(u.max())
    center, half = (hi + lo) / 2, (hi - lo) / 2
    t = (u - center) / half
    design = legendre.legvander(t, degree)
    coef, _, rank, sv = np.linalg.lstsq(design, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    return coef, _legendre_lead(coef, degree, half), cond, int(rank)


def fit_riesz_polynomial(record: RieszRecord, k: int, N: int,
                         gamma: float = 1.0) -> PolyFit:
    """Fit the order-k Riesz row with a degree N+k polynomial in log x.

    The record must be un-normalized (the raw smoothed sum, no 1/k!). When
    the record carries its modified character, the fitted leading
    coefficient is compared against the closed form and k is checked
    against the diophantine threshold, warning if below.
    """
    if record.normalized:
        raise DomainError("fit needs the un-normalized smoothed sums")
    if k not in record.orders:
        raise DomainError(f"record holds orders {record.orders}, not k={k}")
    if N < 0:
        raise DomainError(f"pole order N must be >= 0, got {N}")
    degree = N + k
    if degree == 0:
        raise FitError(
            "degree 0 is degenerate: bounded partial sums are noise around"
            " a constant, there is no polynomial growth to fit")

    xs = record.checkpoints.astype(np.float64)
    keep = xs >= 2.0
    xs, y = xs[keep], record.row(k)[keep]
    if len(xs) < 3 * (degree + 1):
        raise FitError(
            f"{len(xs)} usable checkpoints cannot pin degree {degree};"
            f" need at least {3 * (degree + 1)}, spread over >= 2 decades")
    u = np.log(xs)
    span = float(u.max() - u.min())
    if span < 2 * math.log(10):
        raise FitError(
            f"checkpoints span {span / math.log(10):.2f} decades; the top"
            f" coefficient of a degree-{degree} fit needs at least 2")

    theory = None
    if record.source is not None:
        kmin = min_riesz_order(record.source, gamma)
        if k < kmin:
            warnings.warn(
                f"k={k} is below the admissible threshold {kmin}"
                f" (gamma={gamma}); the O(1) remainder is not guaranteed",
                BelowOrderThresholdWarning, stacklevel=2)
        theory = leading_coefficient(record.source, k).value

    coef, lead, cond, rank = _lstsq_lead(u, y, degree)
    if rank < degree + 1 or not math.isfinite(cond) or cond > MAX_CONDITION:
        raise FitError(
            f"design rank {rank}, condition {cond:.3g}: degree {degree} is"
            " not resolvable on this grid; spread checkpoints over more"
            " decades or reduce k")

    # power-basis coefficients in u, for reporting and evaluation
    lo, hi = float(u.min()), float(u.max())
    series = legendre.Legendre(coef, domain=[lo, hi])
    power = series.convert(kind=np.polynomial.polynomial.Polynomial).coef
    power = np.pad(power, (0, degree + 1 - len(power)))

    fitted = legendre.legval((u - (hi + lo) / 2) / ((hi - lo) / 2), coef)
    resid = np.abs(y - fitted)
    rms = float(np.sqrt(np.mean(resid ** 2)))

    x_max = float(xs.max())
    top = resid[xs > x_max / 10]
    below = resid[(xs > x_max / 100) & (xs <= x_max / 10)]
    decade_ratio = (float(top.max() / below.max())
                    if len(top) and len(below) and below.max() > 0
                    else math.nan)

    # even/odd subsample refits bound how much the grid choice moves the
    # top coefficient; factor 4 covers sparser disjoint subsamples
    wobble = 0.0
    for par in (0, 1):
        _, sub_lead, _, _ = _lstsq_lead(u[par::2], y[par::2], degree)
        wobble = max(wobble, abs(sub_lead - lead))
    instability = 4 * wobble

    return PolyFit(
        degree=degree,
        coefficients=tuple(complex(c) for c in power),
        residual_norm=rms,
        max_residual=float(resid.max()),
        residual_decade_ratio=decade_ratio,
        condition=cond,
        lead=complex(lead),
        theory=None if theory is None else complex(theory),
        lead_ratio=None if theory is None else complex(lead) / theory,
        lead_gap=None if theory is None else abs(complex(lead) - theory),
        instability=instability,
        npoints=len(xs),
        u_window=(lo, hi),
        config_digest=record.config_digest)


@dataclass(frozen=True)
class GrowthReport:
    """Ratio diagnostics |M(x)| / (log x)^exponent over checkpoints.

    Omega evidence is the tail infimum of running maxima: a limsup
    statement allows the pointwise ratio to dip to zero, but its record
    must keep getting revisited. The verdict is heuristic either way and
    invariant under rescaling the sums by any nonzero constant.
    """

    config_digest: str
    exponent: int
    mode: str
    checkpoints: np.ndarray
    ratios: np.ndarray
    running_max: np.ndarray
    sup: float
    tail_inf: float                  # inf of running max over the tail half
    verdict: str
    heuristic: bool = field(default=True)


def growth_check(series: PartialSumSeries, exponent: int,
                 mode: str) -> GrowthReport:
    """Growth diagnostic for a partial-sum series.

    mode="upper": is |M(x)| <= C (log x)^exponent plausible? Consistent
    when the running sup of the ratio grows less than 5% over the last
    half of the checkpoints. mode="omega": does the ratio keep returning
    to its record? Consistent when the tail half still reaches 20% of the
    global sup.
    """
    if exponent < 0:
        raise DomainError(f"exponent must be >= 0, got {exponent}")
    if mode not in ("omega", "upper"):
        raise DomainError(f"mode must be 'omega' or 'upper', got {mode!r}")
    if len(series.checkpoints) < 20:
        raise DomainError(
            f"need >= 20 checkpoints for a growth verdict,"
            f" got {len(series.checkpoints)}")

    xs = series.checkpoints.astype(np.float64)
    sums = np.abs(series.sums)
    if exponent > 0:
        keep = xs >= 2.0
        xs, sums = xs[keep], sums[keep]
        ratios = sums / np.log(xs) ** exponent
    else:
        ratios = sums.copy()
    running = np.maximum.accumulate(ratios)
    sup = float(running[-1])
    half = len(ratios) // 2
    tail_inf = float(running[half:].min()) if half < len(ratios) else sup

    if sup == 0:
        verdict = "inconclusive"
    elif mode == "upper":
        early_sup = float(running[half - 1]) if half else sup
        verdict = ("consistent-with-O"
                   if early_sup > 0 and sup <= 1.05 * early_sup
                   else "inconclusive")
    else:
        late_peak = float(ratios[half:].max()) if half < len(ratios) else sup
        verdict = ("consistent-with-omega"
                   if late_peak >= 0.2 * sup else "inconclusive")

    return GrowthReport(
        config_digest=series.config_digest,
        exponent=exponent,
        mode=mode,
        checkpoints=xs.astype(np.int64),
        ratios=ratios,
        running_max=running,
        sup=sup,
        tail_inf=tail_inf,
        verdict=verdict)


def mellin_lemma_check(sigma: float, alpha: float,
                       x_cut: float = 1e6) -> tuple[float, float, float]:
    """Check integral_1^inf (log x)^alpha x^(-1-sigma) dx = Gamma(alpha+1)/sigma^(alpha+1).

    Substituting u = log x turns the integral into u^alpha e^(-sigma u) du;
    [0, log x_cut] goes to adaptive quadrature and the tail is the upper
    incomplete gamma, both independent of the closed form being checked.
    All of it runs in mpmath at 53 bits, whatever precision the caller left
    mpmath at. Returns (numeric, analytic, absolute gap).
    """
    import mpmath as mp

    if sigma <= 0:
        raise DomainError(
            f"the integral diverges for sigma <= 0, got {sigma}")
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if x_cut <= 1:
        raise DomainError(f"x_cut must exceed 1, got {x_cut}")

    with mp.workprec(53):
        cut = mp.log(mp.mpf(x_cut))
        body = mp.quad(lambda t: t ** alpha * mp.exp(-sigma * t), [0, cut])
        scale = mp.mpf(sigma) ** (alpha + 1)
        numeric = float(body + mp.gammainc(alpha + 1, sigma * cut) / scale)
        analytic = float(mp.gamma(alpha + 1) / scale)
    return numeric, analytic, abs(numeric - analytic)
