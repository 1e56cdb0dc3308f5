"""Reference configurations: three figure reproductions and the BCC run.

All four ride on the odd quadratic character mod 3 (label 3.2). The names
fig1/fig2/fig3 match the growth exponents N = 4, 3, 0 of the standard
demonstration runs; bcc is the single-override configuration f(3) = +1
whose partial sums stay within a constant multiple of log x.

Two data notes, kept with the configs because anyone comparing output
against the usual plots will trip over them:
  - fig2 carries five overrides, not four. The fifth, f(7) = -1 at a
    prime with chi(7) = +1, is exactly what lowers N from 4 to 3, so the
    count of +1 overrides (four) is the honest headline number.
  - fig3's override set is sometimes quoted as {3, 7, 10, 13}; 10 is not
    prime. This preset uses {3, 7, 13, 19}, all f(p) = -1, where 19 is
    the next prime p = 1 mod 3. That keeps every chi(p) = +1 for the
    p != 3 entries and lands N = 0 as intended.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, parse_config_text
from .errors import DomainError
from .modified import ModifiedCharacter
from .sieve import PartialSumSeries, partial_sums

PRESET_NAMES = ("fig1", "fig2", "fig3", "bcc")

_PLUS = [0, 1]   # angle of +1
_MINUS = [1, 2]  # angle of -1

_MODS = {
    "fig1": [(2, _PLUS), (3, _PLUS), (5, _PLUS), (11, _PLUS)],
    "fig2": [(2, _PLUS), (3, _PLUS), (5, _PLUS), (7, _MINUS), (11, _PLUS)],
    "fig3": [(3, _MINUS), (7, _MINUS), (13, _MINUS), (19, _MINUS)],
    "bcc": [(3, _PLUS)],
}

EXPECTED_N = {"fig1": 4, "fig2": 3, "fig3": 0, "bcc": 1}

NOTES = {
    "fig1": "four +1 overrides at {2, 3, 5, 11}; chi is -1, 0, -1, -1"
            " there, so T = N = 4",
    "fig2": "five overrides: the four +1 entries of fig1 plus f(7) = -1"
            " at chi(7) = +1, which drops N to 3; the configuration is"
            " often described by its four +1 entries alone",
    "fig3": "all overrides are -1 at {3, 7, 13, 19}; the non-prime 10"
            " occasionally quoted in this set is replaced by 19, the next"
            " prime p = 1 mod 3, preserving N = 0",
    "bcc": "single override f(3) = +1; partial sums stay within a"
           " constant multiple of log x (the ratio sup records it)",
}


def preset_config(name: str, x_max: int = 10**6) -> RunConfig:
    """The RunConfig behind a preset name, on the grid geometric:1.01, with
    an overridable range; x_max gets the rule of the --xmax flag."""
    if name not in PRESET_NAMES:
        raise DomainError(f"unknown preset {name!r}; choose from"
                          f" {', '.join(PRESET_NAMES)}")
    doc = {
        "character": {"label": "3.2"},
        "modifications": [{"p": p, "angle": a} for p, a in _MODS[name]],
        "checkpoints": "geometric:1.01",
        "orders": "auto",
    }
    return parse_config_text(json.dumps(doc), source=f"<preset {name}>"
                             ).with_flags(x_max=x_max)


@dataclass(frozen=True)
class PresetBundle:
    """Everything the preset subcommand reports and writes."""

    name: str
    config: RunConfig
    mc: ModifiedCharacter
    series: PartialSumSeries
    n_expected: int
    note: str
    ratio_exponent: int
    ratio_sup: float

    @property
    def n(self) -> int:
        return self.mc.pole_order

    def report(self) -> dict:
        return {
            "preset": self.name,
            "N": self.n,
            "N_expected": self.n_expected,
            "T": self.mc.sign_shift,
            "S": list(self.mc.primes),
            "digest": self.mc.digest(),
            "x_max": self.config.x_max,
            "exact_accumulator": self.series.exact_sums is not None,
            "ratio_exponent": self.ratio_exponent,
            "ratio_sup": self.ratio_sup,
            "note": self.note,
        }


def run_preset(name: str, x_max: int = 10**6) -> PresetBundle:
    """Sieve a preset and package partial sums plus its growth headline.

    The ratio sup is |M(x)| / (log x)^e over checkpoints x >= 2, with
    e = N when N >= 1 (the proven growth order) and e = |S| otherwise
    (the unconditional upper-bound exponent: with no pole at s = 0 there
    is no (log x)^N lower bound to measure against).
    """
    cfg = preset_config(name, x_max=x_max)
    mc = cfg.modified()
    series = partial_sums(mc, cfg.x_max, checkpoint_rule=cfg.checkpoints)
    n = mc.pole_order
    e = n if n >= 1 else len(mc.primes)
    xs = series.checkpoints.astype(np.float64)
    keep = xs >= 2
    ratios = np.abs(series.sums[keep]) / np.log(xs[keep]) ** e
    sup = float(ratios.max()) if ratios.size else 0.0
    return PresetBundle(name, cfg, mc, series, EXPECTED_N[name],
                        NOTES[name], e, sup)
