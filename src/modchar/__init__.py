"""Modified Dirichlet characters: exact structure, sieves, and diagnostics.

The package builds completely multiplicative deformations f of a primitive
Dirichlet character chi (agreeing with chi off a finite prime set S),
computes the structural integers T and N that govern the growth of the
partial sums, streams those sums and their Riesz means over large ranges,
evaluates the attached Dirichlet series and L-function special values, and
runs the Diophantine and polynomial-fit diagnostics that tie the measured
growth back to the predicted leading coefficient.
"""

from .characters import (Character, CharacterGroup, character_from_label,
                         character_group, conductor, enumerate_characters,
                         eval_char, is_primitive, parity)
from .config import RunConfig, parse_config, parse_config_text
from .diophantine import (ConvergentTable, PoleSeriesTrace, bugeaud_mu,
                          continued_fraction, min_riesz_order,
                          pole_series_diagnostic, reconstruct_alpha)
from .analysis import (GrowthReport, PolyFit, fit_riesz_polynomial,
                       growth_check, mellin_lemma_check)
from .lfunctions import (LContext, LeadingCoefficient, L0_exact, Lprime0,
                         L_value, L_value_with_bound, euler_factor_ratio,
                         evaluate_F, functional_equation_check, gauss_sum,
                         hurwitz_zeta_with_bound, leading_coefficient)
from .modified import (ModifiedCharacter, build_modified, compute_N,
                       compute_T, eval_f_exact, eval_f_oracle)
from .presets import PRESET_NAMES, PresetBundle, preset_config, run_preset
from .roots import UnitValue
from .sieve import (PartialSumSeries, RieszRecord, checkpoints_from_rule,
                    mellin_transform, partial_sums, riesz_means)

__version__ = "0.1.0"

__all__ = [
    "Character", "CharacterGroup", "character_from_label", "character_group",
    "conductor", "enumerate_characters", "eval_char", "is_primitive",
    "parity",
    "RunConfig", "parse_config", "parse_config_text",
    "ConvergentTable", "PoleSeriesTrace", "bugeaud_mu", "continued_fraction",
    "min_riesz_order", "pole_series_diagnostic", "reconstruct_alpha",
    "GrowthReport", "PolyFit", "fit_riesz_polynomial", "growth_check",
    "mellin_lemma_check",
    "LContext", "LeadingCoefficient", "L0_exact", "Lprime0", "L_value",
    "L_value_with_bound", "euler_factor_ratio", "evaluate_F",
    "functional_equation_check", "gauss_sum", "hurwitz_zeta_with_bound",
    "leading_coefficient",
    "ModifiedCharacter", "build_modified", "compute_N", "compute_T",
    "eval_f_exact", "eval_f_oracle",
    "PRESET_NAMES", "PresetBundle", "preset_config", "run_preset",
    "UnitValue",
    "PartialSumSeries", "RieszRecord", "checkpoints_from_rule",
    "mellin_transform", "partial_sums", "riesz_means",
    "__version__",
]
