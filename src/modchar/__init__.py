"""Modified Dirichlet characters: exact structure, sieves, and diagnostics.

The package builds completely multiplicative deformations f of a primitive
Dirichlet character chi (agreeing with chi off a finite prime set S),
computes the structural integers T and N that govern the growth of the
partial sums, streams those sums and their Riesz means over large ranges,
evaluates the attached Dirichlet series and L-function special values, and
runs the Diophantine and polynomial-fit diagnostics that tie the measured
growth back to the predicted leading coefficient.
"""

import importlib.machinery
import importlib.util
import sys


def _register_lazy(name: str):
    """modchar.<name> in sys.modules and on the package, its body run on
    the first attribute access (the stdlib `importlib.util.LazyLoader`)."""
    fullname = f"{__name__}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(fullname, __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# Only the L-function, Diophantine and analysis commands run these three,
# so `import modchar` registers them without running them. They are not
# imported inside the commands instead: a tool that patches module
# attributes once, as it starts (perfbench's tracer), would not find them
# in sys.modules then. Registered, they are there, and its first getattr
# runs them.
analysis = _register_lazy("analysis")
diophantine = _register_lazy("diophantine")
lfunctions = _register_lazy("lfunctions")

from .characters import (Character, CharacterGroup, character_from_label,
                         character_group, conductor, enumerate_characters,
                         eval_char, is_primitive, parity)
from .config import RunConfig, parse_config, parse_config_text
from .modified import (ModifiedCharacter, build_modified, compute_N,
                       compute_T, eval_f_exact, eval_f_oracle)
from .presets import PRESET_NAMES, PresetBundle, preset_config, run_preset
from .roots import UnitValue
from .sieve import (PartialSumSeries, RieszRecord, checkpoints_from_rule,
                    mellin_transform, partial_sums, riesz_means)

# the public names of the lazy modules, read from them on first use (PEP 562)
_LAZY_NAMES = {
    "diophantine": ("ConvergentTable", "PoleSeriesTrace", "bugeaud_mu",
                    "continued_fraction", "min_riesz_order",
                    "pole_series_diagnostic", "reconstruct_alpha"),
    "analysis": ("GrowthReport", "PolyFit", "fit_riesz_polynomial",
                 "growth_check", "mellin_lemma_check"),
    "lfunctions": ("LContext", "LeadingCoefficient", "L0_exact", "Lprime0",
                   "L_value", "L_value_with_bound", "euler_factor_ratio",
                   "evaluate_F", "functional_equation_check", "gauss_sum",
                   "hurwitz_zeta_with_bound", "leading_coefficient"),
}
_LAZY_OWNER = {attr: module for module, attrs in _LAZY_NAMES.items()
               for attr in attrs}


def __getattr__(name: str):
    if name in _LAZY_OWNER:
        return getattr(globals()[_LAZY_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_OWNER})


__version__ = "0.1.0"

__all__ = [
    "Character", "CharacterGroup", "character_from_label", "character_group",
    "conductor", "enumerate_characters", "eval_char", "is_primitive",
    "parity",
    "RunConfig", "parse_config", "parse_config_text",
    *_LAZY_OWNER,
    "ModifiedCharacter", "build_modified", "compute_N", "compute_T",
    "eval_f_exact", "eval_f_oracle",
    "PRESET_NAMES", "PresetBundle", "preset_config", "run_preset",
    "UnitValue",
    "PartialSumSeries", "RieszRecord", "checkpoints_from_rule",
    "mellin_transform", "partial_sums", "riesz_means",
    "__version__",
]
