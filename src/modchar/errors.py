"""Exception and warning types shared across the package.

Everything raised deliberately by this package derives from ModCharError,
so callers can catch one type at the CLI boundary. Subclasses also derive
from the closest builtin (ValueError, ArithmeticError) so that generic
handling keeps working.
"""

from __future__ import annotations


class ModCharError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulusError(ModCharError, ValueError):
    """Modulus is zero, negative, or otherwise unusable."""


class InvalidPrimeError(ModCharError, ValueError):
    """A key that must be prime is composite, unit, or negative."""


class InvalidModificationError(ModCharError, ValueError):
    """A modification value is off the unit circle or conflicts with another."""


class PrimitivityError(ModCharError, ValueError):
    """An operation requiring a primitive character got an imprimitive one."""


class ParityError(ModCharError, ValueError):
    """Character has the wrong parity for the requested special value."""


class DomainError(ModCharError, ValueError):
    """Numeric argument outside the supported domain."""


class OrderTooLargeError(ModCharError, ValueError):
    """Riesz order k exceeds the float-safe ceiling."""


class PoleError(ModCharError, ArithmeticError):
    """Evaluation point sits exactly on a pole.

    For Euler factor ratios, `prime` and `index` identify the pole
    s = 2*pi*i*(angle + index)/log(prime); for Hurwitz zeta the point is s=1
    and both fields are None.
    """

    def __init__(self, message: str, prime: int | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.prime = prime
        self.index = index


class PrecisionError(ModCharError, ArithmeticError):
    """Requested accuracy unreachable; the message names what fell short."""


class InvariantError(ModCharError, RuntimeError):
    """An internal consistency check failed: a bug, never a bad input."""


class FitError(ModCharError, RuntimeError):
    """Least-squares fit is rank deficient, ill conditioned, or degenerate."""


class OutputError(ModCharError, OSError):
    """An output file, directory or stdout cannot be written; names it."""


class ConfigError(ModCharError, ValueError):
    """Config file violates the schema; carries best-effort line/column."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


class NonModificationWarning(UserWarning):
    """A requested modification equals the base character value; dropped."""


class NearPoleWarning(UserWarning):
    """Evaluation point is within the near-pole threshold of a true pole."""


class TruncatedTableWarning(UserWarning):
    """Continued fraction table shortened to its precision-validated prefix."""


class BelowOrderThresholdWarning(UserWarning):
    """Riesz order k below the convergence threshold; fit is advisory only."""


class UntrustedTheoryWarning(UserWarning):
    """Theoretical quantities computed from an imprimitive base character."""
