"""Semantic exceptions raised by the public API, and the two predicates every input check uses."""

import math
import numbers
import sys


class TwoEnvError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateLabelsError(TwoEnvError):
    """A computation that needs positive-label rows found none."""


class NonSeparableError(TwoEnvError):
    """Hard-margin training was asked for on non-separable data.

    Carries a certificate: ``witness`` is a probability vector ``u`` over
    the rows, ``margin = ||Z'u||`` bounds the minimum margin of every
    unit-norm ``w`` (``min_i z_i'w <= u'Zw``), and ``violated_index`` is
    ``argmax u``.
    """

    def __init__(self, message: str, violated_index: int, margin: float, witness):
        super().__init__(message)
        self.violated_index = violated_index
        self.margin = margin
        self.witness = witness


class InfeasibleMarginError(TwoEnvError):
    """Requested margin level exceeds the largest achievable margin."""


class IllConditionedGramError(TwoEnvError):
    """Gram matrix too ill-conditioned for the requested computation."""


class DegenerateConstraintError(TwoEnvError):
    """Both coefficients of the stage-2 linear constraint vanish."""


class ConfigError(TwoEnvError):
    """Malformed experiment configuration (file or CLI flags)."""


def finite_real(value) -> bool:
    """True for a real number, not a bool, that is finite as a float; an int is
    compared exactly, so 10**400 fails instead of overflowing a cast."""
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and abs(int(value)) <= sys.float_info.max
    return isinstance(value, numbers.Real) and math.isfinite(value)


def integer_in(value, low: int, high: int = 2**53) -> bool:
    """True for an integer, not a bool, in [low, high]; up to 2**53 a count is exact as a float."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and low <= int(value) <= high)
