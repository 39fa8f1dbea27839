"""Semantic exceptions raised by the public API."""


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
