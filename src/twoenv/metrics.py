"""Closed-form evaluation metrics for linear classifiers on the mixture.

For a classifier ``w`` and spurious coefficient ``theta``, the 0-1 error
has the exact form

    err(theta) = Q( (<w, mu_c> + theta * <w, mu_s>) / (sigma * ||w||) )

where ``Q`` is the standard Gaussian upper-tail function.  Everything in
this module is deterministic arithmetic on that identity; no sampling.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

from .errors import DegenerateLabelsError, TwoEnvError, finite_real
from .model import LabeledDataset, LinearModel, vector_norm

_SQRT2 = math.sqrt(2.0)


def gaussian_tail(t: float) -> float:
    """Upper-tail probability of the standard normal, ``P(N(0,1) > t)``.

    Computed through the complementary error function, which is itself a
    high-accuracy rational approximation.
    """
    return 0.5 * math.erfc(float(t) / _SQRT2)


def gaussian_tail_inv(p: float) -> float:
    """Inverse of :func:`gaussian_tail`: the ``t`` with ``P(N(0,1) > t) = p``."""
    if not 0.0 < p < 1.0:
        raise TwoEnvError(f"probability must be in (0, 1), got {p}")
    return -NormalDist().inv_cdf(p)


def _quotient(num: float, den: float, what: str) -> float:
    """``num / den`` for a denominator that is a normal float; one below the
    smallest normal has lost bits or is 0, and the quotient cannot be
    represented at this scale."""
    if not sys.float_info.min <= den <= sys.float_info.max:
        raise TwoEnvError(f"{what} cannot be represented at this scale: its denominator is {den!r}")
    return num / den


def _sigma(sigma) -> float:
    """``sigma`` as a float, once it passes the input rule: a positive finite real."""
    if not (finite_real(sigma) and sigma > 0):
        raise TwoEnvError(f"sigma must be positive and finite, got {sigma!r}")
    return float(sigma)


def _alignments(model: LinearModel, mu_c, mu_s) -> tuple[float, float, float]:
    """``<w, mu_c>``, ``<w, mu_s>`` and ``||w||`` on ``model.scaled``'s ``w``."""
    w, _, norm = model.scaled
    return float(w @ np.asarray(mu_c)), float(w @ np.asarray(mu_s)), norm


def error_at_theta(model: LinearModel, mu_c, mu_s, sigma: float, theta: float) -> float:
    """Exact 0-1 error of ``model`` in the environment with coefficient ``theta``.

    ``theta`` follows :class:`ProblemInstance`'s rule: a finite real in [-1, 1].
    """
    sigma = _sigma(sigma)
    if not (finite_real(theta) and -1.0 <= theta <= 1.0):
        raise TwoEnvError(f"theta must be a number in [-1, 1], got {theta!r}")
    wc, ws, norm = _alignments(model, mu_c, mu_s)
    return float(gaussian_tail(_quotient(wc + theta * ws, sigma * norm, "0-1 error")))


def robust_error(model: LinearModel, mu_c, mu_s, sigma: float) -> float:
    """Worst-case error over theta in [-1, 1].

    The argument of Q is affine in theta and Q is decreasing, so the
    maximum sits at the endpoint ``theta = -sign(<w, mu_s>)``; no search.
    """
    sigma = _sigma(sigma)
    wc, ws, norm = _alignments(model, mu_c, mu_s)
    return float(gaussian_tail(_quotient(wc - abs(ws), sigma * norm, "robust error")))


def train_accuracy(model: LinearModel, data: LabeledDataset) -> float:
    """Fraction of rows with a positive signed margin ``y <w, x>``."""
    return float((data.signed() @ model.scaled[0] > 0).mean())


def normalized_margin(model: LinearModel, data: LabeledDataset, sigma: float) -> float:
    """Minimum of ``y <w, x> / ||w||`` over the data, divided by ``sigma sqrt(d)``.

    ``d`` is the data's ambient dimension, also for a reduced draw.
    Scale-invariant in ``w``; negative when the model does not separate.
    ``sigma sqrt(d)`` is formed as a product, not as ``sqrt(sigma^2 d)``,
    whose square underflows to zero below ``sigma`` of about 1e-162.
    """
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    sigma = _sigma(sigma)
    w, _, norm = model.scaled
    margins = data.signed() @ w
    den = norm * (sigma * math.sqrt(data.ambient_d))
    return float(_quotient(margins.min(), den, "margin"))


def spurious_core_ratio(model: LinearModel, mu_c, mu_s) -> float:
    """Ratio ``<w, mu_s> / <w, mu_c>``; a value >= 1 forces robust error >= 1/2."""
    wc, ws, norm = _alignments(model, mu_c, mu_s)
    if abs(wc) <= 1e-15 * norm * vector_norm(np.asarray(mu_c)):
        raise TwoEnvError("core alignment <w, mu_c> is numerically zero")
    return ws / wc


def class_score_mean(w: np.ndarray, data: LabeledDataset) -> float:
    """Mean score ``<w, x>`` over the positive-label rows of ``data``, which
    the caller has checked to be there."""
    return float((data.signed()[data.y == 1] @ w).mean())


def invariance_gaps(
    model: LinearModel,
    data_1: LabeledDataset,
    data_2: LabeledDataset,
) -> float:
    """Empirical equal-opportunity gap: the difference between the two
    environments of the mean score over positive-label rows."""
    for env_label, part in ((1, data_1), (2, data_2)):
        if not (part.y == 1).any():
            raise DegenerateLabelsError(
                f"environment {env_label} has no positive-label rows; the equal-"
                "opportunity gap is undefined"
            )
    w, exp, _ = model.scaled
    scaled = class_score_mean(w, data_1) - class_score_mean(w, data_2)
    try:
        gap = math.ldexp(scaled, exp)
    except OverflowError:
        gap = math.inf
    if math.ldexp(gap, -exp) != scaled:  # overflowed, or lost bits below the normal range
        raise TwoEnvError(f"eopp_gap cannot be represented at this scale: it is {scaled!r} "
                          f"times 2**{exp}")
    return gap
