"""Closed-form evaluation metrics for linear classifiers on the mixture.

For a classifier ``w`` and spurious coefficient ``theta``, the 0-1 error
has the exact form

    err(theta) = Q( (<w, mu_c> + theta * <w, mu_s>) / (sigma * ||w||) )

where ``Q`` is the standard Gaussian upper-tail function.  Everything in
this module is deterministic arithmetic on that identity; no sampling.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, ndtri

from .errors import DegenerateLabelsError, TwoEnvError
from .model import LabeledDataset, LinearModel

_SQRT2 = math.sqrt(2.0)


def gaussian_tail(t):
    """Upper-tail probability of the standard normal, ``P(N(0,1) > t)``.

    Accepts scalars or arrays; computed through the complementary error
    function, which is itself a high-accuracy rational approximation.
    """
    if np.isscalar(t):
        return 0.5 * math.erfc(float(t) / _SQRT2)
    return 0.5 * erfc(np.asarray(t, dtype=np.float64) / _SQRT2)


def gaussian_tail_inv(p: float) -> float:
    """Inverse of :func:`gaussian_tail`: the ``t`` with ``P(N(0,1) > t) = p``."""
    if not 0.0 < p < 1.0:
        raise TwoEnvError(f"probability must be in (0, 1), got {p}")
    return -float(ndtri(p))


def _alignments(model: LinearModel, mu_c, mu_s) -> tuple[float, float, float]:
    wc = float(model.w @ np.asarray(mu_c))
    ws = float(model.w @ np.asarray(mu_s))
    return wc, ws, model.norm


def error_at_theta(model: LinearModel, mu_c, mu_s, sigma: float, theta: float) -> float:
    """Exact 0-1 error of ``model`` in the environment with coefficient ``theta``."""
    if sigma <= 0:
        raise TwoEnvError("sigma must be positive")
    wc, ws, norm = _alignments(model, mu_c, mu_s)
    return float(gaussian_tail((wc + theta * ws) / (sigma * norm)))


class RobustError(NamedTuple):
    error: float
    worst_theta: float


def robust_error(model: LinearModel, mu_c, mu_s, sigma: float) -> RobustError:
    """Worst-case error over theta in [-1, 1], with the maximizing theta.

    The argument of Q is affine in theta and Q is decreasing, so the
    maximum sits at the endpoint ``theta = -sign(<w, mu_s>)``; no search.
    """
    if sigma <= 0:
        raise TwoEnvError("sigma must be positive")
    wc, ws, norm = _alignments(model, mu_c, mu_s)
    worst = -float(np.sign(ws))
    err = float(gaussian_tail((wc - abs(ws)) / (sigma * norm)))
    return RobustError(err, worst)


def normalized_margin(model: LinearModel, data: LabeledDataset, sigma: float) -> float:
    """Minimum of ``y <w, x> / ||w||`` over the data, divided by sqrt(sigma^2 d).

    ``d`` is the data's ambient dimension, also for a reduced draw.
    Scale-invariant in ``w``; negative when the model does not separate.
    """
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    if sigma <= 0:
        raise TwoEnvError("sigma must be positive")
    margins = data.y * model.scores(data.X)
    return float(margins.min() / (model.norm * math.sqrt(sigma**2 * data.ambient_d)))


def spurious_core_ratio(model: LinearModel, mu_c, mu_s) -> float:
    """Ratio ``<w, mu_s> / <w, mu_c>``; a value >= 1 forces robust error >= 1/2."""
    wc, ws, norm = _alignments(model, mu_c, mu_s)
    if abs(wc) <= 1e-15 * norm * float(np.linalg.norm(mu_c)):
        raise TwoEnvError("core alignment <w, mu_c> is numerically zero")
    return ws / wc


def class_score_mean(w: np.ndarray, data: LabeledDataset) -> float:
    """Mean score ``<w, x>`` over the positive-label rows of ``data``; nan if none."""
    mask = data.y == 1
    if not mask.any():
        return math.nan
    return float((data.X[mask] @ w).mean())


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
    return class_score_mean(model.w, data_1) - class_score_mean(model.w, data_2)
