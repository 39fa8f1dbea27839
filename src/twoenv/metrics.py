"""Closed-form evaluation metrics for linear classifiers on the mixture.

For a classifier ``w`` and spurious coefficient ``theta``, the 0-1 error
has the exact form

    err(theta) = Q( (<w, mu_c> + theta * <w, mu_s>) / (sigma * ||w||) )

where ``Q`` is the standard Gaussian upper-tail function.  Everything in
this module is deterministic arithmetic on that identity; no sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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

    Scale-invariant in ``w``; negative when the model does not separate.
    """
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    if sigma <= 0:
        raise TwoEnvError("sigma must be positive")
    margins = data.y * model.scores(data.X)
    return float(margins.min() / (model.norm * math.sqrt(sigma**2 * data.d)))


def spurious_core_ratio(model: LinearModel, mu_c, mu_s) -> float:
    """Ratio ``<w, mu_s> / <w, mu_c>``; a value >= 1 forces robust error >= 1/2."""
    wc, ws, norm = _alignments(model, mu_c, mu_s)
    if abs(wc) <= 1e-15 * norm * float(np.linalg.norm(mu_c)):
        raise TwoEnvError("core alignment <w, mu_c> is numerically zero")
    return ws / wc


@dataclass(frozen=True)
class InvarianceReport:
    """Empirical and (optionally) population gaps between environments."""

    eopp_gap: float
    cond_mean_gap_pos: float
    cond_mean_gap_neg: float
    population_gap: Optional[float]


def _positive_score_mean(model: LinearModel, data: LabeledDataset, env_label: int) -> float:
    mask = data.y == 1
    if not mask.any():
        raise DegenerateLabelsError(
            f"environment {env_label} has no positive-label rows; the equal-"
            "opportunity gap is undefined"
        )
    return float(model.scores(data.X[mask]).mean())


def _class_score_mean(model: LinearModel, data: LabeledDataset, label: int) -> float:
    mask = data.y == label
    if not mask.any():
        return math.nan
    return float(model.scores(data.X[mask]).mean())


def invariance_gaps(
    model: LinearModel,
    data_1: LabeledDataset,
    data_2: LabeledDataset,
    mu_s=None,
    theta_1: Optional[float] = None,
    theta_2: Optional[float] = None,
) -> InvarianceReport:
    """Between-environment gaps of the score distribution.

    Returns the empirical equal-opportunity gap (difference of the mean
    score over positive-label rows), the per-class conditional-mean gaps,
    and, when the true spurious mean and coefficients are supplied, the
    population gap ``|<w, mu_s>| * |theta_1 - theta_2| / ||w||``.
    """
    t1 = _positive_score_mean(model, data_1, 1)
    t2 = _positive_score_mean(model, data_2, 2)
    gap_pos = _class_score_mean(model, data_1, 1) - _class_score_mean(model, data_2, 1)
    gap_neg = _class_score_mean(model, data_1, -1) - _class_score_mean(model, data_2, -1)
    population = None
    if mu_s is not None and theta_1 is not None and theta_2 is not None:
        population = abs(float(model.w @ np.asarray(mu_s))) * abs(theta_1 - theta_2) / model.norm
    return InvarianceReport(t1 - t2, gap_pos, gap_neg, population)
