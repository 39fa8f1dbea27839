"""Shared construction helpers for the test suite."""

from __future__ import annotations

import json
import math

import numpy as np

from twoenv.errors import IllConditionedGramError, TwoEnvError
from twoenv.model import LabeledDataset
from twoenv.presets import load_constants
from twoenv.training import TrainConfig, penalty_value_and_slope


def random_dataset(
    rng: np.random.Generator, n: int = 12, d: int = 8, balanced_envs: bool = True
) -> LabeledDataset:
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1, 1)
    if balanced_envs:
        env = np.array([1, 2] * (n // 2) + [1] * (n % 2))
    else:
        env = np.where(rng.random(n) < 0.5, 1, 2)
        env[0], env[1] = 1, 2  # both environments always present
    return LabeledDataset(X, y, env)


def noiseless_pair(mu_c, mu_s, theta_1, theta_2, reps=2):
    """Tiny noise-free per-environment datasets with both labels present."""
    rows_1, ys_1 = [], []
    rows_2, ys_2 = [], []
    for y in (1, -1) * reps:
        rows_1.append(y * (mu_c + theta_1 * mu_s))
        ys_1.append(y)
        rows_2.append(y * (mu_c + theta_2 * mu_s))
        ys_2.append(y)
    d_1 = LabeledDataset(np.array(rows_1), np.array(ys_1), np.ones(len(ys_1), dtype=int))
    d_2 = LabeledDataset(np.array(rows_2), np.array(ys_2), np.full(len(ys_2), 2, dtype=int))
    return d_1, d_2


def logistic_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Losses ``log(1 + exp(-m))`` by ``logaddexp`` and sigmoids ``sigmoid(-m)`` by ``tanh``."""
    return np.logaddexp(0.0, -m), 0.5 * (1.0 - np.tanh(0.5 * m))


def reference_objective(data: LabeledDataset, config: TrainConfig, w: np.ndarray,
                        lam: float) -> tuple[float, np.ndarray]:
    """The penalized objective at ``w`` with penalty weight ``lam``, and its gradient.

    Independent of the trainer's evaluation: the margins are ``Z @ w``, the
    losses and sigmoids come from :func:`logistic_parts`, and the penalty
    is always evaluated, whatever ``lam``.
    """
    Z = data.signed()
    masks = [data.env == e for e in (1, 2) if (data.env == e).any()]
    m = Z @ w
    ell, s = logistic_parts(m)
    pen, pen_dm = penalty_value_and_slope(config.penalty_kind, m, masks, ell=ell, s=s)
    total = float(ell.mean()) + lam * pen + config.l2_weight * float(w @ w)
    coeff = -s / data.n + lam * pen_dm
    return total, Z.T @ coeff + 2.0 * config.l2_weight * w


def reference_gd(data: LabeledDataset, config: TrainConfig, w0=None) -> np.ndarray:
    """From-scratch w-space descent with the trainer's backtracking rule.

    Every candidate's objective and gradient come from
    :func:`reference_objective`; nothing is carried from one step to the next.
    """
    w = np.zeros(data.d) if w0 is None else np.array(w0, dtype=np.float64)
    anneal = config.anneal_schedule
    penalized = config.penalty_kind != "none" and config.penalty_weight > 0
    min_stop_iter = anneal if penalized else 0
    lr = config.learning_rate
    for it in range(config.max_iters):
        lam = 0.0 if it < anneal else config.penalty_weight
        total, grad = reference_objective(data, config, w, lam)
        if np.linalg.norm(grad) <= config.tolerance and it >= min_stop_iter:
            break
        step = lr
        while True:
            cand = w - step * grad
            total_c, _ = reference_objective(data, config, cand, lam)
            if math.isfinite(total_c) and total_c <= total:
                break
            step *= 0.5
            if step < config.learning_rate * 2.0**-60:
                return w
        w = cand
        lr = min(config.learning_rate, 2.0 * step)
    return w


def expected_gram(
    n_1: int, n_2: int, theta_1: float, theta_2: float, r_c: float, r_s: float,
    sigma: float, d: int,
) -> np.ndarray:
    """``E[Z Z'] = sigma^2 d I + r_c^2 11' + r_s^2 vv'`` with v the theta profile."""
    n = n_1 + n_2
    v = np.concatenate([np.full(n_1, theta_1), np.full(n_2, theta_2)])
    ones = np.ones(n)
    return sigma**2 * d * np.eye(n) + r_c**2 * np.outer(ones, ones) + r_s**2 * np.outer(v, v)


def orthogonal_complement_stats(
    model_w: np.ndarray, data: LabeledDataset, mu: np.ndarray
) -> float:
    """Normalized alignment of the off-span part of ``w`` with ``mu``.

    Projects ``w`` onto span{z_i} through a Gram solve and returns
    ``|<w_perp, mu>| / (||w|| ||mu||)``.  Requires ``d > N`` and a
    full-rank sample matrix.
    """
    w = np.asarray(model_w, dtype=np.float64)
    Z = data.signed()
    n, d = Z.shape
    if d <= n:
        raise TwoEnvError("orthogonal complement is trivial unless d > N")
    K = Z @ Z.T
    evals = np.linalg.eigvalsh(K)
    if evals[0] <= 1e-12 * max(evals[-1], 1.0):
        raise IllConditionedGramError("sample matrix is numerically rank deficient")
    beta = np.linalg.solve(K, Z @ w)
    w_perp = w - Z.T @ beta
    denom = float(np.linalg.norm(w) * np.linalg.norm(mu))
    if denom == 0:
        raise TwoEnvError("zero vector supplied")
    return abs(float(w_perp @ np.asarray(mu))) / denom


def constants_text(drop=None, **edits):
    """The packaged constants as JSON text, with ``drop`` left out and ``edits`` applied."""
    values = {key: value for key, value in load_constants().items() if key != drop}
    return json.dumps({**values, **edits})
