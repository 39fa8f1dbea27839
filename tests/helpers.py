"""Shared construction helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from twoenv.model import LabeledDataset
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


def reference_gd(data: LabeledDataset, config: TrainConfig, w0=None) -> np.ndarray:
    """From-scratch w-space descent with the trainer's backtracking rule.

    Every candidate's margins are recomputed as ``Z @ w`` and its gradient
    as ``Z' coeff``; nothing is carried from one step to the next.
    """
    Z = data.signed()
    masks = [data.env == e for e in (1, 2) if (data.env == e).any()]
    w = np.zeros(data.d) if w0 is None else np.array(w0, dtype=np.float64)

    def lam_at(it):
        if config.anneal_schedule is not None and it < config.anneal_schedule:
            return 0.0
        return config.penalty_weight

    def objective(w, lam):
        m = Z @ w
        pen, pen_dm = penalty_value_and_slope(config.penalty_kind, m, masks)
        total = (float(np.logaddexp(0.0, -m).mean()) + lam * pen
                 + config.l2_weight * float(w @ w))
        coeff = -0.5 * (1.0 - np.tanh(0.5 * m)) / data.n + lam * pen_dm
        return total, Z.T @ coeff + 2.0 * config.l2_weight * w

    lr = config.learning_rate
    for it in range(config.max_iters):
        lam = lam_at(it)
        total, grad = objective(w, lam)
        if np.linalg.norm(grad) <= config.tolerance and it >= (config.anneal_schedule or 0):
            break
        step = lr
        while True:
            cand = w - step * grad
            total_c, _ = objective(cand, lam)
            if math.isfinite(total_c) and total_c <= total:
                break
            step *= 0.5
            if step < config.learning_rate * 2.0**-60:
                return w
        w = cand
        lr = min(config.learning_rate, 2.0 * step)
    return w
