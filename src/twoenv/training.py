"""Gradient-descent trainers, invariance penalties, and hard-margin fitting.

Trainers run full-batch gradient descent on the mean logistic loss plus an
optional invariance penalty and an optional ridge term.  Every objective
piece except the ridge depends on ``w`` only through the signed margins
``m = Z w`` (``Z`` stacks ``y_i x_i``), so when ``d`` exceeds ``N`` the
same iterates are computed in the N-dimensional span of the data via the
Gram matrix; descent from zero never leaves that span.  Margins are
linear in the iterate, so they are carried from step to step: each
accepted step costs one product with the data operator (``Z Z'`` on the
span path, read from one triangle by BLAS ``dsymv``; ``Z'`` and ``Z`` on
the direct path) and a backtracking halving costs none.  Each candidate's
objective makes one pass over its margins: the logistic losses and
sigmoids are computed once and shared by the loss, its slope and the
per-environment penalty.

The hard-margin program ``min ||w||^2 s.t. y_i <w, x_i> >= 1`` is solved in
its dual over the Gram matrix: accelerated projected gradient ascent plus
an exact active-set polish, with the duality gap as the stopping
certificate.  Because there is no intercept, the dual has no equality
constraint, only ``alpha >= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.special import expit

from .errors import NonSeparableError, TwoEnvError
from .model import LabeledDataset, LinearModel

PENALTY_KINDS = ("none", "irmv1", "vrex", "groupdro", "moment_match")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    max_iters: int = 10_000
    penalty_kind: str = "none"
    penalty_weight: float = 0.0
    l2_weight: float = 0.0
    tolerance: float = 1e-8
    anneal_schedule: Optional[int] = None  # iteration at which the penalty activates
    log_every: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TwoEnvError("learning_rate must be positive")
        if self.max_iters < 1:
            raise TwoEnvError("max_iters must be at least 1")
        if self.penalty_kind not in PENALTY_KINDS:
            raise TwoEnvError(f"unknown penalty kind {self.penalty_kind!r}")
        if self.penalty_weight < 0 or self.l2_weight < 0:
            raise TwoEnvError("penalty_weight and l2_weight must be nonnegative")
        if self.tolerance <= 0:
            raise TwoEnvError("tolerance must be positive")


def _loss(m: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, -m)


def _slope(m: np.ndarray) -> np.ndarray:
    # d/dm log(1 + exp(-m)) = -sigmoid(-m)
    return -expit(-m)


def _env_masks(data: LabeledDataset) -> list[slice | np.ndarray]:
    """Row selectors of the environments present, in order 1, 2.

    An environment whose rows form one contiguous block, as every sampler
    emits them, gets a basic ``slice`` (a view, no gather); any other gets
    its boolean mask.
    """
    selectors = []
    for e in (1, 2):
        rows = np.flatnonzero(data.env == e)
        if rows.size == 0:
            continue
        first, last = int(rows[0]), int(rows[-1])
        selectors.append(slice(first, last + 1) if last - first + 1 == rows.size
                         else data.env == e)
    return selectors


def penalty_value_and_slope(
    kind: str,
    m: np.ndarray,
    masks: list[slice | np.ndarray],
    *,
    ell: Optional[np.ndarray] = None,
    s: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray]:
    """Penalty value and its derivative with respect to the margins.

    ``masks`` select each environment's rows (slices or boolean masks).
    ``ell = log(1 + exp(-m))`` and ``s = sigmoid(-m)`` may be passed in by
    a caller that already has them; otherwise they are computed here.
    Means are ``sum / count``, bitwise equal to ``ndarray.mean``.
    """
    dm = np.zeros_like(m)
    if kind == "none":
        return 0.0, dm
    if ell is None:
        ell = _loss(m)
    if s is None:
        s = expit(-m)

    if kind == "irmv1":
        # squared per-environment risk gradient w.r.t. a scalar multiplier at 1
        total = 0.0
        for mask in masks:
            me, se = m[mask], s[mask]
            slope = -se
            g = float((me * slope).sum()) / me.size
            total += g * g
            dm[mask] = 2.0 * g * (slope + me * (se * (1.0 - se))) / me.size
        return total, dm

    if kind == "vrex":
        parts = [ell[mask] for mask in masks]
        losses = [float(part.sum()) / part.size for part in parts]
        mean_loss = sum(losses) / len(losses)
        value = sum((le - mean_loss) ** 2 for le in losses) / len(losses)
        for mask, le, part in zip(masks, losses, parts):
            dm[mask] = (2.0 / len(losses)) * (le - mean_loss) * -s[mask] / part.size
        return value, dm

    if kind == "groupdro":
        parts = [ell[mask] for mask in masks]
        losses = [float(part.sum()) / part.size for part in parts]
        worst = int(np.argmax(losses))
        mask = masks[worst]
        dm[mask] = -s[mask] / parts[worst].size
        return losses[worst], dm

    if kind == "moment_match":
        # match mean and variance of the signed score across environments
        if len(masks) != 2:
            raise TwoEnvError("moment_match needs exactly two environments")
        stats = []
        for mask in masks:
            me = m[mask]
            stats.append((float(me.mean()), float(me.var())))
        (m1, s1), (m2, s2) = stats
        value = (m1 - m2) ** 2 + (s1 - s2) ** 2
        for sign, mask, (mbar, _) in zip((1.0, -1.0), masks, stats):
            me = m[mask]
            dm[mask] = sign * (
                2.0 * (m1 - m2) / me.size + 2.0 * (s1 - s2) * 2.0 * (me - mbar) / me.size
            )
        return value, dm

    raise TwoEnvError(f"unknown penalty kind {kind!r}")


@dataclass
class TrainTrace:
    iters: list[int] = field(default_factory=list)
    loss: list[float] = field(default_factory=list)
    penalty: list[float] = field(default_factory=list)
    train_err: list[float] = field(default_factory=list)
    margin: list[float] = field(default_factory=list)
    stop_reason: str = "max_iters"  # "converged", "stalled" or "max_iters"
    final_grad_norm: float = math.nan

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def log(self, it: int, loss: float, penalty: float, err: float, margin: float) -> None:
        self.iters.append(it)
        self.loss.append(loss)
        self.penalty.append(penalty)
        self.train_err.append(err)
        self.margin.append(margin)


class _WSpace:
    """Direct parameterization ``state = w``; two O(N d) products per step."""

    def __init__(self, Z: np.ndarray):
        self.Z = Z

    def start(self, w0: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        if w0 is None:
            return np.zeros(self.Z.shape[1]), np.zeros(self.Z.shape[0])
        return w0.copy(), self.Z @ w0

    def direction(self, coeff: np.ndarray, ridge: Optional[np.ndarray]):
        """Descent direction ``g``, its margin image ``Z g`` and ``||g||^2``."""
        g = self.Z.T @ coeff
        if ridge is not None:
            g = g + ridge
        return g, self.Z @ g, float(g @ g)

    def sq_norm(self, state: np.ndarray, m: np.ndarray) -> float:
        return float(state @ state)

    def weights(self, state: np.ndarray) -> np.ndarray:
        return state


class _SpanSpace:
    """Span parameterization ``w = Z^T beta``; one O(N^2) product per step.

    A w-space step ``w - lr (Z^T c + 2 l2 w)`` with ``w = Z^T beta`` equals
    ``Z^T (beta - lr (c + 2 l2 beta))``, so descent-from-zero trajectories
    coincide with the direct path up to round-off.  ``K`` is exactly
    symmetric, so ``dsymv`` reads one triangle of it; it is handed the
    Fortran-ordered view ``K.T``, which f2py passes on without a copy.
    """

    def __init__(self, Z: np.ndarray):
        self.Z = Z
        self.K = Z @ Z.T

    def start(self, w0: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        n = self.K.shape[0]
        if w0 is None:
            return np.zeros(n), np.zeros(n)
        # least-squares span coefficients of the warm start
        state = np.linalg.lstsq(self.K, self.Z @ w0, rcond=None)[0]
        return state, self.K @ state

    def direction(self, coeff: np.ndarray, ridge: Optional[np.ndarray]):
        """Descent direction ``c``, its margin image ``K c`` and ``c' K c``."""
        c = coeff if ridge is None else coeff + ridge
        Kc = dsymv(1.0, self.K.T, c)
        return c, Kc, float(c @ Kc)

    def sq_norm(self, state: np.ndarray, m: np.ndarray) -> float:
        # ||Z^T beta||^2 = beta' K beta, and K beta is the margin vector
        return float(state @ m)

    def weights(self, state: np.ndarray) -> np.ndarray:
        return self.Z.T @ state


def gd_train(
    data: LabeledDataset,
    config: TrainConfig,
    sigma: Optional[float] = None,
    w0: Optional[np.ndarray] = None,
) -> tuple[LinearModel, TrainTrace]:
    """Full-batch gradient descent from zero on the penalized logistic objective.

    The step size starts at ``config.learning_rate`` and is halved whenever
    a step would increase the objective, so the objective is non-increasing
    between penalty-activation boundaries.  Stops when the gradient norm
    falls below ``config.tolerance`` (never before an active penalty switches on),
    when no halved step down to ``2**-60`` of the rate is accepted, or after
    ``max_iters``; ``trace.stop_reason`` says which.

    Each accepted step applies the data operator once: ``K = Z Z'`` on the
    span path (``d > N``, one triangle read by ``dsymv``), ``Z'`` then
    ``Z`` on the direct path.  Margins are linear in the state, so a
    candidate's margins are the current ones minus the step times that
    product, and a backtracking halving costs no product at all.  Each
    evaluation computes the losses and sigmoids of its margins once and
    makes exactly one call to :func:`penalty_value_and_slope`, which reads
    its per-environment slices of them.
    ``sigma`` only scales the margin column of the trace; ``w0``
    warm-starts the iteration at the cost of one product for its margins.
    """
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    masks = _env_masks(data)
    if config.penalty_kind not in ("none",) and len(masks) < 2:
        raise TwoEnvError(f"penalty {config.penalty_kind!r} needs both environments present")

    Z = data.signed()
    space = _SpanSpace(Z) if data.d > data.n else _WSpace(Z)
    state, m = space.start(None if w0 is None else np.asarray(w0, dtype=np.float64))

    margin_scale = 1.0 if sigma is None else math.sqrt(sigma**2 * data.ambient_d)
    n = data.n
    l2 = config.l2_weight
    trace = TrainTrace()

    def effective_lambda(it: int) -> float:
        if config.anneal_schedule is not None and it < config.anneal_schedule:
            return 0.0
        return config.penalty_weight

    def ridge(st: np.ndarray) -> Optional[np.ndarray]:
        return 2.0 * l2 * st if l2 else None

    def evaluate(m: np.ndarray, st: np.ndarray, lam: float):
        ell, s = _loss(m), expit(-m)
        loss = float(ell.sum()) / n
        pen, pen_dm = penalty_value_and_slope(config.penalty_kind, m, masks, ell=ell, s=s)
        total = loss + lam * pen
        if l2:
            total += l2 * space.sq_norm(st, m)
        coeff = -s / n
        if lam:
            coeff += lam * pen_dm
        return loss, pen, total, coeff

    def log(it: int) -> None:
        wnorm = math.sqrt(max(space.sq_norm(state, m), 1e-300))
        trace.log(it, loss, pen, float((m <= 0).mean()), float(m.min()) / (wnorm * margin_scale))

    # a penalty-free objective never changes at the anneal iteration
    penalized = config.penalty_kind != "none" and config.penalty_weight > 0
    min_stop_iter = (config.anneal_schedule or 0) if penalized else 0
    lr = config.learning_rate
    lam = effective_lambda(0)
    loss, pen, total, coeff = evaluate(m, state, lam)
    if not math.isfinite(total):
        raise TwoEnvError("non-finite objective at initialization")

    it = 0
    for it in range(config.max_iters):
        new_lam = effective_lambda(it)
        if new_lam != lam:
            lam = new_lam
            loss, pen, total, coeff = evaluate(m, state, lam)
        direction, moved, gnorm_sq = space.direction(coeff, ridge(state))
        gnorm = math.sqrt(gnorm_sq)
        if it % config.log_every == 0:
            log(it)
        if gnorm <= config.tolerance and it >= min_stop_iter:
            trace.stop_reason = "converged"
            break

        step = lr
        while True:
            cand = state - step * direction
            m_cand = m - step * moved
            loss_c, pen_c, total_c, coeff_c = evaluate(m_cand, cand, lam)
            if math.isfinite(total_c) and total_c <= total:
                break
            step *= 0.5
            if step < config.learning_rate * 2.0**-60:
                trace.stop_reason = "stalled"
                break
        if trace.stop_reason == "stalled":
            break
        state, m = cand, m_cand
        loss, pen, total, coeff = loss_c, pen_c, total_c, coeff_c
        lr = min(config.learning_rate, step * 2.0)
    else:
        # the last accepted step moved the state; measure its gradient once
        gnorm = math.sqrt(space.direction(coeff, ridge(state))[2])

    trace.final_grad_norm = gnorm
    log(it)

    w = space.weights(state)
    if float(np.linalg.norm(w)) == 0.0:
        raise TwoEnvError("training made no progress from the zero initializer")
    meta = {"iters": it, "grad_norm": gnorm, "stop_reason": trace.stop_reason}
    return LinearModel(w, meta=meta), trace


def objective_gradient(data: LabeledDataset, config: TrainConfig, w: np.ndarray) -> np.ndarray:
    """Analytic gradient of the full objective at ``w`` (for verification)."""
    masks = _env_masks(data)
    Z = data.signed()
    m = Z @ np.asarray(w, dtype=np.float64)
    _, pen_dm = penalty_value_and_slope(config.penalty_kind, m, masks)
    coeff = _slope(m) / data.n + config.penalty_weight * pen_dm
    return Z.T @ coeff + 2.0 * config.l2_weight * np.asarray(w)


def objective_value(data: LabeledDataset, config: TrainConfig, w: np.ndarray) -> float:
    masks = _env_masks(data)
    m = data.signed() @ np.asarray(w, dtype=np.float64)
    pen, _ = penalty_value_and_slope(config.penalty_kind, m, masks)
    return (
        float(_loss(m).mean())
        + config.penalty_weight * pen
        + config.l2_weight * float(np.asarray(w) @ np.asarray(w))
    )


# ---------------------------------------------------------------------------
# Hard-margin fitting
# ---------------------------------------------------------------------------


def _polish_active_set(K: np.ndarray, active: np.ndarray):
    """Solve the unconstrained dual restricted to an active-set guess.

    At the optimum, active coordinates satisfy ``[K alpha]_A = 1`` with
    ``alpha`` supported on ``A``; if the solve is nonnegative and feasible
    for the full constraint set, it is the exact optimum.
    """
    sub = K[np.ix_(active, active)]
    rhs = np.ones(int(active.sum()))
    try:
        x = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(sub, rhs, rcond=None)[0]
    alpha = np.zeros(K.shape[0])
    alpha[active] = np.maximum(x, 0.0)
    return alpha


def hard_margin_dual(
    K: np.ndarray, tol: float = 1e-8, max_iters: int = 200_000
) -> tuple[np.ndarray, dict]:
    """Maximize ``1'a - a'Ka/2`` over ``a >= 0``; returns scaled multipliers.

    The returned ``alpha`` is rescaled so the primal ``w = Z' alpha``
    satisfies every margin constraint (minimum margin in [1, 1 + tol]).
    Raises :class:`NonSeparableError` when the dual is detected unbounded.
    """
    K = np.asarray(K, dtype=np.float64)
    n = K.shape[0]
    lam_max = float(np.linalg.eigvalsh(K)[-1]) if n > 1 else float(K[0, 0])
    if lam_max <= 0:
        raise NonSeparableError("all samples are numerically zero", 0, 0.0)
    step = 1.0 / lam_max

    alpha = np.zeros(n)
    momentum = alpha.copy()
    t_acc = 1.0
    best: Optional[tuple[float, np.ndarray, float]] = None
    best_margin = -math.inf
    best_margin_idx = 0
    dual_cap = 1e14

    def certify(a: np.ndarray):
        nonlocal best, best_margin, best_margin_idx
        m = K @ a
        dual = float(a.sum() - 0.5 * (a @ m))
        mmin = float(m.min())
        if mmin > best_margin:
            best_margin = mmin
            best_margin_idx = int(np.argmin(m))
        if mmin <= 0:
            return dual, math.inf, None
        primal = 0.5 * float(a @ m) / mmin**2
        gap = primal - dual
        scaled = a / mmin
        if best is None or gap < best[0]:
            best = (gap, scaled, primal)
        return dual, gap, scaled

    check_every = 25
    for it in range(1, max_iters + 1):
        grad = 1.0 - K @ momentum
        alpha_new = np.maximum(0.0, momentum + step * grad)
        if float(grad @ (alpha_new - alpha)) < 0.0:  # restart acceleration
            t_new = 1.0
            momentum = alpha_new
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
            momentum = alpha_new + ((t_acc - 1.0) / t_new) * (alpha_new - alpha)
        alpha, t_acc = alpha_new, t_new

        if it % check_every == 0 or it == max_iters:
            dual, gap, scaled = certify(alpha)
            if scaled is not None and gap <= tol * max(1.0, abs(dual)):
                return _finish(scaled, gap, it, tol)
            if scaled is not None:
                margins = K @ alpha
                active = (margins <= 1.0 + 1e-6) | (alpha > 1e-12 * max(1.0, alpha.max()))
                if active.any():
                    polished = _polish_active_set(K, active)
                    dual_p, gap_p, scaled_p = certify(polished)
                    if scaled_p is not None and gap_p <= tol * max(1.0, abs(dual_p)):
                        return _finish(scaled_p, gap_p, it, tol)
            # a bounded dual has value (1/2)||w*||^2; separable runs turn the
            # minimum margin positive long before the value grows this large
            if dual > dual_cap or (dual > 1e7 and best_margin <= 0.0):
                raise NonSeparableError(
                    "dual objective diverged; data is not linearly separable",
                    best_margin_idx,
                    best_margin,
                )
    if best is not None and best[0] <= math.sqrt(tol):
        return _finish(best[1], best[0], max_iters, tol)
    raise NonSeparableError(
        "no separating direction found within the iteration budget",
        best_margin_idx,
        best_margin,
    )


def _finish(scaled: np.ndarray, gap: float, iters: int, tol: float):
    # nudge above 1 so feasibility survives the final float rounding
    safe = scaled * (1.0 + 1e-12)
    return safe, {"gap": float(gap), "iterations": iters, "tol": tol}


def max_margin(data: LabeledDataset, tol: float = 1e-8) -> LinearModel:
    """Minimum-norm separator with unit margins, via the Gram-matrix dual."""
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    Z = data.signed()
    alpha, info = hard_margin_dual(Z @ Z.T, tol=tol)
    w = Z.T @ alpha
    return LinearModel(w, meta={"alpha": alpha, **info})


def cosine_similarity(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise TwoEnvError("cosine undefined for zero vectors")
    return float(u @ v / (nu * nv))


@dataclass(frozen=True)
class AlignmentRow:
    d: int
    cos_ridge_path: float
    cos_plain_gd: float


def irm_margin_alignment(
    datasets: list[tuple[int, LabeledDataset]],
    config: TrainConfig,
    ridge_schedule: tuple[float, ...] = (1e-1, 1e-2, 1e-3),
    svm_tol: float = 1e-8,
) -> list[AlignmentRow]:
    """Cosine of gradient-trained directions against the hard-margin separator.

    Two routes are reported per dimension: minimizers along a decaying
    ridge schedule (warm-started, the last ridge level wins), and a single
    long unregularized run probing the implicit bias of plain descent.
    Non-separable inputs propagate :class:`NonSeparableError`.
    """
    rows = []
    for d, data in datasets:
        svm = max_margin(data, tol=svm_tol)

        w_warm = None
        for lam2 in ridge_schedule:
            cfg = replace(config, penalty_kind="irmv1", l2_weight=lam2)
            model, _ = gd_train(data, cfg, w0=w_warm)
            w_warm = model.w
        cos_ridge = cosine_similarity(w_warm, svm.w)

        plain_cfg = replace(config, penalty_kind="irmv1", l2_weight=0.0)
        plain, _ = gd_train(data, plain_cfg)
        rows.append(AlignmentRow(d, cos_ridge, cosine_similarity(plain.w, svm.w)))
    return rows
