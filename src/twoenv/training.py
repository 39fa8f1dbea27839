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
the direct path) and a backtracking halving costs none.  A run allocates
its vectors once, one set for the current iterate and one for the
candidate, and every array operation of a step writes into them.  Each
evaluation takes ``e = exp(-|m|)`` once and derives the logistic losses
``log1p(e) + max(-m, 0)`` and the sigmoids ``exp(-(log1p(e) + max(m, 0)))``
from it; the loss, its slope and the per-environment penalty share them.
On a 2-CPU Xeon box with one BLAS thread, at N=900, a step costs about
0.23 ms on the span path against 0.16-0.18 ms for ``dsymv`` alone, and
about 0.23 ms on the direct path at d=320 against 0.15-0.18 ms for its two
products; at N=180 (ridge IRMv1) it costs 0.046 ms around a 0.008 ms product.

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
        if self.anneal_schedule is not None and self.anneal_schedule < 0:
            raise TwoEnvError("anneal_schedule must be nonnegative")
        if self.log_every < 1:
            raise TwoEnvError("log_every must be at least 1")


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
    out: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray]:
    """Penalty value and its derivative with respect to the margins.

    ``masks`` select each environment's rows (disjoint slices or boolean
    masks).  ``ell = log(1 + exp(-m))`` and ``s = sigmoid(-m)`` may be
    passed in by a caller that already has them; otherwise they are
    computed here.  ``out``, if given, receives the derivative in place of
    a fresh array; it must not share memory with ``m``, ``ell`` or ``s``.
    Means are ``sum / count``, bitwise equal to
    ``ndarray.mean``.  Each row's derivative takes the same operations
    whatever the selectors, so slices and masks give bitwise equal results;
    each environment's per-row factor is folded into one scalar, so the
    derivative costs one or two array operations per environment.
    """
    dm = np.zeros_like(m) if out is None else out
    if kind == "none":
        dm.fill(0.0)
        return 0.0, dm
    if ell is None:
        ell = _loss(m)
    if s is None:
        s = expit(-m)

    if kind == "irmv1":
        # squared per-environment risk gradient w.r.t. a scalar multiplier at
        # 1: g = mean(m * slope) with slope = -s, and the derivative of g^2 is
        # 2 g (slope + m s (1 - s)) / |e| = (2 g / |e|) s (m - m s - 1)
        ms = np.multiply(m, s, out=dm)
        parts = [ms[mask] for mask in masks]
        grads = [-float(part.sum()) / part.size for part in parts]
        np.subtract(m, ms, out=dm)
        dm -= 1.0
        dm *= s
        for mask, g, part in zip(masks, grads, parts):
            dm[mask] *= 2.0 * g / part.size
        _zero_outside(dm, masks, sum(part.size for part in parts))
        return sum(g * g for g in grads), dm

    if kind == "vrex":
        parts = [ell[mask] for mask in masks]
        losses = [float(part.sum()) / part.size for part in parts]
        mean_loss = sum(losses) / len(losses)
        value = sum((le - mean_loss) ** 2 for le in losses) / len(losses)
        for mask, le, part in zip(masks, losses, parts):
            # (2 / k) (le - mean) * -s / |e|; out= fills a slice's view in
            # place, and the assignment writes a masked copy back
            dm[mask] = np.multiply(s[mask], -2.0 * (le - mean_loss) / (len(losses) * part.size),
                                   out=dm[mask])
        _zero_outside(dm, masks, sum(part.size for part in parts))
        return value, dm

    if kind == "groupdro":
        parts = [ell[mask] for mask in masks]
        losses = [float(part.sum()) / part.size for part in parts]
        worst = int(np.argmax(losses))
        mask = masks[worst]
        dm.fill(0.0)
        dm[mask] = np.divide(s[mask], -parts[worst].size, out=dm[mask])
        return losses[worst], dm

    if kind == "moment_match":
        # match mean and variance of the signed score across environments
        if len(masks) != 2:
            raise TwoEnvError("moment_match needs exactly two environments")
        parts = [m[mask] for mask in masks]
        stats = [(float(part.mean()), float(part.var())) for part in parts]
        (m1, s1), (m2, s2) = stats
        value = (m1 - m2) ** 2 + (s1 - s2) ** 2
        for sign, mask, part, (mbar, _) in zip((1.0, -1.0), masks, parts, stats):
            # sign (2 (m1 - m2) + 4 (s1 - s2) (m - mbar)) / |e|
            block = np.subtract(part, mbar, out=dm[mask])
            block *= sign * 4.0 * (s1 - s2) / part.size
            block += sign * 2.0 * (m1 - m2) / part.size
            dm[mask] = block
        _zero_outside(dm, masks, sum(part.size for part in parts))
        return value, dm

    raise TwoEnvError(f"unknown penalty kind {kind!r}")


def _zero_outside(dm: np.ndarray, masks: list[slice | np.ndarray], covered: int) -> None:
    """Zero the rows of ``dm`` that no selector covers (none when they tile it)."""
    if covered == dm.size:
        return
    keep = np.zeros(dm.size, dtype=bool)
    for mask in masks:
        keep[mask] = True
    dm[~keep] = 0.0


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
        self._g = np.zeros(Z.shape[1])
        self._moved = np.zeros(Z.shape[0])

    def start(self, w0: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        if w0 is None:
            return np.zeros(self.Z.shape[1]), np.zeros(self.Z.shape[0])
        return w0.copy(), self.Z @ w0

    def direction(self, coeff: np.ndarray, ridge: Optional[np.ndarray]):
        """Descent direction ``g``, its margin image ``Z g`` and ``||g||^2``.

        Both vectors live in buffers of this object that the next call
        overwrites.
        """
        g = np.matmul(self.Z.T, coeff, out=self._g)
        if ridge is not None:
            g += ridge
        return g, np.matmul(self.Z, g, out=self._moved), float(g @ g)

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
    Fortran-ordered view ``K.T``, which f2py passes on without a copy, and
    writes into a buffer of this object.
    """

    def __init__(self, Z: np.ndarray):
        self.Z = Z
        self.K = Z @ Z.T
        n = Z.shape[0]
        self._c = np.zeros(n)
        self._Kc = np.zeros(n)

    def start(self, w0: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        n = self.K.shape[0]
        if w0 is None:
            return np.zeros(n), np.zeros(n)
        # least-squares span coefficients of the warm start
        state = np.linalg.lstsq(self.K, self.Z @ w0, rcond=None)[0]
        return state, self.K @ state

    def direction(self, coeff: np.ndarray, ridge: Optional[np.ndarray]):
        """Descent direction ``c``, its margin image ``K c`` and ``c' K c``.

        ``c`` is ``coeff`` itself when there is no ridge; otherwise it and
        ``K c`` live in buffers of this object that the next call overwrites.
        """
        c = coeff if ridge is None else np.add(coeff, ridge, out=self._c)
        Kc = dsymv(1.0, self.K.T, c, y=self._Kc, overwrite_y=1)
        return c, Kc, float(c @ Kc)

    def sq_norm(self, state: np.ndarray, m: np.ndarray) -> float:
        # ||Z^T beta||^2 = beta' K beta, and K beta is the margin vector
        return float(state @ m)

    def weights(self, state: np.ndarray) -> np.ndarray:
        return self.Z.T @ state


class _Point:
    """Buffers of one iterate: its state and margins, and what its evaluation writes.

    ``ell`` and ``s`` hold the logistic losses and sigmoids of the margins,
    ``dm`` the penalty's margin slope, and ``coeff`` the objective's margin
    slope; ``loss``, ``pen`` and ``total`` are the evaluated scalars.
    """

    __slots__ = ("state", "m", "ell", "s", "dm", "coeff", "loss", "pen", "total")

    def __init__(self, state: np.ndarray, m: np.ndarray):
        self.state, self.m = state, m
        self.ell, self.s, self.dm, self.coeff = (np.zeros_like(m) for _ in range(4))
        self.loss = self.pen = self.total = math.nan


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
    product, and a backtracking halving costs no product at all.

    The run allocates its buffers once: state, margins, losses, sigmoids,
    penalty slope and objective slope for the current iterate, the same
    for the candidate, swapped when a step is accepted, so no candidate
    allocates.  Each evaluation takes one ``e = exp(-|m|)`` and derives
    from it the losses ``log1p(e) + max(-m, 0)`` and, with one more
    ``exp``, the sigmoids ``exp(-(log1p(e) + max(m, 0)))``; neither form
    overflows or cancels.  It then makes exactly one call to
    :func:`penalty_value_and_slope`, which reads its per-environment slices
    of them and writes the penalty slope into the candidate's buffer.  The
    loop's own work is about 0.05-0.07 ms a step at N=900 (see the module
    docstring), so a step costs little more than its operator product.
    ``sigma`` only scales the margin column of the trace; ``w0``
    warm-starts the iteration at the cost of one product for its margins.
    """
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    masks = _env_masks(data)
    kind = config.penalty_kind
    if kind != "none" and len(masks) < 2:
        raise TwoEnvError(f"penalty {kind!r} needs both environments present")

    Z = data.signed()
    space = _SpanSpace(Z) if data.d > data.n else _WSpace(Z)
    cur = _Point(*space.start(None if w0 is None else np.asarray(w0, dtype=np.float64)))
    cand = _Point(np.zeros_like(cur.state), np.zeros_like(cur.m))
    # scratch for one evaluation, shared by both points
    neg_m, u = np.zeros_like(cur.m), np.zeros_like(cur.m)

    margin_scale = 1.0 if sigma is None else math.sqrt(sigma**2 * data.ambient_d)
    n = data.n
    l2 = config.l2_weight
    ridge_buf = np.zeros_like(cur.state) if l2 else None
    trace = TrainTrace()

    def ridge(st: np.ndarray) -> Optional[np.ndarray]:
        return np.multiply(st, 2.0 * l2, out=ridge_buf) if l2 else None

    def evaluate(p: _Point, lam: float) -> None:
        m, ell, s = p.m, p.ell, p.s
        np.negative(m, out=neg_m)
        np.exp(np.minimum(m, neg_m, out=u), out=u)
        np.log1p(u, out=u)  # u = log1p(exp(-|m|))
        # ell = u + max(-m, 0); s = exp(-(u + max(m, 0))), as min(-m, 0) - u
        np.add(np.maximum(neg_m, 0.0, out=ell), u, out=ell)
        np.exp(np.subtract(np.minimum(neg_m, 0.0, out=s), u, out=s), out=s)
        p.loss = float(ell.sum()) / n
        p.pen, _ = penalty_value_and_slope(kind, m, masks, ell=ell, s=s, out=p.dm)
        p.total = p.loss + lam * p.pen
        if l2:
            p.total += l2 * space.sq_norm(p.state, m)
        np.divide(s, -float(n), out=p.coeff)  # -s / n
        if lam and kind != "none":
            p.coeff += np.multiply(p.dm, lam, out=p.dm)

    def log(it: int, p: _Point) -> None:
        wnorm = math.sqrt(max(space.sq_norm(p.state, p.m), 1e-300))
        trace.log(it, p.loss, p.pen, float((p.m <= 0).mean()),
                  float(p.m.min()) / (wnorm * margin_scale))

    # the penalty is off before the anneal iteration; a penalty-free
    # objective never changes there
    anneal = config.anneal_schedule or 0
    penalized = kind != "none" and config.penalty_weight > 0
    min_stop_iter = anneal if penalized else 0
    lr = max_lr = config.learning_rate
    min_step = max_lr * 2.0**-60
    tolerance, log_every = config.tolerance, config.log_every
    lam = 0.0 if anneal > 0 else config.penalty_weight
    evaluate(cur, lam)
    if not math.isfinite(cur.total):
        raise TwoEnvError("non-finite objective at initialization")

    it = 0
    for it in range(config.max_iters):
        if it == anneal and lam != config.penalty_weight:
            lam = config.penalty_weight
            evaluate(cur, lam)
        direction, moved, gnorm_sq = space.direction(cur.coeff, ridge(cur.state))
        gnorm = math.sqrt(gnorm_sq)
        if it % log_every == 0:
            log(it, cur)
        if gnorm <= tolerance and it >= min_stop_iter:
            trace.stop_reason = "converged"
            break

        step = lr
        while True:
            np.subtract(cur.state, np.multiply(direction, step, out=cand.state), out=cand.state)
            np.subtract(cur.m, np.multiply(moved, step, out=cand.m), out=cand.m)
            evaluate(cand, lam)
            if math.isfinite(cand.total) and cand.total <= cur.total:
                break
            step *= 0.5
            if step < min_step:
                trace.stop_reason = "stalled"
                break
        if trace.stop_reason == "stalled":
            break
        cur, cand = cand, cur
        lr = min(max_lr, step * 2.0)
    else:
        # the last accepted step moved the state; measure its gradient once
        gnorm = math.sqrt(space.direction(cur.coeff, ridge(cur.state))[2])

    trace.final_grad_norm = gnorm
    log(it, cur)

    w = space.weights(cur.state)
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
