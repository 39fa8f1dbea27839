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
Runs on one dataset that differ only in their penalty take the same steps
until the penalty switches on at the anneal iteration; :func:`gd_train`
can store the iterate there and start later runs from it (``prefixes``).
On a 2-CPU Xeon box with one BLAS thread, at N=900, a step costs about
0.23 ms on the span path against 0.16-0.18 ms for ``dsymv`` alone, and
about 0.23 ms on the direct path at d=320 against 0.15-0.18 ms for its two
products; at N=180 (ridge IRMv1) it costs 0.046 ms around a 0.008 ms product.

The hard-margin program ``min ||w||^2 s.t. y_i <w, x_i> >= 1`` is a
least-distance program, solved exactly by the Lawson-Hanson routine
:func:`nnls` (which also serves :mod:`twoenv.duality`); it returns a
separator or a non-separability witness, never an iteration-budget verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
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

    def __post_init__(self):
        # every comparison with NaN is false, so each test is written to fail on it
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TwoEnvError("learning_rate must be positive and finite")
        if self.max_iters < 1:
            raise TwoEnvError("max_iters must be at least 1")
        if self.penalty_kind not in PENALTY_KINDS:
            raise TwoEnvError(f"unknown penalty kind {self.penalty_kind!r}")
        for name in ("penalty_weight", "l2_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise TwoEnvError(f"{name} must be nonnegative and finite")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise TwoEnvError("tolerance must be positive and finite")
        if self.anneal_schedule is not None and self.anneal_schedule < 0:
            raise TwoEnvError("anneal_schedule must be nonnegative")


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
    masks) and together cover every row of ``m``, as :func:`_env_masks`
    gives them: every env tag is 1 or 2, and a penalized kind needs both
    environments.  ``ell = log(1 + exp(-m))`` and ``s = sigmoid(-m)`` may
    be passed in by a caller that already has them; otherwise they are
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
        return value, dm

    raise TwoEnvError(f"unknown penalty kind {kind!r}")


@dataclass
class TrainTrace:
    """How a run ended; the same values sit in the model's ``meta``."""

    stop_reason: str = "max_iters"  # "converged", "stalled" or "max_iters"
    final_grad_norm: float = math.nan

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


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
    slope; ``total`` is the evaluated objective.
    """

    __slots__ = ("state", "m", "ell", "s", "dm", "coeff", "total")

    def __init__(self, state: np.ndarray, m: np.ndarray):
        self.state, self.m = state, m
        self.ell, self.s, self.dm, self.coeff = (np.zeros_like(m) for _ in range(4))
        self.total = math.nan

    def copy(self) -> "_Point":
        """A copy with buffers of its own, which the trainer's in-place writes cannot reach."""
        point = _Point.__new__(_Point)
        for name in ("state", "m", "ell", "s", "dm", "coeff"):
            setattr(point, name, getattr(self, name).copy())
        point.total = self.total
        return point


def gd_train(
    data: LabeledDataset,
    config: TrainConfig,
    w0: Optional[np.ndarray] = None,
    prefixes: Optional[dict] = None,
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
    of them and writes the penalty slope into the candidate's buffer; before
    the anneal iteration, where the penalty weight is zero, that call takes
    the ``"none"`` kind.  The loop's own work is about 0.05-0.07 ms a step
    at N=900 (see the module docstring), so a step costs little more than
    its operator product.  ``w0`` warm-starts the iteration at the cost of
    one product for its margins.

    ``prefixes`` lets the runs on one dataset share their pre-anneal steps.
    The penalty weight is zero before the anneal iteration, so every run
    from zero on the same data with the same ``learning_rate``,
    ``tolerance``, ``l2_weight`` and ``anneal_schedule`` takes the same steps
    up to it, whatever its penalty.  The first such run to reach the anneal
    iteration stores a copy of its iterate there (state, margins, losses,
    sigmoids, slopes, objective and step size) in the dict under those four
    fields; a later one starts from that copy at the anneal iteration.  The
    model, ``meta`` and trace are those of a run from zero, bit for bit, and
    ``meta["iters"]`` still counts from zero.  Nothing is stored for a run
    with ``w0``, for an anneal iteration outside ``(0, max_iters)``, or when
    a pre-anneal iterate met the tolerance (a penalty-free run stops there,
    a penalized one does not).  The caller owns the dict and must hand it
    only to runs on the same ``data``.
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
        pen, _ = penalty_value_and_slope(kind if lam else "none", m, masks,
                                         ell=ell, s=s, out=p.dm)
        p.total = float(ell.sum()) / n + lam * pen
        if l2:
            p.total += l2 * space.sq_norm(p.state, m)
        np.divide(s, -float(n), out=p.coeff)  # -s / n
        if lam and kind != "none":
            p.coeff += np.multiply(p.dm, lam, out=p.dm)

    # the penalty is off before the anneal iteration; a penalty-free
    # objective never changes there
    anneal = config.anneal_schedule or 0
    penalized = kind != "none" and config.penalty_weight > 0
    min_stop_iter = anneal if penalized else 0
    lr = max_lr = config.learning_rate
    min_step = max_lr * 2.0**-60
    tolerance = config.tolerance
    lam = 0.0 if anneal > 0 else config.penalty_weight

    # the fields that fix the steps before the anneal iteration
    key = None
    if prefixes is not None and w0 is None and 0 < anneal < config.max_iters:
        key = (max_lr, tolerance, l2, anneal)
    prefix = prefixes.get(key) if key is not None else None
    if prefix is None:
        first = 0
        evaluate(cur, lam)
        if not math.isfinite(cur.total):
            raise TwoEnvError("non-finite objective at initialization")
    else:
        first, (snapshot, lr) = anneal, prefix
        cur = snapshot.copy()
    # a pre-anneal iterate that met the tolerance would have stopped a
    # penalty-free run, which a penalized one walks past: not a shared prefix
    met_tolerance = False

    it = 0
    for it in range(first, config.max_iters):
        if it == anneal:
            if key is not None and prefix is None and not met_tolerance:
                prefixes[key] = (cur.copy(), lr)
            if lam != config.penalty_weight:
                lam = config.penalty_weight
                evaluate(cur, lam)
        direction, moved, gnorm_sq = space.direction(cur.coeff, ridge(cur.state))
        gnorm = math.sqrt(gnorm_sq)
        if gnorm <= tolerance:
            if it >= min_stop_iter:
                trace.stop_reason = "converged"
                break
            met_tolerance = True

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


def nnls(G: np.ndarray, b: np.ndarray, passive: np.ndarray) -> tuple[np.ndarray, int]:
    """Lawson-Hanson NNLS on the normal equations: ``min x'Gx/2 - b'x``, ``x >= 0``.

    ``G = A'A`` and ``b = A'y`` give ``min ||Ax - y||`` (Lawson & Hanson,
    *Solving Least Squares Problems*, 1974, ch. 23).  The ``passive`` mask is
    a warm start, shrunk until its Cholesky solve is positive, or emptied if
    a pivot falls below ``sqrt(eps)`` of its diagonal entry.  A coordinate
    whose entry makes the passive block singular, or gets no positive
    solve, is numerically dependent and waits until ``x`` moves.  Returns
    ``(x, solves)``; raises :class:`TwoEnvError` unless the slopes ``b - Gx``
    are within ``tol = 64 n eps (max|b| + max|G| sum(x))`` of zero where
    ``x > 0`` and below it elsewhere.
    """
    n = b.size
    eps = np.finfo(np.float64).eps
    x = np.zeros(n)
    P = np.array(passive, dtype=bool)
    solves = 0

    def solve(min_pivot=0.0):
        nonlocal solves
        solves += 1
        idx = np.flatnonzero(P)
        sub = G[np.ix_(idx, idx)]
        try:
            factor = cho_factor(sub)
        except np.linalg.LinAlgError:
            return None
        if np.any(np.diag(factor[0]) ** 2 <= min_pivot * np.diag(sub)):
            return None
        s = np.zeros(n)
        s[idx] = cho_solve(factor, b[idx])
        return s

    while P.any():
        s = solve(math.sqrt(eps))
        if s is None:
            P[:] = False
        elif s[P].min() > 0.0:
            x = s
            break
        else:
            P &= s > 0.0
    g_max = float(np.abs(G).max())
    blocked = np.zeros(n, dtype=bool)
    for _ in range(8 * n + 8):
        slope = b - G @ x
        tol = 64 * n * eps * (float(np.abs(b).max()) + g_max * float(x.sum()))
        free = np.where(P | blocked, -np.inf, slope)
        j = int(np.argmax(free))
        if free[j] <= tol:
            if np.abs(slope[P]).max(initial=0.0) > tol:
                raise TwoEnvError(f"nnls failed its KKT check (tolerance {tol:.3e})")
            return x, solves
        P[j] = True
        s = solve()
        if s is None or s[j] <= 0.0:
            P[j] = False
            blocked[j] = True
            continue
        blocked[:] = False
        while s[P].min() <= 0.0:
            # step toward s until the first passive coordinate reaches zero
            out = P & (s <= 0.0)
            ratios = x[out] / (x[out] - s[out])
            x = x + float(ratios.min()) * (s - x)
            x[np.flatnonzero(out)[np.argmin(ratios)]] = 0.0
            P &= x > 0.0
            x[~P] = 0.0
            s = solve()  # a principal block of a factored block has a factor
        x = s
    raise TwoEnvError("nnls did not terminate")


WITNESS_RTOL = 1e-10  # non-separability threshold of hard_margin_dual, a round-off level


def hard_margin_dual(Z: np.ndarray) -> tuple[np.ndarray, dict]:
    """Exact hard-margin multipliers for the signed rows ``Z``.

    ``min ||w|| s.t. Z w >= 1`` is the least-distance program
    ``min_{u>=0} ||[Z'; 1'] u - e_{k+1}||``, solved by :func:`nnls` for ``Z``
    over its largest row norm (same separators) from every row, the answer
    in the support-vector proliferation regime; ``w = Z'u / (1 - 1'u)``.
    ``alpha`` is ``u`` scaled so that the margins of ``Z' alpha`` have
    minimum ``1 + 1e-12``; ``info`` holds the duality ``gap`` and the
    passive-set solves as ``iterations``.  With ``u~ = u / 1'u``, every
    unit-norm ``w`` has minimum margin at most ``||Z'u~||``;
    :class:`NonSeparableError` carries the witness ``u~`` when that is at
    most ``WITNESS_RTOL max_i ||z_i||``.
    """
    K = Z @ Z.T
    n = len(Z)
    rho2 = float(K.diagonal().max()) or 1.0  # all-zero rows: any witness is exact
    u, solves = nnls(K / rho2 + 1.0, np.ones(n), np.ones(n, dtype=bool))
    witness = u / float(u.sum())
    bound = float(np.linalg.norm(Z.T @ witness))
    if bound <= WITNESS_RTOL * math.sqrt(rho2):
        raise NonSeparableError(
            "data is not linearly separable", int(np.argmax(witness)), bound, witness
        )
    alpha = u / rho2  # multipliers for Z itself, minimum margin 1 - 1'u < 1
    # scale to a computed minimum margin of 1 + 1e-12, again where heavily
    # cancelling margins round below it
    while (low := float((Z @ (Z.T @ alpha)).min())) < 1.0:
        if low <= 0.0:
            raise TwoEnvError("hard-margin solve returned no separating direction")
        alpha = alpha * ((1.0 + 1e-12) / low)
    gap = float(alpha @ (K @ alpha)) - float(alpha.sum())  # a'Ka/2 - (1'a - a'Ka/2)
    return alpha, {"gap": gap, "iterations": solves}


def max_margin(data: LabeledDataset) -> LinearModel:
    """Minimum-norm separator with unit margins, via :func:`hard_margin_dual`."""
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    Z = data.signed()
    alpha, info = hard_margin_dual(Z)
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


# the ridge levels of irm_margin_alignment's warm-started route, largest first
RIDGE_SCHEDULE = (1e-1, 1e-2, 1e-3)


def irm_margin_alignment(
    datasets: list[tuple[int, LabeledDataset]],
    config: TrainConfig,
) -> list[AlignmentRow]:
    """Cosine of gradient-trained directions against the hard-margin separator.

    Two routes are reported per dimension: minimizers along a decaying
    ridge schedule (warm-started, the last ridge level wins), and a single
    long unregularized run probing the implicit bias of plain descent.
    Non-separable inputs propagate :class:`NonSeparableError`.
    """
    rows = []
    for d, data in datasets:
        svm = max_margin(data)

        w_warm = None
        for lam2 in RIDGE_SCHEDULE:
            cfg = replace(config, penalty_kind="irmv1", l2_weight=lam2)
            model, _ = gd_train(data, cfg, w0=w_warm)
            w_warm = model.w
        cos_ridge = cosine_similarity(w_warm, svm.w)

        plain_cfg = replace(config, penalty_kind="irmv1", l2_weight=0.0)
        plain, _ = gd_train(data, plain_cfg)
        rows.append(AlignmentRow(d, cos_ridge, cosine_similarity(plain.w, svm.w)))
    return rows
