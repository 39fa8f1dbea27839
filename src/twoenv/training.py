"""Gradient-descent trainers, invariance penalties, and hard-margin fitting.

Trainers run full-batch gradient descent on the mean logistic loss plus an
optional invariance penalty and an optional ridge term.  Every objective
piece except the ridge depends on ``w`` only through the signed margins
``m = Z w`` (``Z`` stacks ``y_i x_i``), and descent from zero never leaves
the row span of ``Z``, so every run iterates on N span coefficients
``beta`` with ``w = Z' beta``.  Only the product with ``K = Z Z'`` is
chosen by shape: ``Z (Z' c)`` when ``d <= N``, BLAS ``dsymv`` on the
stored ``K`` when ``d > N``.  :func:`gd_train` says how a step runs and
what it costs.

The hard-margin program ``min ||w||^2 s.t. y_i <w, x_i> >= 1`` is a
least-distance program, solved exactly by the Lawson-Hanson routine
:func:`nnls` (which also serves :mod:`twoenv.duality`); it returns a
separator or a non-separability witness, never an iteration-budget verdict.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Optional

import numpy as np
import scipy

from .errors import NonSeparableError, TwoEnvError, finite_real, integer_in
from .model import LabeledDataset, LinearModel, binary_exponent, env_rows


def _scipy_linalg_extension(name: str):
    """Load scipy's f2py module ``scipy.linalg.<name>`` without ``scipy.linalg``.

    The package ``__init__`` would load ~300 modules (``numpy.f2py`` and
    ``numpy.testing`` among them) and double every command's start-up.  The
    module is registered under its full name, so a later ``import
    scipy.linalg`` reuses it and its routines are scipy's own objects.
    """
    full_name = f"scipy.linalg.{name}"
    if full_name not in sys.modules:
        spec = PathFinder.find_spec(full_name, [f"{d}/linalg" for d in scipy.__path__])
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no module {full_name}")
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full_name] = module
    return sys.modules[full_name]


dsymv = _scipy_linalg_extension("_fblas").dsymv
dpotrf = _scipy_linalg_extension("_flapack").dpotrf
dpotrs = _scipy_linalg_extension("_flapack").dpotrs

PENALTY_KINDS = ("none", "irmv1", "vrex", "groupdro", "moment_match")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    max_iters: int = 10_000
    penalty_kind: str = "none"
    penalty_weight: float = 0.0
    l2_weight: float = 0.0
    tolerance: float = 1e-8
    anneal_schedule: int = 0  # iteration at which the penalty activates

    def __post_init__(self):
        for name, zero_ok in (("learning_rate", False), ("penalty_weight", True),
                              ("l2_weight", True), ("tolerance", False)):
            value = getattr(self, name)
            if not (finite_real(value) and (value >= 0 if zero_ok else value > 0)):
                sign = "nonnegative" if zero_ok else "positive"
                raise TwoEnvError(f"{name} must be a {sign} finite number, not {value!r}")
        # a float anneal iteration would never equal the loop counter
        for name, low in (("max_iters", 1), ("anneal_schedule", 0)):
            value = getattr(self, name)
            if not integer_in(value, low):
                raise TwoEnvError(f"{name} must be an integer in [{low}, 2**53], not {value!r}")
        if self.penalty_kind not in PENALTY_KINDS:
            raise TwoEnvError(f"unknown penalty kind {self.penalty_kind!r}")


def _env_masks(data: LabeledDataset) -> list[slice | np.ndarray]:
    """Row selectors (see :func:`env_rows`) of the environments present, in order 1, 2."""
    selectors = [env_rows(data.env, e) for e in (1, 2)]
    return [rows for rows in selectors if isinstance(rows, slice) or rows.any()]


def penalty_value_and_slope(
    kind: str,
    m: np.ndarray,
    masks: list[slice | np.ndarray],
    *,
    ell: np.ndarray,
    s: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray]:
    """Penalty value and its derivative with respect to the margins.

    ``masks`` select each environment's rows (disjoint slices or boolean
    masks) and together cover every row of ``m``, as :func:`_env_masks`
    gives them: every env tag is 1 or 2, and a penalized kind needs both
    environments.  The caller passes the losses ``ell = log(1 + exp(-m))``
    and sigmoids ``s = sigmoid(-m)`` of the margins, as :func:`_evaluate`
    computes them.  ``out``, if given, receives the derivative in place of
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

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


class _SpanSpace:
    """A run's span coefficients ``beta`` (``w = Z' beta``) and its product with ``K = Z Z'``.

    A w-space step ``w - lr (Z' c + 2 l2 w)`` is the coefficient step
    ``beta - lr (c + 2 l2 beta)``.  ``K`` is stored only when ``d > N``:
    ``dsymv`` reads one triangle of it (exactly symmetric) from the
    Fortran-ordered view ``K.T``, which f2py passes on without a copy.
    Otherwise the product is ``Z (Z' c)`` and ``c' K c`` is ``||Z' c||^2``.
    """

    def __init__(self, Z: np.ndarray):
        n, d = Z.shape
        self.Z = Z
        self.K = Z @ Z.T if d > n else None
        self._c, self._Kc = np.zeros(n), np.zeros(n)
        self._g = np.zeros(d) if self.K is None else None

    def start(self, w0: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and margins of zero, or of ``w0``'s projection on the row span."""
        n = self.Z.shape[0]
        if w0 is None:
            return np.zeros(n), np.zeros(n)
        if self.K is None:
            state = np.linalg.lstsq(self.Z.T, w0, rcond=None)[0]
            return state, self.Z @ (self.Z.T @ state)
        state = np.linalg.lstsq(self.K, self.Z @ w0, rcond=None)[0]
        return state, self.K @ state

    def direction(self, coeff: np.ndarray, ridge: Optional[np.ndarray]):
        """Descent direction ``c``, its margin image ``K c`` and ``c' K c``.

        ``c`` is ``coeff`` itself when there is no ridge; otherwise it and
        ``K c`` live in buffers of this object that the next call overwrites.
        """
        c = coeff if ridge is None else np.add(coeff, ridge, out=self._c)
        if self.K is None:
            g = np.matmul(self.Z.T, c, out=self._g)
            return c, np.matmul(self.Z, g, out=self._Kc), float(g @ g)
        Kc = dsymv(1.0, self.K.T, c, y=self._Kc, overwrite_y=1)
        return c, Kc, float(c @ Kc)


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


def _evaluate(kind: str, masks: list[slice | np.ndarray], l2: float, neg_m: np.ndarray,
              u: np.ndarray, p: _Point, lam: float) -> None:
    """Evaluate the objective at ``p`` with penalty weight ``lam`` into ``p``'s buffers.

    ``neg_m`` and ``u`` are scratch.  ``p.state`` holds span coefficients,
    so the ridge term ``l2 ||w||^2`` is ``l2 beta' K beta = l2 beta . m``.
    The gradient is ``Z' (p.coeff + 2 l2 p.state)``.
    """
    m, ell, s = p.m, p.ell, p.s
    n = m.size
    np.negative(m, out=neg_m)
    np.exp(np.minimum(m, neg_m, out=u), out=u)
    np.log1p(u, out=u)  # u = log1p(exp(-|m|))
    # ell = u + max(-m, 0); s = exp(-(u + max(m, 0))), as min(-m, 0) - u
    np.add(np.maximum(neg_m, 0.0, out=ell), u, out=ell)
    np.exp(np.subtract(np.minimum(neg_m, 0.0, out=s), u, out=s), out=s)
    pen, _ = penalty_value_and_slope(kind if lam else "none", m, masks, ell=ell, s=s, out=p.dm)
    p.total = float(ell.sum()) / n + lam * pen
    if l2:
        p.total += l2 * float(p.state @ m)
    np.divide(s, -float(n), out=p.coeff)  # -s / n
    if lam and kind != "none":
        p.coeff += np.multiply(p.dm, lam, out=p.dm)


def gd_train(
    data: LabeledDataset,
    config: TrainConfig,
    w0: Optional[np.ndarray] = None,
) -> tuple[LinearModel, TrainTrace]:
    """Full-batch gradient descent from zero on the penalized logistic objective.

    The step size starts at ``config.learning_rate`` and is halved whenever
    a step would increase the objective, so the objective is non-increasing
    between penalty-activation boundaries.  Stops when the gradient norm
    falls below ``config.tolerance`` (never before an active penalty switches on),
    when no halved step down to ``2**-60`` of the rate is accepted, or after
    ``max_iters``; ``trace.stop_reason`` says which.

    Every run iterates on span coefficients ``beta`` and returns ``w = Z'
    beta``.  Each accepted step applies ``K = Z Z'`` to the direction once,
    as ``Z (Z' c)`` when ``d <= N`` and by ``dsymv`` on one triangle of the
    stored ``K`` when ``d > N``.  Margins are linear in ``beta``, so a
    candidate's margins are the current ones minus the step times that
    product, and a backtracking halving costs no product.  ``w0``, a 1-d
    array of ``data.d`` finite reals (anything else raises
    :class:`TwoEnvError`), starts the run at its projection on the row
    span: its least-squares coefficients, solved on ``K`` when ``d > N`` and
    on ``Z'`` otherwise.  The rest of ``w0`` moves no margin and is dropped,
    so a run from ``w0`` is the run from its projection.

    The run allocates its buffers once: state, margins, losses, sigmoids,
    penalty slope and objective slope for the current iterate, the same
    for the candidate, swapped when a step is accepted, so no candidate
    allocates.  Each evaluation (:func:`_evaluate`, which :func:`objective_value`
    and :func:`objective_gradient` also run) takes one ``e = exp(-|m|)`` and
    derives from it the losses ``log1p(e) + max(-m, 0)`` and, with one more
    ``exp``, the sigmoids ``exp(-(log1p(e) + max(m, 0)))``; neither form
    overflows or cancels.  It then makes exactly one call to
    :func:`penalty_value_and_slope`, which reads its per-environment slices
    of them and writes the penalty slope into the candidate's buffer; before
    the anneal iteration, where the penalty weight is zero, that call takes
    the ``"none"`` kind.  On a 2-CPU Xeon box with one BLAS thread, at
    N=900, a step costs about 0.23 ms, against 0.16-0.18 ms for ``dsymv``
    (d > N) or 0.15-0.18 ms for ``Z (Z' c)`` at d=320; at N=180 (ridge
    IRMv1) it costs 0.046 ms around a 0.008 ms product.

    The runs on one dataset object share their pre-anneal steps.  The
    penalty weight is zero before the anneal iteration, so every run from
    zero on the same data with the same ``learning_rate``, ``tolerance``,
    ``l2_weight`` and ``anneal_schedule`` takes the same steps up to it,
    whatever its penalty.  The first such run to reach the anneal iteration
    stores a copy of its iterate there (state, margins, losses, sigmoids,
    slopes, objective and step size) in ``data.gd_prefixes`` under those
    four fields; a later one starts from that copy at the anneal iteration.
    The model, ``meta`` and trace are those of a run from zero, bit for bit,
    and ``meta["iters"]`` still counts from zero.  Nothing is stored for a
    run with ``w0``, for an anneal iteration outside ``(0, max_iters)``, or
    when a pre-anneal iterate met the tolerance (a penalty-free run stops
    there, a penalized one does not).
    """
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    masks = _env_masks(data)
    kind = config.penalty_kind
    if kind != "none" and len(masks) < 2:
        raise TwoEnvError(f"penalty {kind!r} needs both environments present")

    if w0 is not None:
        try:
            w0 = np.asarray(w0)
            valid = w0.shape == (data.d,) and w0.dtype.kind in "iuf" and np.isfinite(w0).all()
        except ValueError:  # a ragged nested sequence makes no array
            valid = False
        if not valid:
            raise TwoEnvError(f"w0 must be a 1-d array of {data.d} finite reals")
        w0 = w0.astype(np.float64, copy=False)

    space = _SpanSpace(data.signed())
    cur = _Point(*space.start(w0))
    cand = _Point(np.zeros_like(cur.state), np.zeros_like(cur.m))
    # scratch for one evaluation, shared by both points
    neg_m, u = np.zeros_like(cur.m), np.zeros_like(cur.m)

    l2 = config.l2_weight
    ridge_buf = np.zeros_like(cur.state) if l2 else None
    trace = TrainTrace()
    evaluate = partial(_evaluate, kind, masks, l2, neg_m, u)

    def ridge(st: np.ndarray) -> Optional[np.ndarray]:
        return np.multiply(st, 2.0 * l2, out=ridge_buf) if l2 else None

    # the penalty is off before the anneal iteration; a penalty-free
    # objective never changes there
    anneal = config.anneal_schedule
    penalized = kind != "none" and config.penalty_weight > 0
    min_stop_iter = anneal if penalized else 0
    lr = max_lr = config.learning_rate
    min_step = max_lr * 2.0**-60
    tolerance = config.tolerance
    lam = 0.0 if anneal > 0 else config.penalty_weight

    # the fields that fix the steps before the anneal iteration; None is never stored
    key = (max_lr, tolerance, l2, anneal) if w0 is None and 0 < anneal < config.max_iters else None
    prefix = data.gd_prefixes.get(key)
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
                data.gd_prefixes[key] = (cur.copy(), lr)
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

    w = space.Z.T @ cur.state
    if not w.any():
        raise TwoEnvError("training made no progress from the zero initializer")
    meta = {"iters": it, "grad_norm": gnorm, "stop_reason": trace.stop_reason}
    return LinearModel(w, meta=meta), trace


def _evaluate_at(data: LabeledDataset, config: TrainConfig, w) -> tuple[np.ndarray, _Point]:
    """``Z`` and :func:`gd_train`'s evaluation at a raw ``w``, its ridge term ``l2 w . w``."""
    Z = data.signed()
    w = np.asarray(w, dtype=np.float64)
    p = _Point(w, Z @ w)
    _evaluate(config.penalty_kind, _env_masks(data), 0.0, np.zeros_like(p.m),
              np.zeros_like(p.m), p, config.penalty_weight)
    if config.l2_weight:
        p.total += config.l2_weight * float(w @ w)
    return Z, p


def objective_value(data: LabeledDataset, config: TrainConfig, w: np.ndarray) -> float:
    """The full objective at ``w``, evaluated as :func:`gd_train` evaluates it."""
    return _evaluate_at(data, config, w)[1].total


def objective_gradient(data: LabeledDataset, config: TrainConfig, w: np.ndarray) -> np.ndarray:
    """Analytic gradient ``Z' coeff + 2 l2 w`` of the full objective at ``w``."""
    Z, p = _evaluate_at(data, config, w)
    return Z.T @ p.coeff + 2.0 * config.l2_weight * p.state


# ---------------------------------------------------------------------------
# Hard-margin fitting
# ---------------------------------------------------------------------------


def chol_factor(a: np.ndarray) -> Optional[np.ndarray]:
    """Upper Cholesky factor of ``a``, or None if ``a`` is not positive definite.

    LAPACK ``dpotrf`` as scipy's wrapper calls it, so bitwise its factor,
    without its ~30 us of per-call checks: more than a factor and a solve
    cost below N of about 60.  ``a`` must be finite (callers check once per
    matrix): OpenBLAS reports success on a NaN or inf, and returns NaNs.
    """
    c, info = dpotrf(a, lower=0, clean=0)
    return c if info == 0 else None


def chol_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` from ``c = chol_factor(a)`` by LAPACK ``dpotrs``, bitwise as scipy."""
    return dpotrs(c, b, lower=0)[0]


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
    ``x > 0`` and below it elsewhere, and ``ValueError`` if ``G`` or ``b``
    is not finite.
    """
    if not (np.isfinite(G).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = b.size
    eps = np.finfo(np.float64).eps
    x = np.zeros(n)
    P = np.array(passive, dtype=bool)
    solves = 0

    def solve(min_pivot=0.0):
        nonlocal solves
        solves += 1
        idx = np.flatnonzero(P)
        sub = G.take(idx, 0).take(idx, 1)
        factor = chol_factor(sub)
        if factor is None or np.any(factor.diagonal() ** 2 <= min_pivot * sub.diagonal()):
            return None
        s = np.zeros(n)
        s[idx] = chol_solve(factor, b[idx])
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

    The program is solved on ``Zs = Z 2**-e`` for ``e = binary_exponent(Z)``,
    an exact scaling, with ``K = Zs Zs'``: ``K`` neither underflows nor
    overflows at any scale of ``Z``, and every step takes the bits it takes
    on ``Z`` wherever ``Z Z'`` is in range.  ``min ||v|| s.t. Zs v >= 1`` is
    the least-distance program ``min_{u>=0} ||[Zs'; 1'] u - e_{k+1}||``,
    solved by :func:`nnls` for ``Zs`` over its largest row norm (same
    separators) from every row, the answer in the support-vector
    proliferation regime; ``v = Zs'u / (1 - 1'u)``.  ``alpha`` is ``u``
    scaled so that the margins of ``Zs' alpha`` on ``Zs`` have minimum
    ``1 + 1e-12``; the separator for ``Z`` is ``2**-e Zs' alpha``, that is
    ``4**-e Z' alpha``.  ``info`` holds ``exp`` (that is ``e``), the duality
    ``gap`` of the program on ``Zs`` and the passive-set solves as
    ``iterations``.  With ``u~ = u / 1'u``, every unit-norm ``w`` has minimum
    margin on ``Z`` at most ``||Z'u~||``; :class:`NonSeparableError` carries
    the witness ``u~`` and that bound when it is at most ``WITNESS_RTOL
    max_i ||z_i||``.
    """
    exp = binary_exponent(Z)
    Z = np.ldexp(Z, -exp)
    K = Z @ Z.T
    n = len(Z)
    rho2 = float(K.diagonal().max()) or 1.0  # all-zero rows: any witness is exact
    u, solves = nnls(K / rho2 + 1.0, np.ones(n), np.ones(n, dtype=bool))
    witness = u / float(u.sum())
    bound = float(np.linalg.norm(Z.T @ witness))
    if bound <= WITNESS_RTOL * math.sqrt(rho2):
        raise NonSeparableError("data is not linearly separable", int(np.argmax(witness)),
                                math.ldexp(bound, exp), witness)
    alpha = u / rho2  # multipliers for Zs itself, minimum margin 1 - 1'u < 1
    # scale to a computed minimum margin of 1 + 1e-12, again where heavily
    # cancelling margins round below it
    while (low := float((Z @ (Z.T @ alpha)).min())) < 1.0:
        if low <= 0.0:
            raise TwoEnvError("hard-margin solve returned no separating direction")
        alpha = alpha * ((1.0 + 1e-12) / low)
    gap = float(alpha @ (K @ alpha)) - float(alpha.sum())  # a'Ka/2 - (1'a - a'Ka/2)
    return alpha, {"exp": exp, "gap": gap, "iterations": solves}


def max_margin(data: LabeledDataset) -> LinearModel:
    """Minimum-norm separator with unit margins, via :func:`hard_margin_dual`."""
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    Z = data.signed()
    alpha, info = hard_margin_dual(Z)
    w = np.ldexp(Z.T @ alpha, -2 * info["exp"])
    return LinearModel(w, meta={"gap": info["gap"], "iterations": info["iterations"]})


def cosine_similarity(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise TwoEnvError("cosine undefined for zero vectors")
    return float(u @ v / (nu * nv))


# the ridge levels of irm_margin_alignment's warm-started route, largest first
RIDGE_SCHEDULE = (1e-1, 1e-2, 1e-3)


def irm_margin_alignment(data: LabeledDataset, config: TrainConfig) -> float:
    """Cosine of the ridge-path direction against the hard-margin separator.

    The direction is the minimizer at the last level of a decaying ridge
    schedule, each level warm-started from the one before.  Non-separable
    inputs propagate :class:`NonSeparableError`.
    """
    svm = max_margin(data)
    w_warm = None
    for lam2 in RIDGE_SCHEDULE:
        cfg = replace(config, penalty_kind="irmv1", l2_weight=lam2)
        model, _ = gd_train(data, cfg, w0=w_warm)
        w_warm = model.w
    return cosine_similarity(w_warm, svm.w)
