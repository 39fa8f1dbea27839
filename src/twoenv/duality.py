"""Margin-constrained convex program, its Lagrangian dual, and event checks.

Everything lives in the N-dimensional span of the label-signed samples
``z_i = y_i x_i``, and a draw enters only through its Gram matrix ``K = Z Z'``
and weight vector ``u = e_1 + theta_2 e_2`` (:class:`GramData`).  The primal is

    minimize  u' beta
    s.t.      K beta >= gamma * 1      (margin constraints)
              beta' K beta <= 1        (norm constraint)

and its dual, after eliminating the norm multiplier, is

    g(lambda) = gamma * 1'lambda - sqrt((u - K lambda)' K^{-1} (u - K lambda))

over ``lambda >= 0``.  ``g`` lower-bounds the primal for every admissible
``lambda`` (weak duality); the solver certifies optimality by closing the
gap between a feasible primal point and ``g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (IllConditionedGramError, InfeasibleMarginError, TwoEnvError, finite_real,
                     integer_in)
from .metrics import _quotient
from .model import LabeledDataset, ProblemInstance, _check_radii
from .training import chol_factor, chol_solve, nnls

MIN_EIG = 0.25  # half the spectral floor the concentration regime guarantees


def _real(name: str, value, low: float, high: float = math.inf) -> float:
    """``value`` as a float if it is a finite real in [low, high], else a TwoEnvError naming it."""
    if not (finite_real(value) and low <= value <= high):
        raise TwoEnvError(f"{name} must be a finite real in [{low}, {high}], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class GramData:
    """The program's parameters: the Gram ``K = Z Z'``, the weights ``u`` and the margin.

    ``gamma`` is a nonnegative finite real, and ``weights`` holds one finite
    real per row of the square ``gram``; both arrays are kept as float64.
    The Gram's conditioning check and Cholesky factor (:attr:`cho`) are
    computed once, on first use.
    """

    gram: np.ndarray
    weights: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _real("gamma", self.gamma, 0.0))
        try:
            gram, weights = np.asarray(self.gram), np.asarray(self.weights)
            valid = (weights.ndim == 1 and gram.shape == 2 * weights.shape
                     and gram.dtype.kind in "iuf" and weights.dtype.kind in "iuf"
                     and np.isfinite(weights).all())
        except ValueError:  # a ragged nested sequence makes no array
            valid = False
        if not valid:
            raise TwoEnvError("weights must be finite reals, one per row of a square gram")
        object.__setattr__(self, "gram", gram.astype(np.float64, copy=False))
        object.__setattr__(self, "weights", weights.astype(np.float64, copy=False))

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def cho(self):
        """Cholesky factor of the Gram, after :func:`_check_conditioning`."""
        _check_conditioning(self.gram)
        factor = chol_factor(self.gram)
        if factor is None:
            raise np.linalg.LinAlgError("gram matrix is not positive definite")
        return factor


def gram_from_dataset(data: LabeledDataset, gamma: float, theta_2: float) -> GramData:
    """The program on a dataset: ``K = Z Z'`` and ``u = e_1 + theta_2 e_2``, where
    ``e_k`` indicates the rows of environment ``k`` (a tag other than 1 is 2), and
    ``theta_2`` is a number in [-1, 1]."""
    theta_2 = _real("theta_2", theta_2, -1.0, 1.0)
    Z = data.signed()
    return GramData(Z @ Z.T, np.where(data.env == 1, 1.0, theta_2), gamma)


def _certify_spectrum(A: np.ndarray, lo: float, hi: float) -> bool:
    """True when Cholesky factors place every eigenvalue of symmetric ``A`` in ``[lo, hi]``.

    ``A`` must be finite (``dpotrf`` reports success on a NaN; a finite
    ``||A||_F`` shows it, and an overflowing one only forgoes the
    certificate), and ``A - (lo + tau) I`` and ``(hi - tau) I - A`` must
    both have a :func:`chol_factor`; a side whose bound is infinite is
    skipped.  False means "not certified", not "outside": the caller then
    decides on the spectrum.  The margin ``tau = 8 n^2 eps (||A||_F +
    |bound|)`` covers round-off at both ends.  A computed factor of ``B``
    is exact for ``B + dB`` with ``||dB||_2 <= n gamma_{n+1} ||B||_2``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 10.3), and forming ``B`` rounds its diagonal by ``eps (|a_ii| +
    |bound|)``; so a factor proves the extreme eigenvalue beyond its bound
    by at least ``5 n^2 eps (||A||_F + |bound|)``.  ``eigvalsh`` is
    backward stable: its eigenvalues lie within a small multiple of ``n
    eps ||A||_2`` of the exact ones (LAPACK Users' Guide, sec. 4.7), which
    is less.  So a certified ``A`` passes the eigenvalue rule too: the
    verdict is always that rule's, and a spectrum is needed only outside
    the bounds or within a few ``tau`` of one.
    """
    norm = math.sqrt(float(np.vdot(A, A)))  # not finite when an entry of A is not
    if not (math.isfinite(norm) and lo <= hi):  # nor is a NaN bound certified
        return False
    n = len(A)
    margin = 8.0 * n * n * np.finfo(np.float64).eps
    diagonal = slice(None, None, n + 1)
    if lo != -math.inf:
        B = A.copy()
        B.flat[diagonal] -= lo + margin * (norm + abs(lo))
        if chol_factor(B) is None:
            return False
    if hi != math.inf:
        B = -A
        B.flat[diagonal] += hi - margin * (norm + abs(hi))
        if chol_factor(B) is None:
            return False
    return True


def _spectrum_ends(A: np.ndarray, lo: float, hi: float) -> tuple[float, float] | None:
    """None when every eigenvalue of symmetric ``A`` lies in ``[lo, hi]``, else the
    smallest and the largest.  :func:`_certify_spectrum` settles the common case and
    ``eigvalsh`` the rest; a non-finite ``A`` (on which ``eigvalsh`` returns NaN or
    raises) fails with NaN ends, and so would a NaN spectrum."""
    if _certify_spectrum(A, lo, hi):
        return None
    if not np.isfinite(A).all():
        return math.nan, math.nan
    evals = np.linalg.eigvalsh(A)
    return None if lo <= evals[0] and evals[-1] <= hi else (evals[0], evals[-1])


def _spectrum_within(A: np.ndarray, lo: float, hi: float) -> bool:
    """True when every eigenvalue of symmetric ``A`` lies in ``[lo, hi]``."""
    return _spectrum_ends(A, lo, hi) is None


def _check_conditioning(K: np.ndarray) -> None:
    """Raise :class:`IllConditionedGramError` if ``K`` has an eigenvalue below ``MIN_EIG``,
    by :func:`_spectrum_within`'s rule: a pass also makes ``K`` finite for :func:`chol_factor`.
    """
    if (ends := _spectrum_ends(K, MIN_EIG, math.inf)) is not None:
        raise IllConditionedGramError(
            f"smallest gram eigenvalue {ends[0]:.3e} below threshold {MIN_EIG}"
        )


def dual_value(gd: GramData, lam: np.ndarray) -> float:
    """Evaluate the dual function at an admissible multiplier vector."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (gd.n,):
        raise TwoEnvError("lambda has wrong length")
    if not (np.isfinite(lam).all() and (lam >= 0).all()):
        raise TwoEnvError("lambda must be nonnegative and finite")
    resid = gd.weights - gd.gram @ lam
    quad = float(resid @ chol_solve(gd.cho, resid))
    return gd.gamma * float(lam.sum()) - math.sqrt(max(quad, 0.0))


def canonical_lambda(env: np.ndarray, r_c: float, r_s: float) -> np.ndarray:
    """The analysis' dual point on rows tagged ``env``: ``alpha`` on environment 1
    and 0 on environment 2, with ``alpha = 1 / (1 + N_1 (r_c^2 + r_s^2))``.  The
    radii are positive finite reals, at a scale where that denominator is a normal float."""
    _check_radii(r_c=r_c, r_s=r_s)
    in_1 = env == 1
    try:
        den = 1.0 + float(in_1.sum()) * (float(r_c) ** 2 + float(r_s) ** 2)
    except OverflowError:  # a squared radius beyond the float range
        den = math.inf
    return np.where(in_1, _quotient(1.0, den, "alpha"), 0.0)


def closed_form_bound(
    n_1: int, n_2: int, gamma: float, theta_2: float, r_c: float, d: int, t: float
) -> float:
    """Arithmetic lower bound on the weighted span coefficients.

    Exactly
    ``((N1 + [th2]+ N2) g - sqrt(2 N2) N1 rc^2 - sqrt(18 N)(sqrt(N)+t)/sqrt(d)
    - sqrt(8 N2) [-th2]+) / 2``, for sizes in [1, 2**53], an integer ``d >= 1``, finite reals
    ``gamma, t >= 0`` and ``r_c > 0``, ``theta_2`` in [-1, 1], and a finite result.
    """
    for name, size, high in (("n_1", n_1, 2**53), ("n_2", n_2, 2**53), ("d", d, math.inf)):
        if not integer_in(size, 1, high):  # d, in a square root only, may pass 2**53
            raise TwoEnvError(f"{name} must be an integer in [1, {high}], got {size!r}")
    gamma = _real("gamma", gamma, 0.0)
    theta_2 = _real("theta_2", theta_2, -1.0, 1.0)
    t = _real("t", t, 0.0)
    _check_radii(r_c=r_c)
    n_1, n_2, d, r_c = int(n_1), int(n_2), int(d), float(r_c)
    n = n_1 + n_2
    try:
        bound = 0.5 * (
            (n_1 + max(theta_2, 0.0) * n_2) * gamma
            - math.sqrt(2.0 * n_2) * n_1 * r_c**2
            - math.sqrt(18.0 * n) * (math.sqrt(n) + t) / math.sqrt(d)
            - math.sqrt(8.0 * n_2) * max(-theta_2, 0.0)
        )
    except OverflowError:  # r_c^2 or d beyond the float range
        bound = math.nan
    if not math.isfinite(bound):
        raise TwoEnvError(f"closed_form_bound overflows at gamma={gamma!r}, r_c={r_c!r}, "
                          f"d={d!r}, t={t!r}")
    return bound


# ---------------------------------------------------------------------------
# Primal solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinWeightedBetaResult:
    optimum: float
    beta: np.ndarray
    dual_lambda: np.ndarray
    dual_value: float
    gap: float
    iterations: int
    exact: bool  # KKT point certified by the active-set solve; always True on return


def _norm_multiplier(K, q_u, u, gamma, active):
    """Norm multiplier that puts ``beta`` on the unit ellipsoid, or None.

    With ``lambda`` supported on ``active`` and ``K_AA lambda_A = u_A + nu
    gamma 1``, stationarity gives ``beta = (lambda - K^{-1}u)/nu = (P + nu
    Q)/nu``, and ``beta'K beta = 1`` reads ``a nu^2 + b nu + c = 0`` with
    ``a = Q'KQ - 1 < 0`` (else the active set's vertex lies outside the
    ellipsoid: None) and ``c = P'KP >= 0``, so one root is nonnegative.
    """
    idx = np.flatnonzero(active)
    P = -q_u
    Q = np.zeros_like(q_u)
    if idx.size:
        factor = chol_factor(K.take(idx, 0).take(idx, 1))
        if factor is None:
            raise np.linalg.LinAlgError("active block of the gram is not positive definite")
        P[idx] += chol_solve(factor, u[idx])
        Q[idx] = gamma * chol_solve(factor, np.ones(idx.size))
    KQ = K @ Q
    a = float(Q @ KQ) - 1.0
    b = 2.0 * float(P @ KQ)
    c = float(P @ (K @ P))
    if a >= 0.0:
        return None
    nu = (b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (-2.0 * a)
    return nu if nu > 0.0 else None


CERT_RTOL = 1e-9  # round-off allowance of min_weighted_beta's certificate


def min_weighted_beta(gd: GramData) -> MinWeightedBetaResult:
    """Solve the margin-constrained program exactly, with a KKT certificate.

    Each round takes the margin multipliers ``lambda = nnls(K, u + nu gamma
    1)`` at a fixed norm multiplier ``nu``, warm-started from the previous
    active set, then ``nu`` from :func:`_norm_multiplier` on the new active
    set (computed once per set; halved when that gives None).  Rounds start
    at ``nu = sqrt(u'K^{-1}u)``, the optimum without margin constraints, and
    stop when the active set and ``nu`` repeat; ``beta = (lambda -
    K^{-1}u)/nu`` and ``iterations`` counts the rounds.  Before return, the
    margins, the norm and ``gap`` (primal minus :func:`dual_value` at
    ``lambda``) are checked to ``CERT_RTOL``, else :class:`TwoEnvError`.  A
    norm-inactive optimum (the all-margins vertex) is returned directly.
    The program is feasible when that vertex lies in the unit ellipsoid;
    only otherwise is ``gamma`` checked against the largest margin
    ``1 / sqrt(lambda'K lambda)``, ``lambda = nnls(K, 1)`` being the
    minimum-norm point of ``K beta >= 1``, and :class:`InfeasibleMarginError`
    raised above it.  Both tests take their point at margin 1 and scale by
    ``gamma``, so no large finite ``gamma`` overflows a norm.
    """
    K, u, gamma, n, cho = gd.gram, gd.weights, gd.gamma, gd.n, gd.cho
    ones = np.ones(n)

    # feasibility: the equal-margin vertex K beta = gamma 1 inside the unit
    # ellipsoid is a feasible point; else the minimum-norm point of K beta >= 1,
    # the NNLS solution lambda, scaled to unit norm has the largest margin
    beta_unit = chol_solve(cho, ones)
    vertex_norm_sq = gamma * gamma * float(beta_unit @ (K @ beta_unit))  # inf, not a warning
    if not vertex_norm_sq <= 1.0:  # a NaN proves nothing
        lam, _ = nnls(K, ones, np.ones(n, dtype=bool))
        gamma_max = 1.0 / math.sqrt(lam @ (K @ lam))
        if gamma > gamma_max:
            raise InfeasibleMarginError(
                f"target margin {gamma} exceeds achievable margin {gamma_max:.6g}"
            )

    q_u = chol_solve(cho, u)

    # norm-inactive exact case: every multiplier from K^{-1}u admissible
    if np.all(q_u >= -1e-12) and vertex_norm_sq <= 1.0 + 1e-12:
        lam = np.maximum(q_u, 0.0)
        value = gamma * float(lam.sum())
        return MinWeightedBetaResult(value, gamma * beta_unit, lam, value, 0.0, 0, True)

    nu = math.sqrt(float(u @ q_u))
    active = np.ones(n, dtype=bool)
    multipliers = {}  # _norm_multiplier by active set: the rounds revisit sets
    for rounds in range(1, 4 * n + 5):
        lam, _ = nnls(K, u + nu * gamma * ones, active)
        new_active = lam > 0.0
        key = new_active.tobytes()
        if key not in multipliers:
            multipliers[key] = _norm_multiplier(K, q_u, u, gamma, new_active)
        new_nu = multipliers[key] or 0.5 * nu
        if new_nu == nu and np.array_equal(new_active, active):
            break
        active, nu = new_active, new_nu
    else:
        raise TwoEnvError("margin program: active set did not settle")

    beta = (lam - q_u) / nu
    value = float(u @ beta)
    dual = dual_value(gd, lam)
    gap = value - dual
    margins = K @ beta
    if (
        margins.min() < gamma - CERT_RTOL * max(1.0, gamma)
        or float(beta @ margins) > 1.0 + CERT_RTOL
        or abs(gap) > CERT_RTOL * max(1.0, abs(value))
    ):
        raise TwoEnvError(f"solver failed to certify a solution (gap {gap:.3e})")
    return MinWeightedBetaResult(value, beta, lam, dual, gap, rounds, True)


# ---------------------------------------------------------------------------
# Concentration events
# ---------------------------------------------------------------------------


class SpectralEventReport(NamedTuple):
    """Verdicts of the high-probability events on one draw; ``all(report)`` joins them."""

    sval_ok: bool
    g_mu_c_ok: bool
    g_mu_s_ok: bool
    gram_dev_ok: bool
    gram_bounds_ok: bool


def check_spectral_events(
    inst: ProblemInstance, data: LabeledDataset, t: float
) -> SpectralEventReport:
    """Check the singular-value, alignment and Gram events on a draw of ``inst``.

    Every quantity is normalized by ``scale = sigma * sqrt(d)``, so the
    stated bounds apply for any noise scale: the rows ``Zn = Z / scale``,
    the row means ``Mn = (1 mu_c' + theta mu_s') / scale`` (``theta_e`` on
    the rows of environment ``e``) and the noise ``Gn = Zn - Mn``.  Each
    event reads the Gram its definition names, formed by one product: the
    noise Gram ``Gn Gn'``, the sample Gram ``Zn Zn'`` and its mean part
    ``Mn Mn'``.  None assumes that the means are orthogonal.
    ``d`` is the data's ambient dimension, so a reduced draw takes the same
    path exactly.  Each spectral event is one :func:`_spectrum_within` call.
    """
    n, d = data.n, data.ambient_d
    theta_vec = np.where(data.env == 1, inst.theta_1, inst.theta_2).astype(np.float64)
    scale = inst.sigma * math.sqrt(d)
    Zn = data.signed() / scale
    Mn = (inst.mu_c + np.outer(theta_vec, inst.mu_s)) / scale
    Gn = Zn - Mn
    sample_gram = Zn @ Zn.T
    half_width = (math.sqrt(n) + t) / math.sqrt(d)
    lo, hi = 1.0 - half_width, 1.0 + half_width
    dev = 3.0 * (math.sqrt(n) + t) / math.sqrt(d)
    alignment = t * math.sqrt(n / d)

    return SpectralEventReport(
        sval_ok=_spectrum_within(Gn @ Gn.T, lo * lo if lo > 0 else -math.inf, hi * hi),
        g_mu_c_ok=bool(np.linalg.norm(Gn @ inst.mu_c) <= alignment * inst.r_c),
        g_mu_s_ok=bool(np.linalg.norm(Gn @ inst.mu_s) <= alignment * inst.r_s),
        gram_dev_ok=_spectrum_within(sample_gram - (np.eye(n) + Mn @ Mn.T), -dev, dev),
        gram_bounds_ok=_spectrum_within(sample_gram, 0.5, 2.0),
    )
