"""Margin-constrained convex program, its Lagrangian dual, and event checks.

Everything lives in the N-dimensional span of the label-signed samples
``z_i = y_i x_i``: with Gram matrix ``K = Z Z'`` and weight vector
``u = e_1 + theta_2 e_2``, the primal is

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IllConditionedGramError, InfeasibleMarginError, TwoEnvError
from .model import LabeledDataset, ProblemInstance
from .training import chol_factor, chol_solve, hard_margin_dual, nnls

MIN_EIG = 0.25  # half the spectral floor the concentration regime guarantees


@dataclass(frozen=True)
class GramData:
    """Span-space view of a dataset plus the program parameters.

    ``env`` tags each row of ``Z`` with its environment; a row whose tag
    is not 1 belongs to environment 2.  The Gram matrix ``gram = Z Z'`` is
    derived from ``Z`` on construction, so it always matches it; its
    conditioning check and Cholesky factor (:attr:`cho`) are computed once,
    on first use.
    """

    Z: np.ndarray
    env: np.ndarray
    gamma: float
    theta_2: float
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gram", self.Z @ self.Z.T)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.where(self.env == 1, 1.0, self.theta_2)

    @cached_property
    def cho(self):
        """Cholesky factor of the Gram, after :func:`_check_conditioning`."""
        _check_conditioning(self.gram)
        factor = chol_factor(self.gram)
        if factor is None:
            raise np.linalg.LinAlgError("gram matrix is not positive definite")
        return factor


def gram_from_dataset(data: LabeledDataset, gamma: float, theta_2: float) -> GramData:
    return GramData(Z=data.signed(), env=data.env, gamma=gamma, theta_2=theta_2)


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


def canonical_lambda(gd: GramData, r_c: float, r_s: float) -> np.ndarray:
    """The analysis' dual point: ``alpha`` on environment 1 and 0 on
    environment 2, with ``alpha = 1 / (1 + N_1 (r_c^2 + r_s^2))``."""
    in_1 = gd.env == 1
    alpha = 1.0 / (1.0 + float(in_1.sum()) * (r_c**2 + r_s**2))
    return np.where(in_1, alpha, 0.0)


def closed_form_bound(
    n_1: int, n_2: int, gamma: float, theta_2: float, r_c: float, d: int, t: float
) -> float:
    """Arithmetic lower bound on the weighted span coefficients.

    Exactly
    ``((N1 + [th2]+ N2) g - sqrt(2 N2) N1 rc^2 - sqrt(18 N)(sqrt(N)+t)/sqrt(d)
    - sqrt(8 N2) [-th2]+) / 2``.
    """
    n = n_1 + n_2
    pos = max(theta_2, 0.0)
    neg = max(-theta_2, 0.0)
    return 0.5 * (
        (n_1 + pos * n_2) * gamma
        - math.sqrt(2.0 * n_2) * n_1 * r_c**2
        - math.sqrt(18.0 * n) * (math.sqrt(n) + t) / math.sqrt(d)
        - math.sqrt(8.0 * n_2) * neg
    )


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
    only otherwise is ``gamma`` checked against the hard-margin fit's
    margin, and :class:`InfeasibleMarginError` raised above it.
    """
    K = gd.gram
    u = gd.weights
    gamma = gd.gamma
    n = gd.n
    cho = gd.cho
    ones = np.ones(n)

    # feasibility: the equal-margin vertex K beta = gamma 1 inside the unit
    # ellipsoid is a feasible point; else the hard-margin direction achieves
    # the largest margin
    beta_vertex = gamma * chol_solve(cho, ones)
    vertex_norm_sq = float(beta_vertex @ (K @ beta_vertex))
    if not vertex_norm_sq <= 1.0:  # a NaN proves nothing
        # multipliers for Z up to a power of two, which the ratio below cancels
        mm_alpha, _ = hard_margin_dual(gd.Z)
        gamma_max = float((K @ mm_alpha).min()) / math.sqrt(float(mm_alpha @ (K @ mm_alpha)))
        if gamma > gamma_max:
            raise InfeasibleMarginError(
                f"target margin {gamma} exceeds achievable margin {gamma_max:.6g}"
            )

    q_u = chol_solve(cho, u)

    # norm-inactive exact case: every multiplier from K^{-1}u admissible
    if np.all(q_u >= -1e-12) and vertex_norm_sq <= 1.0 + 1e-12:
        lam = np.maximum(q_u, 0.0)
        value = gamma * float(lam.sum())
        return MinWeightedBetaResult(
            optimum=value,
            beta=beta_vertex,
            dual_lambda=lam,
            dual_value=value,
            gap=0.0,
            iterations=0,
            exact=True,
        )

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

    The noise matrix is reconstructed from the known means:
    ``G = Z - 1 mu_c' - (theta_1 e_1 + theta_2 e_2) mu_s'``.  With
    ``Z = G + M`` and rank-2 ``M``, the sample gram expands as
    ``GG' + GM' + MG' + MM'``, so a single N-by-d product plus two
    matrix-vector products covers every event.  ``d`` is the data's
    ambient dimension, so a reduced draw is checked exactly too.  Every
    noise-matrix quantity is normalized by ``sigma * sqrt(d)``, so the
    stated bounds apply for any noise scale; each spectral event is one
    :func:`_spectrum_within` call.
    """
    Z = data.signed()
    n, d = data.n, data.ambient_d
    mu_c, mu_s = inst.mu_c, inst.mu_s
    theta_vec = np.where(data.env == 1, inst.theta_1, inst.theta_2).astype(np.float64)
    scale = inst.sigma * math.sqrt(d)
    Gn = Z - theta_vec[:, None] * mu_s[None, :]
    Gn -= mu_c[None, :]
    Gn /= scale

    noise_gram = Gn @ Gn.T
    half_width = (math.sqrt(n) + t) / math.sqrt(d)
    lo, hi = 1.0 - half_width, 1.0 + half_width

    r_c, r_s = inst.r_c, inst.r_s
    gn_mu_c = Gn @ mu_c
    gn_mu_s = Gn @ mu_s

    # Zn Zn' assembled from the pieces above; mu_c and mu_s are orthogonal
    ones = np.ones(n)
    cross = (
        np.outer(gn_mu_c, ones) + np.outer(gn_mu_s, theta_vec)
    ) / scale
    mean_gram = (
        r_c**2 * np.outer(ones, ones) + r_s**2 * np.outer(theta_vec, theta_vec)
    ) / scale**2
    sample_gram = noise_gram + cross + cross.T + mean_gram
    dev = 3.0 * (math.sqrt(n) + t) / math.sqrt(d)

    return SpectralEventReport(
        sval_ok=_spectrum_within(noise_gram, lo * lo if lo > 0 else -math.inf, hi * hi),
        g_mu_c_ok=bool(np.linalg.norm(gn_mu_c) <= t * math.sqrt(n / d) * r_c),
        g_mu_s_ok=bool(np.linalg.norm(gn_mu_s) <= t * math.sqrt(n / d) * r_s),
        gram_dev_ok=_spectrum_within(sample_gram - (np.eye(n) + mean_gram), -dev, dev),
        gram_bounds_ok=_spectrum_within(sample_gram, 0.5, 2.0),
    )
