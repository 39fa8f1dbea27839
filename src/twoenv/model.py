"""Generative model: mixture environments, problem instances, sampling.

Data is drawn from a label-balanced Gaussian mixture in ``R^d``.  A point
with label ``y`` in an environment with spurious coefficient ``theta`` has
mean ``y * (mu_c + theta * mu_s)`` and isotropic noise of scale ``sigma``.
The core direction ``mu_c`` and the spurious direction ``mu_s`` are
orthogonal and shared across environments; only ``theta`` differs.
Learners and metrics see a sample only through its signed rows ``z_i = y_i x_i``,
so a :class:`LabeledDataset` stores those alone, signed here once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TwoEnvError, finite_real, integer_in
from .rng import SEED_LIMIT

ORTHO_RTOL = 1e-9
NOISE_BLOCK_ROWS = 64  # rows of sample_reduced's noise block drawn per call


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _check_sizes(*sizes) -> None:
    for n in sizes:
        if not integer_in(n, 1):
            raise TwoEnvError(f"sample sizes must be integers in [1, 2**53], got {n!r}")


def _check_radii(r_c: float, r_s: float) -> None:
    for name, r in (("r_c", r_c), ("r_s", r_s)):
        if not (finite_real(r) and r > 0):
            raise TwoEnvError(f"radii must be positive and finite, got {name}={r!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """A learning problem: two environments sharing everything but theta.

    Environment ``e`` has ``n_e`` rows and spurious coefficient ``theta_e``.
    Construction checks each shared part once: finite, nonzero, orthogonal 1-d
    means of equal length, a positive finite ``sigma``, thetas in [-1, 1], a seed.
    """

    mu_c: np.ndarray
    mu_s: np.ndarray
    theta_1: float
    theta_2: float
    n_1: int
    n_2: int
    sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "mu_c", _freeze(self.mu_c))
        object.__setattr__(self, "mu_s", _freeze(self.mu_s))
        mu_c, mu_s = self.mu_c, self.mu_s
        # each check is written so that NaN fails it
        if mu_c.ndim != 1 or mu_c.shape != mu_s.shape:
            raise TwoEnvError("mu_c and mu_s must be 1-d vectors of equal length")
        _check_sizes(self.n_1, self.n_2)
        if not integer_in(self.seed, 0, SEED_LIMIT - 1):  # the rule of rng.stream
            raise TwoEnvError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (np.isfinite(mu_c).all() and np.isfinite(mu_s).all()):
            raise TwoEnvError("mean directions must be finite")
        # entries, not norms: the norm of a vector of radius 1e-300 underflows to 0
        if not (mu_c.any() and mu_s.any()):
            raise TwoEnvError("mean directions must be nonzero")
        if not abs(float(mu_c @ mu_s)) <= ORTHO_RTOL * self.r_c * self.r_s:
            raise TwoEnvError("mu_c and mu_s must be orthogonal")
        if not (finite_real(self.sigma) and self.sigma > 0):
            raise TwoEnvError(f"sigma must be positive and finite, got {self.sigma!r}")
        for theta in (self.theta_1, self.theta_2):
            if not (finite_real(theta) and -1.0 <= theta <= 1.0):
                raise TwoEnvError(f"theta must be a number in [-1, 1], got {theta!r}")

    @property
    def d(self) -> int:
        return self.mu_c.shape[0]

    @property
    def n(self) -> int:
        return self.n_1 + self.n_2

    @cached_property
    def r_c(self) -> float:
        return vector_norm(self.mu_c)

    @cached_property
    def r_s(self) -> float:
        return vector_norm(self.mu_s)


@dataclass(frozen=True, init=False)
class LabeledDataset:
    """Signed rows ``z_i = y_i x_i``, labels in {-1,+1} and environment tags in {1,2}.

    The signed rows are the one matrix stored: the constructor signs the
    rows ``X`` once, :meth:`from_signed` keeps rows signed already, and
    ``X`` is derived on each read, bitwise the input (negation is exact).
    ``ambient_d`` is the dimension of the space the rows were drawn in.  It
    defaults to the column count ``d``; a reduced draw (see
    :func:`sample_reduced`) stores fewer columns than its ambient dimension.
    """

    _Z: np.ndarray
    y: np.ndarray
    env: np.ndarray
    ambient_d: int

    def __init__(self, X, y, env, ambient_d: int | None = None, *, _signed: bool = False):
        rows = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        env = np.asarray(env, dtype=np.int64)
        if rows.ndim != 2:
            raise TwoEnvError("X must be a 2-d matrix")
        if ambient_d is None:
            ambient_d = rows.shape[1]
        elif not integer_in(ambient_d, rows.shape[1]):
            raise TwoEnvError(f"ambient_d must be an integer from the column count "
                              f"{rows.shape[1]} to 2**53, got {ambient_d!r}")
        if rows.shape[0] != y.shape[0] or rows.shape[0] != env.shape[0]:
            raise TwoEnvError("X, y and env must have matching row counts")
        if not ((y == 1) | (y == -1)).all():
            raise TwoEnvError("labels must be -1 or +1")
        if not ((env == 1) | (env == 2)).all():
            raise TwoEnvError("environment tags must be 1 or 2")
        for name, a in (("_Z", rows if _signed else y[:, None] * rows), ("y", y), ("env", env)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "ambient_d", int(ambient_d))

    @classmethod
    def from_signed(cls, Z, y, env, ambient_d: int | None = None) -> "LabeledDataset":
        """A dataset whose signed rows are ``Z``, kept without a copy."""
        return cls(Z, y, env, ambient_d, _signed=True)

    @property
    def n(self) -> int:
        return self._Z.shape[0]

    @property
    def d(self) -> int:
        return self._Z.shape[1]

    @property
    def X(self) -> np.ndarray:
        """Unsigned rows ``x_i = y_i z_i``, computed afresh on each read."""
        return _freeze(self.y[:, None] * self._Z)

    def signed(self) -> np.ndarray:
        """Label-signed sample matrix: row i is ``y_i * x_i``.  Stored, not copied."""
        return self._Z

    @cached_property
    def gd_prefixes(self) -> dict:
        """Pre-anneal iterates of :func:`twoenv.training.gd_train` runs on this object alone."""
        return {}

    def restrict(self, mask: np.ndarray) -> "LabeledDataset":
        return self.from_signed(self._Z[mask], self.y[mask], self.env[mask], self.ambient_d)

    def by_env(self, env: int) -> "LabeledDataset":
        """The rows of environment ``env`` (see :func:`env_rows`): a view of the
        stored rows when they form one block, as every sampler emits them,
        and otherwise a copy."""
        rows = env_rows(self.env, env)
        return self.from_signed(self._Z[rows], self.y[rows], self.env[rows], self.ambient_d)


def env_rows(env: np.ndarray, e: int) -> slice | np.ndarray:
    """Selector of the rows tagged ``e``: a basic slice when they form one
    contiguous block, so that indexing with it takes a view, and otherwise
    the boolean mask ``env == e``, whose indexing copies."""
    mask = env == e
    rows = np.flatnonzero(mask)
    if rows.size and rows[-1] - rows[0] + 1 == rows.size:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return mask


def pool(*parts: LabeledDataset) -> LabeledDataset:
    """Concatenate datasets, preserving row order within each part."""
    dims = sorted({p.ambient_d for p in parts})
    if len(dims) > 1:
        raise TwoEnvError(f"cannot pool datasets of different ambient dimensions {dims}")
    return LabeledDataset.from_signed(
        np.concatenate([p._Z for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.env for p in parts]),
        parts[0].ambient_d,
    )


@dataclass(frozen=True)
class LinearModel:
    """Homogeneous linear classifier ``x -> sign(<w, x>)``; no intercept.

    Derived scalars are computed on first use and cached; the weight
    vector itself is immutable.
    """

    w: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w", _freeze(self.w))
        if self.w.ndim != 1:
            raise TwoEnvError("w must be a 1-d vector")
        if not np.all(np.isfinite(self.w)):
            raise TwoEnvError("w must be finite")
        if not self.w.any():
            raise TwoEnvError("zero-norm model rejected")

    @cached_property
    def scaled(self) -> tuple[np.ndarray, int, float]:
        """``(v, e, ||v||)`` for ``v = w 2**-e`` and ``e = binary_exponent(w)``.
        The scale-free metrics take their products on ``v``: they are in range
        at any scale of ``w``, and bitwise those on ``w`` where those are."""
        exp = binary_exponent(self.w)
        v = np.ldexp(self.w, -exp)
        return v, exp, float(np.linalg.norm(v))


def binary_exponent(a: np.ndarray) -> int:
    """The ``e`` that puts the largest entry of ``|a|`` in [2**(e-1), 2**e) (0 for
    a zero ``a``).  ``a * 2**-e`` is an exact scaling, so a ratio of products
    taken on it keeps its bits, while the products stay in range whatever
    the scale of ``a``."""
    return int(np.frexp(np.abs(a).max())[1])


def vector_norm(v: np.ndarray) -> float:
    """``||v||``.  When the sum of squares underflows to 0 or overflows for a
    nonzero ``v``, the norm is taken again on ``v`` scaled by
    ``2**-binary_exponent(v)`` and scaled back, so only a norm beyond the
    largest float overflows, as numpy's error state says (the sweep raises)."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if (norm == 0.0 or not math.isfinite(norm)) and v.any():
        exp = binary_exponent(v)
        norm = float(np.ldexp(np.linalg.norm(np.ldexp(v, -exp)), exp))
    return norm


def sample_orthogonal_means(
    d: int, r_c: float, r_s: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a spherically uniform core direction and an orthogonal spurious one.

    The first vector is a normalized standard Gaussian draw (uniform on the
    sphere); the second is a fresh Gaussian draw with its projection on the
    first removed, then normalized, which makes it uniform on the sphere of
    the orthogonal complement.
    """
    if not integer_in(d, 2):
        raise TwoEnvError(f"need an integer d in [2, 2**53] for two orthogonal directions, got {d!r}")
    _check_radii(r_c, r_s)
    g1 = rng.standard_normal(d)
    u1 = g1 / np.linalg.norm(g1)
    g2 = rng.standard_normal(d)
    v = g2 - (g2 @ u1) * u1
    v -= (v @ u1) * u1  # second pass removes the round-off residue
    u2 = v / np.linalg.norm(v)
    return r_c * u1, r_s * u2


def _labels(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.where(rng.random(n) < 0.5, -1, 1).astype(np.int64)


def sample_environment(
    instance: ProblemInstance, env: int, rng: np.random.Generator
) -> LabeledDataset:
    """Draw the rows of environment ``env`` (1 or 2): labels, then noise."""
    if not integer_in(env, 1, 2):
        raise TwoEnvError(f"environment must be 1 or 2, got {env!r}")
    n, theta = (instance.n_1, instance.theta_1) if env == 1 else (instance.n_2, instance.theta_2)
    y = _labels(n, rng)
    mean = instance.mu_c + theta * instance.mu_s
    X = rng.standard_normal((n, instance.d))
    X *= instance.sigma
    X += y[:, None] * mean[None, :]
    return LabeledDataset(X, y, np.full(n, env, dtype=np.int64))


def sample_dataset(instance: ProblemInstance, rng: np.random.Generator) -> LabeledDataset:
    """Sample the pooled dataset: env-1 rows first, env-2 rows after.

    Draw order is fixed (labels then noise, environment 1 then 2), so the
    output is a pure function of ``(instance, rng state)``.
    """
    return pool(sample_environment(instance, 1, rng), sample_environment(instance, 2, rng))


def _reduced_instance(d, r_c, r_s, theta_1, theta_2, n_1, n_2, sigma, seed) -> ProblemInstance:
    """The instance of the reduced samplers, checked: ``mu_c = r_c e_1`` and
    ``mu_s = r_s e_2`` in ``2 + min(d-2, N)`` coordinates."""
    _check_sizes(n_1, n_2)
    _check_radii(r_c, r_s)
    if not integer_in(d, 2):
        raise TwoEnvError(f"need an integer d in [2, 2**53] for two orthogonal directions, got {d!r}")
    basis = np.eye(2, 2 + min(d - 2, n_1 + n_2))
    return ProblemInstance(r_c * basis[0], r_s * basis[1], theta_1, theta_2, n_1, n_2, sigma, seed)


def sample_reduced(
    d: int,
    r_c: float,
    r_s: float,
    theta_1: float,
    theta_2: float,
    n_1: int,
    n_2: int,
    sigma: float,
    seed: int,
    rng: np.random.Generator,
) -> tuple[ProblemInstance, LabeledDataset]:
    """Draw a ``d``-dimensional instance exactly, in ``2 + min(d-2, N)`` coordinates.

    The noise is isotropic, so rotate until ``mu_c = r_c e_1`` and
    ``mu_s = r_s e_2``.  A signed row is then
    ``z_i = [r_c + sigma g_i1, theta_e r_s + sigma g_i2, sigma G_i]`` with
    ``G`` an N x (d-2) standard Gaussian matrix.  Write ``G = L Q'``, its LQ
    factorization, with ``Q`` orthonormal and ``L`` N x k lower trapezoidal,
    ``k = min(d-2, N)``: ``L`` has independent entries, ``L_ii^2 ~
    chi2(d-1-i)`` for i = 1..k and N(0,1) below the diagonal (the Bartlett
    decomposition of the Wishart Gram ``G G'`` when ``k = N``).  Dropping
    ``Q`` is a rotation that fixes both means.  So a learner that is
    rotation-equivariant and returns weights in the span of the rows (the
    signed mean, the hard-margin fit, the two-stage learner, gradient
    descent from zero), scored by ``<w, mu_c>``, ``<w, mu_s>``, ``||w||``
    and margins, has the same law on this draw as on
    :func:`sample_dataset`'s dense one.

    The dataset stores the rows ``z_i`` as drawn (see
    :meth:`LabeledDataset.from_signed`), environment-1 rows first.  The returned
    instance lives in the reduced coordinates (its ``d`` is the column
    count); the dataset's ``ambient_d`` is ``d``, which margin
    normalizations read.  Draw order on ``rng``: environment-1 labels,
    environment-2 labels (each as :func:`sample_environment` draws them),
    the N x 2 normals ``g`` in row-major order, the k chi-square variates of
    the diagonal of ``L``, then its N k - k(k+1)/2 below-diagonal normals in
    row-major order.  The rows are one array, allocated once.  The diagonal
    and the first k rows' normals are scaled by ``sigma`` in arrays of their
    own and written into its noise block; the N - k full rows below them
    are drawn ``NOISE_BLOCK_ROWS`` at a time into one buffer, scaled there
    and copied in.  So a draw peaks at about 1.6 times its rows when ``k =
    N``, and at about 1.25 times when ``k`` is much smaller than ``N``
    (tracemalloc, N = 900: 1.27 at d = 20, 1.25 at d = 320).
    """
    instance = _reduced_instance(d, r_c, r_s, theta_1, theta_2, n_1, n_2, sigma, seed)
    n, k = instance.n, instance.d - 2
    y = np.concatenate([_labels(n_1, rng), _labels(n_2, rng)])
    Z = np.zeros((n, 2 + k))
    # every draw is scaled by sigma in a contiguous array of its own and then
    # written into Z: an in-place product on a strided 2-d view of Z allocates
    # numpy's ufunc buffers, about 128 KB, nearly the rows at N = 900, d = 20
    g = rng.standard_normal((n, 2))
    g *= sigma
    np.add(g[:, 0], r_c, out=Z[:, 0])
    np.add(np.repeat([theta_1, theta_2], [n_1, n_2]) * r_s, g[:, 1], out=Z[:, 1])
    noise = Z[:, 2:]  # a view: the noise block is written in place
    noise[np.diag_indices(k)] = sigma * np.sqrt(rng.chisquare(d - 1 - np.arange(1, k + 1)))
    triangle = rng.standard_normal(k * (k - 1) // 2)
    triangle *= sigma
    noise[:k][np.tri(k, k, -1, dtype=bool)] = triangle
    del g, triangle  # freed before the block buffer is allocated
    # rows k+1..N are full rows, drawn a block at a time through one buffer
    block = np.empty((min(NOISE_BLOCK_ROWS, n - k), k))
    for start in range(k, n, NOISE_BLOCK_ROWS):
        rows = rng.standard_normal(out=block[:n - start])
        rows *= sigma
        noise[start:start + len(rows)] = rows
    env = np.repeat(np.array([1, 2], dtype=np.int64), [n_1, n_2])
    return instance, LabeledDataset.from_signed(Z, y, env, ambient_d=d)


def sample_gram_row_sums(
    d: int,
    r_c: float,
    r_s: float,
    theta_1: float,
    theta_2: float,
    n_1: int,
    n_2: int,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Row sums ``K 1`` of the Gram ``K = Z Z'`` of an exact draw, in O(N).

    The result has the law of ``Z @ Z.sum(axis=0)`` on :func:`sample_reduced`'s
    signed rows ``Z``, with the same arguments and input checks.  The
    columns of ``Z`` are the means ``a_i = r_c + sigma g_i1`` and ``b_i =
    theta_e r_s + sigma g_i2``, drawn here as there, and ``sigma G``; so ``(K 1)_i = a_i sum(a)
    + b_i sum(b) + sigma^2 (W 1)_i`` with ``W = G G' ~ Wishart_N(d-2, I)``.
    ``W`` has the law of ``H W H`` for the Householder reflection ``H``
    that swaps ``e_1`` and ``e = 1/sqrt(N)`` (``v = e_1 - e``), so ``W 1 =
    sqrt(N) W e`` has the law of ``sqrt(N) H W e_1``.  With ``g_1`` the first
    row of ``G``, ``W e_1 = G g_1 = |g_1| (|g_1|, xi_2, ..., xi_N)``: the
    projections ``xi_i`` of the other rows on ``g_1 / |g_1|`` are iid N(0, 1)
    and independent of ``|g_1|^2 ~ chi2(d-2)``, for every ``d - 2 >= 1``.
    So draw ``c ~ chi2(d-2)`` and ``xi``, and take ``sqrt(N) H (c, sqrt(c)
    xi)`` as ``W 1``.  At ``d = 2`` there is no noise block: the term is 0
    and no chi-square is drawn.

    Draw order on ``rng``: the N x 2 normals ``g`` in row-major order, then
    ``c``, then the N-1 normals ``xi``.  No labels are drawn: signed rows do
    not depend on them.  Non-finite row sums raise :class:`TwoEnvError`.
    """
    _reduced_instance(d, r_c, r_s, theta_1, theta_2, n_1, n_2, sigma, seed=0)  # its checks
    n = n_1 + n_2
    g = rng.standard_normal((n, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        a = r_c + sigma * g[:, 0]
        b = np.repeat([theta_1, theta_2], [n_1, n_2]) * r_s + sigma * g[:, 1]
        row_sums = a * a.sum() + b * b.sum()
        if d > 2:
            c = rng.chisquare(d - 2)
            col = np.concatenate([[c], math.sqrt(c) * rng.standard_normal(n - 1)])
            v = np.full(n, -1.0 / math.sqrt(n))
            v[0] += 1.0
            col -= (2.0 * (v @ col) / (v @ v)) * v  # H col; N >= 2, so v != 0
            row_sums += (sigma * sigma * math.sqrt(n)) * col
    if not np.isfinite(row_sums).all():
        raise TwoEnvError("gram row sums are not finite")
    return row_sums
