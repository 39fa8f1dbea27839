"""Mean estimators and the two-stage invariant learning rule.

Stage 1 fits one signed-sample-mean classifier per environment on half of
that environment's data.  Stage 2 combines the two stage-1 classifiers
with a 2-vector ``v``, constrained so the combined score has equal means
over positive-label rows of the two held-out halves.  That constraint is
a homogeneous linear equation ``a_1 v_1 + a_2 v_2 = 0``, whose solution
ray meets the sup-norm unit sphere in exactly two antipodal points; the
one with the higher held-out score wins.
"""

from __future__ import annotations

import numpy as np

from . import rng as rngmod
from .errors import DegenerateConstraintError, DegenerateLabelsError, TwoEnvError
from .metrics import class_score_mean
from .model import LabeledDataset, LinearModel, binary_exponent, pool

# a constraint coefficient at most this fraction of the class-score means it
# is the difference of is round-off: relative, so the test is scale-free
COEFF_RTOL = 1e-15


def mean_estimator(data: LabeledDataset) -> LinearModel:
    """Signed sample mean ``w = (1/N) sum_i y_i x_i``."""
    if data.n == 0:
        raise TwoEnvError("empty dataset")
    return LinearModel(data.signed().mean(axis=0))


def per_env_mean(data: LabeledDataset, env: int) -> LinearModel:
    """Signed sample mean over the rows tagged with ``env``."""
    mask = data.env == env
    if not mask.any():
        raise TwoEnvError(f"no rows tagged with environment {env}")
    return LinearModel(data.signed()[mask].mean(axis=0))


def _split_env(
    data: LabeledDataset, rng: np.random.Generator
) -> tuple[LabeledDataset, LabeledDataset]:
    """A random half of the rows (rounded down) to fit on, and the rest held out."""
    n_fit = data.n // 2
    perm = rng.permutation(data.n)
    fit_mask = np.zeros(data.n, dtype=bool)
    fit_mask[perm[:n_fit]] = True
    return data.restrict(fit_mask), data.restrict(~fit_mask)


def two_phase_learn(
    s_1: LabeledDataset,
    s_2: LabeledDataset,
    rng: np.random.Generator,
) -> LinearModel:
    """Two-stage invariant learning on a pair of per-environment datasets.

    The model's ``meta`` holds the chosen ``v``, the constraint coefficients
    ``(a_1, a_2)`` of ``u_k = w_k 2**-exp`` as ``constraint_coeffs``, and
    ``split_seed``, the seed of the streams ``stream(split_seed, "split", e)``
    that halve environment ``e``.
    """
    for name, part in (("1", s_1), ("2", s_2)):
        if part.n < 2:
            raise TwoEnvError(f"environment {name} needs at least 2 rows to split")

    split_seed = rngmod.spawn_seed(rng)
    fit_1, fine_1 = _split_env(s_1, rngmod.stream(split_seed, "split", 1))
    fit_2, fine_2 = _split_env(s_2, rngmod.stream(split_seed, "split", 2))
    for name, fine in (("1", fine_1), ("2", fine_2)):
        if not (fine.y == 1).any():
            raise DegenerateLabelsError(
                f"held-out half of environment {name} has no positive-label rows"
            )

    w_1 = fit_1.signed().mean(axis=0)
    w_2 = fit_2.signed().mean(axis=0)
    # v is scale-free: choose it on products with w_k 2**-exp, in range at any scale
    exp = binary_exponent(np.concatenate([w_1, w_2]))
    u_1, u_2 = np.ldexp(w_1, -exp), np.ldexp(w_2, -exp)

    # Constraint coefficients: between-environment gap of the mean positive
    # score of each stage-1 classifier on the held-out halves.
    scores = [(class_score_mean(u, fine_1), class_score_mean(u, fine_2)) for u in (u_1, u_2)]
    a_1, a_2 = (s_1 - s_2 for s_1, s_2 in scores)
    if all(abs(s_1 - s_2) <= COEFF_RTOL * max(abs(s_1), abs(s_2)) for s_1, s_2 in scores):
        raise DegenerateConstraintError(
            f"constraint coefficients ({a_1!r}, {a_2!r}) are both numerically zero"
        )

    # The constraint a_1 v_1 + a_2 v_2 = 0 is solved exactly by the ray
    # through (-a_2, a_1); dividing by the larger coefficient puts v on the
    # sup-norm unit sphere, oriented so that its entries sum to >= 0.
    scale = max(abs(a_1), abs(a_2))
    v = np.array([-a_2, a_1]) / scale
    if not (v[0] + v[1] > 0 or (v[0] + v[1] == 0 and v[0] > 0)):
        v = -v

    # the antipode -v scores exactly -score; a tie (zero) keeps v
    Z = pool(fine_1, fine_2).signed()
    per_component = np.column_stack([Z @ u_1, Z @ u_2]).T.sum(axis=1)  # (sum y<u_k,x>)_k
    if float(v @ per_component) < 0:
        v = -v

    meta = {"v": (float(v[0]), float(v[1])), "constraint_coeffs": (float(a_1), float(a_2)),
            "split_seed": split_seed}
    return LinearModel(v[0] * w_1 + v[1] * w_2, meta=meta)
