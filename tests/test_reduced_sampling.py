"""Dense and reduced draws agree in law on every statistic the pipeline reads,
and so do the Gram row sums drawn alone.

Two-sample Kolmogorov-Smirnov tests compare ``sample_dataset`` draws in
``R^d`` with ``sample_reduced`` draws in ``R^{N+2}`` at a dimension where
dense draws are cheap.  The design is fixed before looking at any result:
family-wise level ALPHA split over the statistics by Bonferroni, DENSE and
REDUCED draws at seeds ``0..count-1`` on their own named streams.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from twoenv import experiments, stream
from twoenv.errors import DegenerateLabelsError
from twoenv.estimators import mean_estimator, two_phase_learn
from twoenv.experiments import METHODS, ExperimentConfig, _fit, resolve_sigma
from twoenv.metrics import invariance_gaps, normalized_margin, robust_error, spurious_core_ratio
from twoenv.model import (ProblemInstance, sample_dataset, sample_gram_row_sums,
                          sample_orthogonal_means, sample_reduced)
from twoenv.training import TrainConfig, max_margin

ALPHA = 0.01
DENSE, REDUCED = 300, 600
N_1 = N_2 = 20
D = 2000
SIGMA = 1.0 / math.sqrt(D)
R_C, R_S = 0.15, 0.3
THETA_1, THETA_2 = 1.0, 0.0
STATS = ("gram_eig_min", "gram_eig_max", "mean_margin", "mm_ratio", "mm_robust",
         "two_phase_robust")


def _dense(seed):
    mu_c, mu_s = sample_orthogonal_means(D, R_C, R_S, stream(seed, "eq-means"))
    inst = ProblemInstance(mu_c, mu_s, THETA_1, THETA_2, N_1, N_2, SIGMA, seed)
    return inst, sample_dataset(inst, stream(seed, "eq-dense"))


def _reduced(seed):
    return sample_reduced(D, R_C, R_S, THETA_1, THETA_2, N_1, N_2, SIGMA, seed,
                          stream(seed, "eq-reduced"))


def _statistics(inst, data, seed):
    Z = data.signed()
    gram_eigs = np.linalg.eigvalsh(Z @ Z.T / (SIGMA**2 * data.ambient_d))
    mm = max_margin(data)
    try:
        tp = two_phase_learn(data.by_env(1), data.by_env(2), stream(seed, "eq-two-phase"))
        tp_robust = robust_error(tp, inst.mu_c, inst.mu_s, SIGMA)
    except DegenerateLabelsError:  # a held-out half without positives: same law on both sides
        tp_robust = math.nan
    return (
        gram_eigs[0],
        gram_eigs[-1],
        normalized_margin(mean_estimator(data), data, SIGMA),
        spurious_core_ratio(mm, inst.mu_c, inst.mu_s),
        robust_error(mm, inst.mu_c, inst.mu_s, SIGMA),
        tp_robust,
    )


def _table(draw, count):
    return np.array([_statistics(*draw(seed), seed) for seed in range(count)])


def test_dense_and_reduced_draws_agree_in_law():
    dense, reduced = _table(_dense, DENSE), _table(_reduced, REDUCED)
    level = ALPHA / len(STATS)
    for name, a, b in zip(STATS, dense.T, reduced.T):
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        assert min(a.size / DENSE, b.size / REDUCED) > 0.95, name
        p = ks_2samp(a, b).pvalue
        assert p > level, f"{name}: KS p = {p:.2e} <= {level:.2e}"


# The sweep's gradient learners on the same comparison, with their own design,
# fixed before any run: the sweep's fitting code (``experiments._fit``) on a
# small imbalanced instance with d - 2 >= N, so the reduced side's noise block
# is the square Bartlett factor; family-wise level GD_ALPHA split over GD_STATS by
# Bonferroni; seeds ``0..count-1`` on their own named streams.
GD_ALPHA = 0.01
GD_DENSE, GD_REDUCED = 200, 400
GD_N_1, GD_N_2 = 16, 8
GD_D = 240
GD_CONFIG = ExperimentConfig(
    d_grid=(GD_D,), seeds=1, n_1=GD_N_1, n_2=GD_N_2,
    train=TrainConfig(penalty_weight=100.0, anneal_schedule=100, max_iters=300),
)
GD_SIGMA = resolve_sigma(GD_CONFIG.sigma_rule, GD_D, GD_N_1 + GD_N_2, GD_CONFIG.r_c)
GD_STATS = ("erm_robust", "vrex_robust", "erm_margin", "oracle_robust", "erm_eopp_gap")


def _gd_dense(seed):
    mu_c, mu_s = sample_orthogonal_means(GD_D, 1.0, 2.0, stream(seed, "gd-means"))
    inst = ProblemInstance(mu_c, mu_s, 1.0, 0.0, GD_N_1, GD_N_2, GD_SIGMA, seed)
    return inst, sample_dataset(inst, stream(seed, "gd-dense"))


def _gd_reduced(seed):
    return sample_reduced(GD_D, 1.0, 2.0, 1.0, 0.0, GD_N_1, GD_N_2, GD_SIGMA, seed,
                          stream(seed, "gd-reduced"))


def _gd_statistics(inst, data, seed):
    def fit(method):
        return _fit(method, data, GD_CONFIG, inst.mu_s, seed, GD_D)[0]

    def robust(model):
        return robust_error(model, inst.mu_c, inst.mu_s, GD_SIGMA)

    erm = fit("erm")
    try:
        eopp = invariance_gaps(erm, data.by_env(1), data.by_env(2))
    except DegenerateLabelsError:  # an environment without positives: same law on both sides
        eopp = math.nan
    return (robust(erm), robust(fit("vrex")), normalized_margin(erm, data, GD_SIGMA),
            robust(fit("oracle_no_spurious")), eopp)


def test_gd_learners_agree_in_law_on_dense_and_reduced_draws():
    dense = np.array([_gd_statistics(*_gd_dense(s), s) for s in range(GD_DENSE)])
    reduced = np.array([_gd_statistics(*_gd_reduced(s), s) for s in range(GD_REDUCED)])
    level = GD_ALPHA / len(GD_STATS)
    for name, a, b in zip(GD_STATS, dense.T, reduced.T):
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        assert min(a.size / GD_DENSE, b.size / GD_REDUCED) > 0.95, name
        p = ks_2samp(a, b).pvalue
        assert p > level, f"{name}: KS p = {p:.2e} <= {level:.2e}"


# The same learners where the noise block is N x (d - 2), with their own design,
# fixed before any run: N = 16 + 8 rows at d = 14; the sweep's fitting code with
# GD_CONFIG's training; family-wise level NARROW_ALPHA split over NARROW_STATS by
# Bonferroni; seeds ``0..count-1`` on their own named streams.
NARROW_ALPHA = 0.01
NARROW_DENSE, NARROW_REDUCED = 80, 160
NARROW_N_1, NARROW_N_2 = 16, 8
NARROW_D = 14
NARROW_CONFIG = replace(GD_CONFIG, d_grid=(NARROW_D,))
NARROW_SIGMA = resolve_sigma(NARROW_CONFIG.sigma_rule, NARROW_D, NARROW_N_1 + NARROW_N_2,
                             NARROW_CONFIG.r_c)
NARROW_STATS = ("gram_eig_max", "erm_robust", "irmv1_robust", "erm_margin", "oracle_robust")


def _narrow_statistics(inst, data, seed):
    def fit(method):
        return _fit(method, data, NARROW_CONFIG, inst.mu_s, seed, NARROW_D)[0]

    def robust(model):
        return robust_error(model, inst.mu_c, inst.mu_s, NARROW_SIGMA)

    Z = data.signed()
    erm = fit("erm")
    return (np.linalg.eigvalsh(Z @ Z.T)[-1], robust(erm), robust(fit("irmv1")),
            normalized_margin(erm, data, NARROW_SIGMA), robust(fit("oracle_no_spurious")))


def test_gd_learners_agree_in_law_on_narrow_dense_and_reduced_draws():
    args = (NARROW_D, 1.0, 2.0, 1.0, 0.0, NARROW_N_1, NARROW_N_2, NARROW_SIGMA)
    dense, reduced = [], []
    for seed in range(NARROW_DENSE):
        mu_c, mu_s = sample_orthogonal_means(NARROW_D, 1.0, 2.0, stream(seed, "narrow-means"))
        inst = ProblemInstance(mu_c, mu_s, *args[3:], seed)
        dense.append(_narrow_statistics(inst, sample_dataset(inst, stream(seed, "narrow-dense")),
                                        seed))
    for seed in range(NARROW_REDUCED):
        reduced.append(_narrow_statistics(
            *sample_reduced(*args, seed, stream(seed, "narrow-reduced")), seed))
    level = NARROW_ALPHA / len(NARROW_STATS)
    for name, a, b in zip(NARROW_STATS, np.array(dense).T, np.array(reduced).T):
        p = ks_2samp(a, b).pvalue
        assert p > level, f"{name}: KS p = {p:.2e} <= {level:.2e}"


# Gram row sums drawn alone against the row sums of a reduced draw, with their
# own design, fixed before any run: N = 8 + 4 rows at d = 8 (d - 2 < N, a
# 12 x 6 noise block) and at d = 60 (d - 2 >= N, a square one); sigma
# puts P(min > 0) near 0.6 at d = 8; family-wise level ROW_ALPHA split over
# ROW_STATS at both dimensions by Bonferroni; seeds ``0..ROW_DRAWS-1`` on
# their own named streams.
ROW_ALPHA = 0.01
ROW_DRAWS = 600
ROW_N_1, ROW_N_2 = 8, 4
ROW_SIGMA = 0.6
ROW_DIMS = (8, 60)
ROW_STATS = ("min", "row_9", "sum")


def _row_statistics(row_sums):
    return row_sums.min(), row_sums[9], row_sums.sum()


def test_gram_row_sums_agree_in_law_with_reduced_draws():
    level = ROW_ALPHA / (len(ROW_STATS) * len(ROW_DIMS))
    for d in ROW_DIMS:
        args = (d, 1.0, 2.0, 1.0, 0.0, ROW_N_1, ROW_N_2, ROW_SIGMA)
        full, alone = [], []
        for seed in range(ROW_DRAWS):
            Z = sample_reduced(*args, seed, stream(seed, "rows-reduced"))[1].signed()
            full.append(_row_statistics(Z @ Z.sum(axis=0)))
            alone.append(_row_statistics(sample_gram_row_sums(*args, stream(seed, "rows-alone"))))
        for name, a, b in zip(ROW_STATS, np.array(full).T, np.array(alone).T):
            p = ks_2samp(a, b).pvalue
            assert p > level, f"d={d} {name}: KS p = {p:.2e} <= {level:.2e}"


# The pathwise certificate: a dense draw, rotated so that mu_c / r_c and mu_s / r_s
# are its first two axes, with its noise block replaced by that block's LQ factor
# L (positive diagonal), is a draw of sample_reduced: its variates, replayed in
# the documented order, make sample_reduced return it.  Every method's sweep row,
# through run_cell, must then be the same on both draws.  The design, fixed
# before any run: N = 16 + 8 rows, d = 14 (d - 2 < N) and d = 60 (d - 2 >= N),
# two seeds on their own named streams, GD_CONFIG's training, and every float of
# a row equal to within a relative PATH_RTOL (nan equal to nan).
PATH_RTOL = 1e-9
PATH_DIMS = (14, 60)
PATH_SEEDS = (0, 1)
PATH_CONFIG = replace(GD_CONFIG, d_grid=PATH_DIMS, seeds=len(PATH_SEEDS), methods=METHODS)


class _Replay:
    """A generator stand-in that returns the given variates in turn, each checked
    against the call that asks for it: ``(method, argument, value)``.  A run of
    normals may be taken in several calls, by size or into an ``out`` buffer: each
    call takes the run's next variates in row-major order, and no call reaches
    past the run."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def _next(self, method, arg):
        want, want_arg, value = self.draws.pop(0)
        assert method == want and np.array_equal(arg, want_arg), (method, arg)
        return value

    def random(self, size):
        return self._next("random", size)

    def standard_normal(self, size=None, out=None):
        shape = size if out is None else out.shape
        want, _, value = self.draws[0]
        count = int(np.prod(shape))
        assert want == "standard_normal" and count <= value.size, ("standard_normal", shape)
        taken, rest = np.split(value.reshape(-1), [count])
        if rest.size:
            self.draws[0] = (want, rest.size, rest)
        else:
            self.draws.pop(0)
        if out is None:
            return taken.reshape(shape)
        out[...] = taken.reshape(shape)
        return out

    def chisquare(self, df):
        return self._next("chisquare", df)


def _lq_variates(inst, data, d, sigma):
    """The variates, in sample_reduced's draw order, of the rotated dense draw with
    its noise block replaced by the block's LQ factor."""
    cfg, n, n_1 = PATH_CONFIG, data.n, inst.n_1
    basis, r = np.linalg.qr(np.column_stack([inst.mu_c, inst.mu_s]), mode="complete")
    basis[:, :2] *= np.sign(np.diag(r))  # the first two axes are mu_c / r_c and mu_s / r_s
    Z = data.signed() @ basis
    _, r = np.linalg.qr(Z[:, 2:].T)  # the noise block is r' times orthonormal rows
    L = r.T * np.sign(np.diag(r))
    k = L.shape[1]
    theta = np.where(data.env == 1, cfg.theta_1, cfg.theta_2)
    g = np.column_stack([Z[:, 0] - cfg.r_c, Z[:, 1] - theta * cfg.r_s]) / sigma
    uniforms = np.where(data.y == 1, 0.75, 0.25)  # sample_reduced labels u < 0.5 as -1
    return _Replay(("random", n_1, uniforms[:n_1]), ("random", n - n_1, uniforms[n_1:]),
                   ("standard_normal", (n, 2), g),
                   ("chisquare", d - 1 - np.arange(1, k + 1), (np.diag(L) / sigma) ** 2),
                   ("standard_normal", n * k - k * (k + 1) // 2,
                    L[np.tril_indices(n, -1, k)] / sigma))


@pytest.mark.parametrize("d", PATH_DIMS)
def test_every_method_row_is_the_same_on_a_dense_draw_and_its_lq_factor(monkeypatch, d):
    cfg = PATH_CONFIG
    sigma = resolve_sigma(cfg.sigma_rule, d, cfg.n_1 + cfg.n_2, cfg.r_c)
    scored = set()  # the methods with a row that is no error row
    for seed in PATH_SEEDS:
        mu_c, mu_s = sample_orthogonal_means(d, cfg.r_c, cfg.r_s, stream(seed, "path-means"))
        inst = ProblemInstance(mu_c, mu_s, cfg.theta_1, cfg.theta_2, cfg.n_1, cfg.n_2, sigma,
                               seed)
        data = sample_dataset(inst, stream(seed, "path-dense"))
        monkeypatch.setattr(experiments, "sample_reduced", lambda *args: (inst, data))
        dense = experiments.run_cell(cfg, d, seed)
        replay = _lq_variates(inst, data, d, sigma)
        monkeypatch.setattr(experiments, "sample_reduced",
                            lambda *args: sample_reduced(*args[:-1], replay))
        reduced = experiments.run_cell(cfg, d, seed)
        assert replay.draws == []
        scored |= {r.method for r in dense if r.error is None}
        for a, b in zip(dense, reduced):
            assert (a.method, a.error, a.interpolating) == (b.method, b.error, b.interpolating)
            for key in ("train_acc", "robust_acc", "margin", "ratio", "eopp_gap"):
                x, y = getattr(a, key), getattr(b, key)
                assert (math.isnan(x) and math.isnan(y)) or math.isclose(
                    x, y, rel_tol=PATH_RTOL), (seed, a.method, key, x, y)
    assert scored == set(METHODS)
