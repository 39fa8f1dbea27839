"""Dense and reduced draws agree in law on every statistic the pipeline reads.

Two-sample Kolmogorov-Smirnov tests compare ``sample_dataset`` draws in
``R^d`` with ``sample_reduced`` draws in ``R^{N+2}`` at a dimension where
dense draws are cheap.  The design is fixed before looking at any result:
family-wise level ALPHA split over the statistics by Bonferroni, DENSE and
REDUCED draws at seeds ``0..count-1`` on their own named streams.
"""

import math

import numpy as np
from scipy.stats import ks_2samp

from twoenv import stream
from twoenv.duality import check_spectral_events
from twoenv.errors import DegenerateLabelsError
from twoenv.estimators import mean_estimator, two_phase_learn
from twoenv.experiments import ExperimentConfig, _fit, resolve_sigma
from twoenv.metrics import invariance_gaps, normalized_margin, robust_error, spurious_core_ratio
from twoenv.model import ProblemInstance, sample_dataset, sample_orthogonal_means, sample_reduced
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
    events = check_spectral_events(data, inst.mu_c, inst.mu_s, SIGMA, 3.0, THETA_1, THETA_2)
    mm = max_margin(data)
    try:
        tp, _ = two_phase_learn(data.by_env(1), data.by_env(2), stream(seed, "eq-two-phase"))
        tp_robust = robust_error(tp, inst.mu_c, inst.mu_s, SIGMA).error
    except DegenerateLabelsError:  # a held-out half without positives: same law on both sides
        tp_robust = math.nan
    return (
        events.gram_eig_min,
        events.gram_eig_max,
        normalized_margin(mean_estimator(data), data, SIGMA),
        spurious_core_ratio(mm, inst.mu_c, inst.mu_s),
        robust_error(mm, inst.mu_c, inst.mu_s, SIGMA).error,
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
# small imbalanced instance with d - 2 >= N, so the reduced side takes the
# Bartlett branch; family-wise level GD_ALPHA split over GD_STATS by
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
        return robust_error(model, inst.mu_c, inst.mu_s, GD_SIGMA).error

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
