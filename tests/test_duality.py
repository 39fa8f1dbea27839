"""Margin-constrained program, dual bounds, and concentration events."""

import itertools
import math

import numpy as np
import pytest

from twoenv import stream
from twoenv.calibrate import bound_chain_study
from twoenv.duality import (
    GramData,
    canonical_lambda,
    check_spectral_events,
    closed_form_bound,
    dual_value,
    expected_gram,
    gram_from_dataset,
    min_weighted_beta,
    orthogonal_complement_stats,
)
from twoenv.errors import IllConditionedGramError, InfeasibleMarginError, TwoEnvError
from twoenv.estimators import mean_estimator
from twoenv.model import (
    LabeledDataset,
    ProblemInstance,
    sample_dataset,
    sample_orthogonal_means,
)


def _random_gram_instance(seed, n_1=4, n_2=4, d=40, sigma=None, theta_2=0.0, gamma=None,
                          r_c=0.02, r_s=0.05):
    d_total = d
    sigma = sigma if sigma is not None else 1.0 / math.sqrt(d_total)
    mu_c, mu_s = sample_orthogonal_means(d_total, r_c, r_s, stream(seed, "dg-means"))
    inst = ProblemInstance(mu_c, mu_s, 1.0, theta_2, n_1, n_2, sigma, seed)
    data = sample_dataset(inst, stream(seed, "dg-data"))
    n = n_1 + n_2
    gamma = gamma if gamma is not None else 1.0 / (4.0 * math.sqrt(n))
    return inst, data, gram_from_dataset(data, gamma, theta_2)


def brute_force_min_weighted(K, u, gamma, tol=1e-9):
    """Exhaustive oracle: enumerate active margin subsets.

    For each subset, solve the stationarity system with the norm constraint
    active (scalar quadratic in the norm multiplier) and, separately, test
    the all-margins-active vertex with the norm inactive.  Feasible KKT
    points are compared by objective value.
    """
    n = K.shape[0]
    Kinv_u = np.linalg.solve(K, u)
    best = None

    def consider(value, beta):
        nonlocal best
        if best is None or value < best[0] - 1e-15:
            best = (value, beta)

    # norm inactive: the unique polyhedron vertex with lambda = K^{-1} u
    if np.all(Kinv_u >= -tol):
        beta = gamma * np.linalg.solve(K, np.ones(n))
        if beta @ K @ beta <= 1.0 + tol:
            consider(float(u @ beta), beta)

    for size in range(0, n + 1):
        for subset in itertools.combinations(range(n), size):
            active = np.zeros(n, dtype=bool)
            active[list(subset)] = True
            idx = list(subset)
            if idx:
                sub = K[np.ix_(idx, idx)]
                try:
                    p = np.linalg.solve(sub, u[idx])
                    q = gamma * np.linalg.solve(sub, np.ones(size))
                except np.linalg.LinAlgError:
                    continue
            p_full = np.zeros(n)
            q_full = np.zeros(n)
            if idx:
                p_full[idx] = p
                q_full[idx] = q
            P = p_full - Kinv_u
            Q = q_full
            a = float(Q @ K @ Q) - 1.0
            b = 2.0 * float(P @ K @ Q)
            c = float(P @ K @ P)
            roots = []
            if abs(a) > 1e-14:
                disc = b * b - 4 * a * c
                if disc >= 0:
                    roots = [(-b + math.sqrt(disc)) / (2 * a), (-b - math.sqrt(disc)) / (2 * a)]
            elif abs(b) > 1e-14:
                roots = [-c / b]
            for nu in roots:
                if nu <= 1e-12:
                    continue
                lam = p_full + nu * q_full
                beta = (P + nu * Q) / nu
                if lam[idx].min(initial=0.0) < -1e-9:
                    continue
                margins = K @ beta
                if margins.min() < gamma - 1e-9:
                    continue
                if abs(float(beta @ K @ beta) - 1.0) > 1e-7:
                    continue
                consider(float(u @ beta), beta)
    return best


class TestMinWeightedBeta:
    def test_single_sample_exact(self):
        data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]), np.array([1]))
        gd = gram_from_dataset(data, 0.5, 0.0)
        res = min_weighted_beta(gd)
        assert res.optimum == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(res.beta, [0.5], atol=1e-12)

    def test_zero_margin_with_negative_weight(self):
        _, _, gd = _random_gram_instance(3, theta_2=-0.5, gamma=0.0)
        res = min_weighted_beta(gd)
        assert res.optimum <= 1e-12

    def test_matches_bruteforce(self):
        for seed in range(12):
            inst, data, gd = _random_gram_instance(seed, n_1=3, n_2=3, d=50,
                                                   theta_2=-0.3 * (seed % 3))
            oracle = brute_force_min_weighted(gd.gram, gd.weights, gd.gamma)
            assert oracle is not None
            res = min_weighted_beta(gd, tol=1e-10)
            assert res.optimum == pytest.approx(oracle[0], abs=1e-5)

    def test_primal_feasibility_and_certificate(self):
        for seed in range(8):
            _, _, gd = _random_gram_instance(seed + 50, n_1=5, n_2=5, d=80, theta_2=-0.4)
            res = min_weighted_beta(gd, tol=1e-9)
            margins = gd.gram @ res.beta
            assert margins.min() >= gd.gamma - 1e-8
            assert float(res.beta @ gd.gram @ res.beta) <= 1.0 + 1e-7
            # certificate: dual value within gap of the primal value
            assert res.dual_value <= res.optimum + 1e-12
            assert res.gap <= 1e-6

    def test_infeasible_margin(self):
        _, _, gd = _random_gram_instance(7)
        too_big = GramData(gd.Z, gd.gram, gd.e1, gd.e2, 10.0, gd.theta_2)
        with pytest.raises(InfeasibleMarginError):
            min_weighted_beta(too_big)

    def test_ill_conditioned_gram(self):
        Z = np.array([[1.0, 0.0], [1.0, 1e-9]])
        gd = GramData(Z, Z @ Z.T, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1, 0.0)
        with pytest.raises(IllConditionedGramError):
            min_weighted_beta(gd)


class TestDualValue:
    def test_zero_residual(self):
        # orthonormal rows make the gram exactly the identity, so the
        # multiplier solving the residual equation is the weight vector
        rng = stream(11)
        q, _ = np.linalg.qr(rng.standard_normal((12, 6)))
        data = LabeledDataset(
            q.T, np.ones(6, dtype=int), np.array([1, 1, 1, 2, 2, 2])
        )
        gd = gram_from_dataset(data, 0.07, 0.5)
        lam = np.linalg.solve(gd.gram, gd.weights)
        assert lam.min() > 0
        assert dual_value(gd, lam) == pytest.approx(gd.gamma * lam.sum(), abs=1e-12)

    def test_zero_multiplier(self):
        _, _, gd = _random_gram_instance(13)
        u = gd.weights
        expected = -math.sqrt(float(u @ np.linalg.solve(gd.gram, u)))
        assert dual_value(gd, np.zeros(gd.n)) == pytest.approx(expected, abs=1e-12)
        assert dual_value(gd, np.zeros(gd.n)) <= 0.0

    def test_weak_duality_random_and_canonical(self):
        rng = stream(17)
        for seed in range(10):
            inst, data, gd = _random_gram_instance(seed + 100, n_1=5, n_2=4, d=90,
                                                   theta_2=-0.25)
            res = min_weighted_beta(gd, tol=1e-10)
            for _ in range(5):
                lam = np.abs(rng.standard_normal(gd.n)) * 0.3
                assert dual_value(gd, lam) <= res.optimum + 1e-8
            lam_c = canonical_lambda(gd, inst.r_c, inst.r_s)
            assert dual_value(gd, lam_c) <= res.optimum + 1e-8

    def test_rejects_negative_multiplier(self):
        _, _, gd = _random_gram_instance(19)
        lam = np.zeros(gd.n)
        lam[0] = -0.1
        with pytest.raises(TwoEnvError):
            dual_value(gd, lam)


class TestClosedFormBound:
    def test_positive_part_branches(self):
        base = closed_form_bound(10, 5, 0.1, 0.0, 0.01, 10_000, 2.0)
        plus = closed_form_bound(10, 5, 0.1, 0.3, 0.01, 10_000, 2.0)
        minus = closed_form_bound(10, 5, 0.1, -0.3, 0.01, 10_000, 2.0)
        assert plus - base == pytest.approx(0.5 * 0.3 * 5 * 0.1, rel=1e-12)
        assert base - minus == pytest.approx(0.5 * math.sqrt(8 * 5) * 0.3, rel=1e-12)

    def test_large_dimension_limit(self):
        # d -> infinity, r_c -> 0, theta_2 = 0 leaves N_1 gamma / 2
        val = closed_form_bound(20, 10, 0.05, 0.0, 1e-12, 10**18, 3.0)
        assert val == pytest.approx(0.5 * 20 * 0.05, rel=1e-6)

    def test_is_pure_arithmetic(self):
        n_1, n_2, gamma, th, r_c, d, t = 7, 3, 0.11, -0.2, 0.02, 5000, 2.5
        n = n_1 + n_2
        manual = 0.5 * (
            n_1 * gamma
            - math.sqrt(2 * n_2) * n_1 * r_c**2
            - math.sqrt(18 * n) * (math.sqrt(n) + t) / math.sqrt(d)
            - math.sqrt(8 * n_2) * 0.2
        )
        assert closed_form_bound(n_1, n_2, gamma, th, r_c, d, t) == pytest.approx(
            manual, rel=1e-15
        )


class TestSpectralEvents:
    def test_noise_free_matrix_passes_trivially(self):
        # disjoint-support means make the reconstructed noise exactly zero
        # in floating point, so every noise event holds once t >= sqrt(d)
        d = 30
        mu_c = np.zeros(d)
        mu_c[:10] = 0.5 / math.sqrt(10)
        mu_s = np.zeros(d)
        mu_s[10:] = 1.0 / math.sqrt(20)
        rows, ys = [], []
        for y in (1, -1) * 4:
            rows.append(y * (mu_c + mu_s))
            ys.append(y)
        data = LabeledDataset(np.array(rows), np.array(ys), np.ones(8, dtype=int))
        rep = check_spectral_events(data, mu_c, mu_s, sigma=1e-30, t=2 * math.sqrt(d),
                                    theta_1=1.0, theta_2=1.0)
        assert rep.sval_min == 0.0 and rep.sval_max == 0.0
        assert rep.sval_ok and rep.g_mu_c_ok and rep.g_mu_s_ok

    def test_expected_gram_against_monte_carlo(self):
        n_1, n_2, d, draws = 3, 3, 40, 10_000
        sigma = 1.0 / math.sqrt(d)
        mu_c, mu_s = sample_orthogonal_means(d, 0.3, 0.6, stream(29))
        inst = ProblemInstance(mu_c, mu_s, 1.0, -0.5, n_1, n_2, sigma, 0)
        acc = np.zeros((6, 6))
        acc_sq = np.zeros((6, 6))
        rng = stream(29, "gram-mc")
        for _ in range(draws):
            data = sample_dataset(inst, rng)
            Z = data.signed()
            g = Z @ Z.T
            acc += g
            acc_sq += g * g
        mean = acc / draws
        se = np.sqrt(np.maximum(acc_sq / draws - mean**2, 0.0) / draws)
        expected = expected_gram(n_1, n_2, 1.0, -0.5, 0.3, 0.6, sigma, d)
        assert np.all(np.abs(mean - expected) <= 4 * se + 1e-12)

    @pytest.mark.slow
    def test_event_failure_frequency(self):
        # noise-event failure budget: 6 exp(-t^2/2) + slack at t = 3; the
        # observed rate sits far below it, so 800 draws decide cleanly
        n_e, d, t, seeds = 20, 40_000, 3.0, 800
        sigma = 1.0 / math.sqrt(d)
        mu_c, mu_s = sample_orthogonal_means(d, 0.05, 0.1, stream(31))
        failures = 0
        for seed in range(seeds):
            inst = ProblemInstance(mu_c, mu_s, 1.0, 0.0, n_e, n_e, sigma, seed)
            data = sample_dataset(inst, stream(seed, "freq"))
            rep = check_spectral_events(data, mu_c, mu_s, sigma, t, 1.0, 0.0)
            if not (rep.sval_ok and rep.g_mu_c_ok and rep.g_mu_s_ok):
                failures += 1
        assert failures / seeds <= 6 * math.exp(-(t**2) / 2) + 0.01


class TestOrthogonalComplement:
    def test_in_span_vector_scores_zero(self):
        rng = stream(37)
        data = LabeledDataset(
            rng.standard_normal((6, 30)),
            np.where(rng.random(6) < 0.5, -1, 1),
            np.ones(6, dtype=int),
        )
        beta = rng.standard_normal(6)
        w = data.signed().T @ beta
        mu = rng.standard_normal(30)
        assert orthogonal_complement_stats(w, data, mu) <= 1e-10

    def test_pure_complement_alignment(self):
        rng = stream(41)
        data = LabeledDataset(
            rng.standard_normal((5, 25)),
            np.where(rng.random(5) < 0.5, -1, 1),
            np.ones(5, dtype=int),
        )
        Z = data.signed()
        mu = rng.standard_normal(25)
        beta = np.linalg.solve(Z @ Z.T, Z @ mu)
        mu_perp = mu - Z.T @ beta
        val = orthogonal_complement_stats(mu_perp, data, mu)
        assert val == pytest.approx(
            np.linalg.norm(mu_perp) / np.linalg.norm(mu), rel=1e-9
        )

    def test_span_decomposition_identity(self):
        # |<w, mu> - <w_span, mu>| equals the reported value times the norms
        rng = stream(43)
        data = LabeledDataset(
            rng.standard_normal((7, 40)),
            np.where(rng.random(7) < 0.5, -1, 1),
            np.ones(7, dtype=int),
        )
        Z = data.signed()
        w = rng.standard_normal(40)
        mu = rng.standard_normal(40)
        beta = np.linalg.solve(Z @ Z.T, Z @ w)
        w_span = Z.T @ beta
        val = orthogonal_complement_stats(w, data, mu)
        lhs = abs(float(w @ mu) - float(w_span @ mu))
        assert lhs == pytest.approx(val * np.linalg.norm(w) * np.linalg.norm(mu), rel=1e-9)

    def test_learned_rule_concentration(self):
        # any sample-measurable w keeps its off-span alignment below
        # 3/sqrt(d-N) in nearly every draw
        n_e, d = 20, 10_000
        sigma = 1.0 / math.sqrt(d)
        hits = 0
        seeds = 100
        for seed in range(seeds):
            mu_c, mu_s = sample_orthogonal_means(d, 0.05, 0.1, stream(seed, "oc-means"))
            inst = ProblemInstance(mu_c, mu_s, 1.0, 0.0, n_e, n_e, sigma, seed)
            data = sample_dataset(inst, stream(seed, "oc-data"))
            w = mean_estimator(data).w
            if orthogonal_complement_stats(w, data, mu_s) <= 3.0 / math.sqrt(d - 2 * n_e):
                hits += 1
        assert hits >= 95

    def test_requires_overparameterization(self):
        rng = stream(47)
        data = LabeledDataset(
            rng.standard_normal((5, 4)), np.where(rng.random(5) < 0.5, -1, 1),
            np.ones(5, dtype=int),
        )
        with pytest.raises(TwoEnvError):
            orthogonal_complement_stats(np.ones(4), data, np.ones(4))


class TestBoundChain:
    def test_small_study_holds(self):
        reports = bound_chain_study(5, t=3.0, seed_base=500)
        assert len(reports) == 5
        for rep in reports:
            assert rep.events_pass
            assert rep.chain_ok


class TestGramData:
    def test_rejects_mismatched_gram(self):
        Z = np.eye(2)
        with pytest.raises(TwoEnvError):
            GramData(Z, 2 * np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.1, 0.0)

    def test_rejects_bad_partition(self):
        Z = np.eye(2)
        with pytest.raises(TwoEnvError):
            GramData(Z, np.eye(2), np.array([1.0, 1.0]), np.array([0.0, 1.0]), 0.1, 0.0)
