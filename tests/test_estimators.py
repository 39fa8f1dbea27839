"""Mean estimators and the two-stage learning rule."""

import math

import numpy as np
import pytest

from twoenv import stream
from twoenv.errors import DegenerateConstraintError, DegenerateLabelsError, TwoEnvError
from twoenv.estimators import _split_env, mean_estimator, per_env_mean, two_phase_learn
from twoenv.metrics import normalized_margin
from twoenv.model import (
    LabeledDataset,
    ProblemInstance,
    pool,
    sample_environment,
    sample_orthogonal_means,
)

from helpers import noiseless_pair, random_dataset


class TestMeanEstimator:
    def test_noiseless_average_of_class_means(self):
        mu_c, mu_s = sample_orthogonal_means(10, 1.0, 2.0, stream(1))
        d_1, d_2 = noiseless_pair(mu_c, mu_s, 1.0, 0.0, reps=3)
        model = mean_estimator(pool(d_1, d_2))
        np.testing.assert_allclose(model.w, mu_c + 0.5 * mu_s, atol=1e-12)

    def test_single_negative_sample(self):
        x = np.array([0.3, -1.2, 4.0])
        data = LabeledDataset(x[None, :], np.array([-1]), np.array([1]))
        np.testing.assert_allclose(mean_estimator(data).w, -x)

    def test_empty_rejected(self):
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        with pytest.raises(TwoEnvError):
            mean_estimator(empty)

    def test_small_norm_preset_margin(self):
        # tiny mean norms, d of order N^2 log(1/delta): the signed mean
        # separates with margin above 1/(4 sqrt(N)) in nearly every draw
        n_e, delta = 20, 0.01
        n = 2 * n_e
        r = 0.5 / n
        d = int(n**2 * math.log(1 / delta))
        target = 1.0 / (4.0 * math.sqrt(n))
        sigma = 1.0 / math.sqrt(d)
        hits = 0
        for seed in range(20):
            mu_c, mu_s = sample_orthogonal_means(d, r, r, stream(seed, "p3"))
            inst = ProblemInstance(mu_c, mu_s, 1.0, 0.0, n_e, n_e, sigma, seed)
            env_1 = sample_environment(inst, 1, stream(seed, "p3a"))
            env_2 = sample_environment(inst, 2, stream(seed, "p3b"))
            data = pool(env_1, env_2)
            if normalized_margin(mean_estimator(data), data, sigma) >= target:
                hits += 1
        assert hits >= 18


class TestPerEnvMean:
    def test_noiseless(self):
        mu_c, mu_s = sample_orthogonal_means(8, 1.0, 2.0, stream(2))
        d_1, d_2 = noiseless_pair(mu_c, mu_s, 0.5, -0.5)
        data = pool(d_1, d_2)
        np.testing.assert_allclose(per_env_mean(data, 1).w, mu_c + 0.5 * mu_s, atol=1e-12)
        np.testing.assert_allclose(per_env_mean(data, 2).w, mu_c - 0.5 * mu_s, atol=1e-12)

    def test_single_row(self):
        x = np.array([1.0, 2.0])
        data = LabeledDataset(x[None, :], np.array([-1]), np.array([2]))
        np.testing.assert_allclose(per_env_mean(data, 2).w, -x)

    def test_absent_environment(self):
        data = LabeledDataset(np.ones((2, 2)), np.array([1, -1]), np.array([1, 1]))
        with pytest.raises(TwoEnvError):
            per_env_mean(data, 2)

    def test_expectation_over_draws(self):
        # E[w_e] = mu_c + theta_e mu_s, checked per coordinate at 4 SE
        d, n, draws, sigma, theta = 6, 16, 10_000, 0.8, -0.4
        mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(3))
        inst = ProblemInstance(mu_c, mu_s, theta, theta, n, n, sigma, 3)
        rng = stream(3, "draws")
        acc = np.zeros(d)
        for _ in range(draws):
            data = sample_environment(inst, 1, rng)
            acc += per_env_mean(data, 1).w
        acc /= draws
        se = sigma / math.sqrt(n * draws)
        np.testing.assert_allclose(acc, mu_c + theta * mu_s, atol=4 * se)


class TestTwoPhase:
    def test_noiseless_identified_spurious(self):
        # theta = (1, 0): the constraint zeroes the first coordinate, so the
        # result is the second stage-1 classifier, the core direction
        mu_c, mu_s = sample_orthogonal_means(12, 1.0, 2.0, stream(4))
        d_1, d_2 = noiseless_pair(mu_c, mu_s, 1.0, 0.0, reps=4)
        model = two_phase_learn(d_1, d_2, stream(4, "tp"))
        assert model.meta["v"] == pytest.approx((0.0, 1.0), abs=1e-12)
        np.testing.assert_allclose(model.w, mu_c, atol=1e-12)

    def test_noiseless_antisymmetric_coefficients(self):
        mu_c, mu_s = sample_orthogonal_means(12, 1.0, 2.0, stream(5))
        d_1, d_2 = noiseless_pair(mu_c, mu_s, 1.0, -1.0, reps=4)
        model = two_phase_learn(d_1, d_2, stream(5, "tp"))
        assert model.meta["v"] == pytest.approx((1.0, 1.0), abs=1e-12)
        np.testing.assert_allclose(model.w, 2.0 * mu_c, atol=1e-12)

    def test_constraint_feasibility_and_held_out_score(self):
        fitted = 0
        for trial in range(25):
            d_1 = random_dataset(stream(6, "a", trial), n=14, d=9)
            d_2 = random_dataset(stream(6, "b", trial), n=12, d=9)
            try:
                model = two_phase_learn(d_1, d_2, stream(6, "tp", trial))
            except DegenerateLabelsError:
                continue
            fitted += 1
            a_1, a_2 = model.meta["constraint_coeffs"]
            v = model.meta["v"]
            assert abs(a_1 * v[0] + a_2 * v[1]) <= 1e-9 * max(abs(a_1), abs(a_2))
            assert max(abs(v[0]), abs(v[1])) == pytest.approx(1.0, rel=1e-12)
            # the held-out score of v, recomputed from the recorded split;
            # its antipode -v scores the negative, so v must score >= 0
            seed = model.meta["split_seed"]
            halves = [_split_env(part, stream(seed, "split", k))
                      for k, part in ((1, d_1), (2, d_2))]
            assert [fit.n for fit, _ in halves] == [7, 6]
            (fit_1, fine_1), (fit_2, fine_2) = halves
            w_k = [fit_1.signed().mean(axis=0), fit_2.signed().mean(axis=0)]
            np.testing.assert_allclose(model.w, v[0] * w_k[0] + v[1] * w_k[1], rtol=1e-12)
            held_out = pool(fine_1, fine_2).signed()
            assert float((held_out @ model.w).sum()) >= 0.0
        assert fitted >= 20

    def test_split_is_seed_deterministic(self):
        d_1 = random_dataset(stream(7, "a"), n=10, d=5)
        d_2 = random_dataset(stream(7, "b"), n=10, d=5)
        m1 = two_phase_learn(d_1, d_2, stream(7, "tp"))
        m2 = two_phase_learn(d_1, d_2, stream(7, "tp"))
        np.testing.assert_array_equal(m1.w, m2.w)
        assert m1.meta == m2.meta

    def test_missing_fine_positives(self):
        X = np.ones((4, 3))
        all_neg = LabeledDataset(X, np.array([-1] * 4), np.ones(4, dtype=int))
        d_2 = random_dataset(stream(8), n=8, d=3)
        with pytest.raises(DegenerateLabelsError):
            two_phase_learn(all_neg, d_2, stream(8, "tp"))

    def test_degenerate_constraint(self):
        X = np.zeros((6, 3))
        y = np.array([1, -1, 1, -1, 1, -1])
        d_1 = LabeledDataset(X, y, np.ones(6, dtype=int))
        d_2 = LabeledDataset(X, y, np.full(6, 2, dtype=int))
        with pytest.raises(DegenerateConstraintError):
            two_phase_learn(d_1, d_2, stream(9, "tp"))
