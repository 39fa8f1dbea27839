"""Closed-form metric identities, oracle comparisons, and invariants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from twoenv import stream
from twoenv.errors import DegenerateLabelsError, TwoEnvError
from twoenv.metrics import (
    error_at_theta,
    gaussian_tail,
    gaussian_tail_inv,
    invariance_gaps,
    normalized_margin,
    robust_error,
    spurious_core_ratio,
)
from twoenv.model import LabeledDataset, LinearModel, sample_orthogonal_means, sample_reduced

from helpers import noiseless_pair


class TestGaussianTail:
    def test_symmetry_at_zero(self):
        assert gaussian_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_quadrature(self):
        # independent oracle: adaptive integration of the normal density
        # (the mass beyond 40 is below the double-precision floor)
        density = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        for t in (-6.0, -1.0, 0.5, 3.0):
            expected, err = quad(density, t, 40.0, epsabs=1e-14, epsrel=1e-13)
            assert err < 1e-12
            assert gaussian_tail(t) == pytest.approx(expected, abs=1e-12)

    def test_inverse_roundtrip(self):
        for p in (0.01, 0.3, 0.5):
            assert gaussian_tail(gaussian_tail_inv(p)) == pytest.approx(p, abs=1e-10)

    def test_monotone_and_complementary(self):
        grid = np.linspace(-8, 8, 401)
        vals = gaussian_tail(grid)
        assert np.all(np.diff(vals) < 0)
        np.testing.assert_allclose(vals + gaussian_tail(-grid), 1.0, atol=1e-14)

    def test_inverse_rejects_bad_input(self):
        with pytest.raises(TwoEnvError):
            gaussian_tail_inv(0.0)


def _geometry(d=20, seed=11, r_c=1.0, r_s=2.0):
    return sample_orthogonal_means(d, r_c, r_s, stream(seed, "geom"))


class TestErrorAtTheta:
    def test_core_aligned_classifier(self):
        mu_c, mu_s = _geometry()
        model = LinearModel(mu_c)
        for theta in (-1.0, 0.0, 0.7):
            assert error_at_theta(model, mu_c, mu_s, 0.5, theta) == pytest.approx(
                gaussian_tail(2.0), abs=1e-15
            )

    def test_orthogonal_classifier_is_chance(self):
        mu_c, mu_s = _geometry(d=6)
        w = np.zeros(6)
        # build a vector orthogonal to both means
        basis = np.linalg.svd(np.stack([mu_c, mu_s]))[2]
        w = basis[-1]
        model = LinearModel(w)
        for theta in (-1.0, 0.3, 1.0):
            assert error_at_theta(model, mu_c, mu_s, 1.0, theta) == pytest.approx(0.5, abs=1e-12)

    def test_against_monte_carlo(self):
        # fresh full-dimensional draws, classified by sign and compared to
        # the closed form; 1e6 samples put the binomial error near 5e-4
        d, sigma, theta, n_mc = 20, 0.8, 0.3, 1_000_000
        mu_c, mu_s = _geometry(d=d)
        rng = stream(77, "mc")
        w = rng.standard_normal(d)
        model = LinearModel(w)
        closed = error_at_theta(model, mu_c, mu_s, sigma, theta)
        mean = mu_c + theta * mu_s
        wrong = 0
        chunk = 200_000
        for _ in range(n_mc // chunk):
            y = np.where(rng.random(chunk) < 0.5, -1.0, 1.0)
            X = sigma * rng.standard_normal((chunk, d))
            X += y[:, None] * mean[None, :]
            wrong += int(((X @ w) * y <= 0).sum())
        mc = wrong / n_mc
        assert abs(closed - mc) <= 0.002

    def test_rejects_zero_sigma(self):
        mu_c, mu_s = _geometry(d=4)
        with pytest.raises(TwoEnvError):
            error_at_theta(LinearModel(mu_c), mu_c, mu_s, 0.0, 0.0)


class TestRobustError:
    def test_core_classifier(self):
        mu_c, mu_s = _geometry(r_c=1.0)
        res = robust_error(LinearModel(mu_c), mu_c, mu_s, 0.5)
        assert res.error == pytest.approx(gaussian_tail(2.0), abs=1e-15)

    def test_pure_spurious_classifier(self):
        mu_c, mu_s = _geometry(r_s=2.0)
        res = robust_error(LinearModel(mu_s), mu_c, mu_s, 0.5)
        assert res.error == pytest.approx(gaussian_tail(-4.0), abs=1e-15)
        assert res.error >= 0.5

    def test_matches_grid_maximum(self):
        mu_c, mu_s = _geometry(d=30, seed=3)
        rng = stream(13)
        grid = np.linspace(-1.0, 1.0, 201)
        for _ in range(25):
            model = LinearModel(rng.standard_normal(30))
            grid_max = max(error_at_theta(model, mu_c, mu_s, 0.6, t) for t in grid)
            res = robust_error(model, mu_c, mu_s, 0.6)
            assert res.error == pytest.approx(grid_max, abs=1e-12)
            assert res.error >= grid_max
            assert -1.0 <= res.worst_theta <= 1.0

    def test_ratio_error_link(self):
        # a spurious-to-core ratio of at least one forces robust error >= 1/2
        mu_c, mu_s = _geometry(d=12, seed=29)
        rng = stream(31)
        checked = 0
        while checked < 50:
            model = LinearModel(rng.standard_normal(12))
            wc = float(model.w @ mu_c)
            if wc <= 1e-12:
                continue
            ratio = spurious_core_ratio(model, mu_c, mu_s)
            if abs(ratio) < 1.0:
                continue
            checked += 1
            assert robust_error(model, mu_c, mu_s, 0.4).error >= 0.5 - 1e-12


class TestNormalizedMargin:
    def test_single_sample_plug_in(self):
        d = 16
        mu_c, _ = _geometry(d=d)
        data = LabeledDataset(mu_c[None, :], np.array([1]), np.array([1]))
        sigma = 1.0 / math.sqrt(d)  # makes the normalizer exactly one
        assert normalized_margin(LinearModel(mu_c), data, sigma) == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = stream(41)
        X = rng.standard_normal((9, 5))
        data = LabeledDataset(X, np.where(rng.random(9) < 0.5, -1, 1), np.ones(9, dtype=int))
        w = rng.standard_normal(5)
        base = normalized_margin(LinearModel(w), data, 0.7)
        for c in (1e-6, 1.0, 7.0, 1e6):
            scaled = normalized_margin(LinearModel(c * w), data, 0.7)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_matches_bruteforce_minimum(self):
        rng = stream(43)
        X = rng.standard_normal((5, 4))
        y = np.array([1, -1, 1, 1, -1])
        data = LabeledDataset(X, y, np.ones(5, dtype=int))
        w = rng.standard_normal(4)
        sigma = 0.9
        per_sample = [
            y[i] * float(X[i] @ w) / (np.linalg.norm(w) * math.sqrt(sigma**2 * 4))
            for i in range(5)
        ]
        assert normalized_margin(LinearModel(w), data, sigma) == pytest.approx(
            min(per_sample), rel=1e-12
        )

    def test_empty_dataset_rejected(self):
        data = LabeledDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        with pytest.raises(TwoEnvError):
            normalized_margin(LinearModel(np.ones(3)), data, 1.0)

    def test_reduced_draw_reads_the_ambient_dimension(self):
        d, sigma = 10_000, 0.01
        _, data = sample_reduced(d, 1.0, 2.0, 1.0, 0.0, 6, 4, sigma, 0, stream(0, "nm"))
        w = data.signed().mean(axis=0)
        expected = (data.y * (data.X @ w)).min() / (np.linalg.norm(w) * sigma * math.sqrt(d))
        assert normalized_margin(LinearModel(w), data, sigma) == pytest.approx(expected, rel=1e-12)


class TestSpuriousCoreRatio:
    def test_plug_in(self):
        mu_c, mu_s = _geometry(r_c=1.0, r_s=2.0)
        assert spurious_core_ratio(LinearModel(mu_c + mu_s), mu_c, mu_s) == pytest.approx(
            4.0, rel=1e-9
        )
        assert spurious_core_ratio(LinearModel(mu_c), mu_c, mu_s) == pytest.approx(0.0, abs=1e-9)

    def test_zero_core_alignment_is_error(self):
        mu_c, mu_s = _geometry()
        with pytest.raises(TwoEnvError):
            spurious_core_ratio(LinearModel(mu_s), mu_c, mu_s)


class TestInvarianceGaps:
    def test_spurious_free_classifier_has_zero_gaps(self):
        mu_c, mu_s = _geometry(d=8, seed=2)
        d_1, d_2 = noiseless_pair(mu_c, mu_s, 1.0, 0.0)
        gap = invariance_gaps(LinearModel(mu_c), d_1, d_2)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_pure_spurious_plug_in(self):
        mu_c, mu_s = _geometry(d=8, seed=2, r_s=2.0)
        d_1, d_2 = noiseless_pair(mu_c, mu_s, 1.0, 0.0)
        gap = invariance_gaps(LinearModel(mu_s), d_1, d_2)
        assert gap == pytest.approx(4.0, rel=1e-9)

    def test_matches_per_row_summation(self):
        rng = stream(59)
        X1, X2 = rng.standard_normal((8, 6)), rng.standard_normal((10, 6))
        y1 = np.array([1, 1, -1, 1, -1, -1, 1, -1])
        y2 = np.where(rng.random(10) < 0.5, -1, 1)
        y2[:2] = 1
        d_1 = LabeledDataset(X1, y1, np.ones(8, dtype=int))
        d_2 = LabeledDataset(X2, y2, np.full(10, 2, dtype=int))
        w = rng.standard_normal(6)
        gap = invariance_gaps(LinearModel(w), d_1, d_2)
        t1 = sum(float(X1[i] @ w) for i in range(8) if y1[i] == 1) / (y1 == 1).sum()
        t2 = sum(float(X2[i] @ w) for i in range(10) if y2[i] == 1) / (y2 == 1).sum()
        assert gap == pytest.approx(t1 - t2, rel=1e-12)

    def test_missing_positives_is_distinct_error(self):
        mu_c, mu_s = _geometry(d=4)
        d_1, _ = noiseless_pair(mu_c, mu_s, 1.0, 0.0)
        all_neg = LabeledDataset(
            -np.ones((3, 4)), np.array([-1, -1, -1]), np.full(3, 2, dtype=int)
        )
        with pytest.raises(DegenerateLabelsError):
            invariance_gaps(LinearModel(mu_c), d_1, all_neg)
