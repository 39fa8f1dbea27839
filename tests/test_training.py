"""Gradient descent, penalties, and the hard-margin solver."""

import itertools

import numpy as np
import pytest

from twoenv import stream, training
from twoenv.errors import NonSeparableError, TwoEnvError
from twoenv.estimators import mean_estimator
from twoenv.experiments import SigmaRule, resolve_sigma
from twoenv.metrics import normalized_margin
from twoenv.model import LabeledDataset, ProblemInstance, sample_dataset, sample_orthogonal_means
from twoenv.presets import load_constants
from twoenv.training import (
    PENALTY_KINDS,
    TrainConfig,
    cosine_similarity,
    gd_train,
    irm_margin_alignment,
    max_margin,
    objective_gradient,
    objective_value,
    penalty_value_and_slope,
    _slope,
)

from helpers import random_dataset, reference_gd


class TestGdTrain:
    def test_separable_two_points(self):
        data = LabeledDataset(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]), np.array([1, 2])
        )
        model, trace = gd_train(data, TrainConfig(max_iters=2000))
        assert trace.train_err[-1] == 0.0
        assert trace.margin[-1] > 0.0
        assert cosine_similarity(model.w, [1.0, 0.0]) > 0.999

    def test_irmv1_value_at_constant_margins(self):
        # every signed margin equal to c: the penalty collapses to
        # sum over the two environments of (c * slope(c))^2
        c = 0.8
        X = np.full((6, 1), c)
        data = LabeledDataset(X, np.ones(6, dtype=int), np.array([1, 1, 1, 2, 2, 2]))
        m = data.signed() @ np.array([1.0])
        value, _ = penalty_value_and_slope("irmv1", m, [data.env == 1, data.env == 2])
        expected = 2.0 * (c * float(_slope(np.array([c]))[0])) ** 2
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["none", "irmv1", "vrex", "groupdro", "moment_match"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = stream(21, kind)
        data = random_dataset(rng, n=8, d=10)
        cfg = TrainConfig(penalty_kind=kind, penalty_weight=3.0, l2_weight=0.01)
        w = rng.standard_normal(10) * 0.7
        grad = objective_gradient(data, cfg, w)
        h = 1e-6
        fd = np.array(
            [
                (objective_value(data, cfg, w + h * e) - objective_value(data, cfg, w - h * e))
                / (2 * h)
                for e in np.eye(10)
            ]
        )
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(grad), 1e-12)

    @pytest.mark.parametrize("kind", ["irmv1", "vrex", "groupdro", "moment_match"])
    def test_penalty_vanishes_on_identical_environments(self, kind):
        rng = stream(23, kind)
        X = rng.standard_normal((5, 4))
        y = np.array([1, -1, 1, 1, -1])
        data = LabeledDataset(
            np.vstack([X, X]), np.concatenate([y, y]),
            np.array([1] * 5 + [2] * 5),
        )
        m = data.signed() @ rng.standard_normal(4)
        value, _ = penalty_value_and_slope(kind, m, [data.env == 1, data.env == 2])
        if kind == "groupdro":
            # max of equal losses equals either one; zero-gap, not zero level
            assert value == pytest.approx(float(np.logaddexp(0, -m[:5]).mean()), rel=1e-12)
        elif kind == "irmv1":
            # per-environment scale-gradient terms coincide; the penalty is
            # twice the single-environment value, with no cross-env surcharge
            half, _ = penalty_value_and_slope(kind, m[:5], [np.ones(5, dtype=bool)])
            assert value == pytest.approx(2.0 * half, rel=1e-12)
        else:
            assert value == pytest.approx(0.0, abs=1e-15)

    def test_objective_monotone_under_backtracking(self):
        data = random_dataset(stream(27), n=20, d=6)
        cfg = TrainConfig(
            penalty_kind="vrex", penalty_weight=10.0, max_iters=400, learning_rate=0.5,
            log_every=1,
        )
        _, trace = gd_train(data, cfg)
        totals = [l + 10.0 * p for l, p in zip(trace.loss, trace.penalty)]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_penalties_require_both_environments(self):
        data = random_dataset(stream(29), n=6, d=4)
        single = LabeledDataset(data.X, data.y, np.ones(6, dtype=int))
        with pytest.raises(TwoEnvError):
            gd_train(single, TrainConfig(penalty_kind="vrex", penalty_weight=1.0))

    def test_span_path_matches_direct_path(self):
        # d > 2N triggers the Gram parameterization, d <= 2N the direct one;
        # both must follow the same explicit fixed-step descent
        rng = stream(31)
        data = random_dataset(rng, n=6, d=20)
        direct = LabeledDataset(data.X[:, :11], data.y, data.env)
        cfg = TrainConfig(max_iters=300)
        for ds in (data, direct):
            model, _ = gd_train(ds, cfg)
            w = np.zeros(ds.d)
            Z = ds.signed()
            for _ in range(300):
                mrg = Z @ w
                coeff = _slope(mrg) / ds.n
                w = w - 0.1 * (Z.T @ coeff)
            assert np.linalg.norm(model.w - w) <= 1e-8 * np.linalg.norm(w)

    @pytest.mark.parametrize("d", [8, 30])  # N=12: direct path at 8, span path at 30
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_matches_reference_descent(self, kind, d):
        data = random_dataset(stream(59, kind, d), n=12, d=d)
        cfg = TrainConfig(penalty_kind=kind, penalty_weight=1.0, anneal_schedule=100,
                          max_iters=300, log_every=1000)
        model, _ = gd_train(data, cfg)
        w = reference_gd(data, cfg)
        assert np.linalg.norm(model.w - w) <= 1e-10 * np.linalg.norm(w)

    @pytest.mark.parametrize("d", [8, 30])
    def test_ridge_warm_start_matches_reference(self, d):
        # the ridge route of irm_margin_alignment: each level warm-starts
        # from the previous level's weights
        data = random_dataset(stream(61, d), n=12, d=d)
        w_warm = None
        for lam2 in (1e-1, 1e-2):
            cfg = TrainConfig(penalty_kind="irmv1", penalty_weight=1.0, l2_weight=lam2,
                              max_iters=200, log_every=1000)
            model, _ = gd_train(data, cfg, w0=w_warm)
            w = reference_gd(data, cfg, w0=w_warm)
            assert np.linalg.norm(model.w - w) <= 1e-10 * np.linalg.norm(w)
            w_warm = model.w

    def test_acceptance_sweep_run_hits_cap_with_exact_margins(self, monkeypatch):
        # a wide (d > 2N) run at the sweep settings never meets the gradient
        # tolerance; after 3,000 carried updates the margins the objective
        # sees must still equal Z @ w
        d, n_1, n_2 = 5120, 800, 100
        sigma = resolve_sigma(SigmaRule("scaling", float(load_constants()["kappa"])),
                              d, n_1 + n_2, 1.0)
        mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(63, "means"))
        data = sample_dataset(ProblemInstance(mu_c, mu_s, 1.0, 0.0, n_1, n_2, sigma, 63),
                              stream(63, "data"))
        seen = []

        def spy(kind, m, masks):
            seen.append(m)
            return penalty_value_and_slope(kind, m, masks)

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        cfg = TrainConfig(penalty_kind="vrex", penalty_weight=100.0, anneal_schedule=500,
                          max_iters=3000, log_every=3000)
        model, trace = gd_train(data, cfg, sigma=sigma)
        assert trace.stop_reason == "max_iters" and not trace.converged
        assert model.meta["stop_reason"] == "max_iters"
        assert model.meta["iters"] == 2999
        exact = data.signed() @ model.w
        assert np.linalg.norm(seen[-1] - exact) <= 1e-10 * np.linalg.norm(exact)

    def test_stall_is_not_convergence(self):
        # the worst-group objective has its minimum at the kink w = 0, where
        # the gradient never vanishes: backtracking runs out of halvings
        data = random_dataset(stream(71, 1), n=8, d=2)
        cfg = TrainConfig(penalty_kind="groupdro", penalty_weight=1.0, tolerance=1e-300,
                          max_iters=3000)
        model, trace = gd_train(data, cfg)
        assert trace.stop_reason == "stalled" and not trace.converged
        assert model.meta["stop_reason"] == "stalled"
        assert model.meta["iters"] < 3000 - 1
        assert trace.final_grad_norm > 1e-3

    def test_easy_run_converges(self):
        data = random_dataset(stream(79), n=30, d=2)  # non-separable: finite minimizer
        model, trace = gd_train(data, TrainConfig(tolerance=1e-6, max_iters=3000))
        assert trace.stop_reason == "converged" and trace.converged
        assert model.meta["stop_reason"] == "converged"
        assert trace.final_grad_norm <= 1e-6

    def test_anneal_defers_penalty(self):
        data = random_dataset(stream(33), n=10, d=4)
        cfg = TrainConfig(
            penalty_kind="vrex", penalty_weight=50.0, anneal_schedule=50, max_iters=60,
            log_every=1000,
        )
        model, trace = gd_train(data, cfg)
        assert model is not None  # ran through activation without error


class TestMaxMargin:
    def test_textbook_two_points(self):
        data = LabeledDataset(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]), np.array([1, 2])
        )
        model = max_margin(data, tol=1e-10)
        np.testing.assert_allclose(model.w, [1.0, 0.0], atol=1e-8)

    def test_kkt_feasibility(self):
        for seed in range(10):
            rng = stream(37, seed)
            data = random_dataset(rng, n=8, d=20)  # overparameterized: separable
            tol = 1e-8
            model = max_margin(data, tol=tol)
            margins = data.y * model.scores(data.X)
            assert margins.min() >= 1.0
            assert margins.min() <= 1.0 + 1e-6

    def test_matches_active_set_bruteforce_2d(self):
        # exhaustive oracle: every support subset of size 1 or 2 solved in
        # closed form, feasible candidates compared by norm
        def brute(Z):
            n = Z.shape[0]
            best = None
            for size in (1, 2):
                for idx in itertools.combinations(range(n), size):
                    A = Z[list(idx)]
                    gram = A @ A.T
                    try:
                        lam = np.linalg.solve(gram, np.ones(size))
                    except np.linalg.LinAlgError:
                        continue
                    if np.any(lam < -1e-12):
                        continue
                    w = A.T @ lam
                    if np.all(Z @ w >= 1.0 - 1e-9):
                        norm = np.linalg.norm(w)
                        if best is None or norm < best[0] - 1e-15:
                            best = (norm, w)
            return best

        found = 0
        for seed in range(40):
            rng = stream(41, seed)
            n = int(rng.integers(3, 7))
            X = rng.standard_normal((n, 2))
            y = np.where(rng.random(n) < 0.5, -1, 1)
            data = LabeledDataset(X, y, np.ones(n, dtype=int))
            oracle = brute(data.signed())
            if oracle is None:
                with pytest.raises(NonSeparableError):
                    max_margin(data, tol=1e-9)
                continue
            found += 1
            model = max_margin(data, tol=1e-9)
            np.testing.assert_allclose(model.w, oracle[1], atol=1e-6)
        assert found >= 10  # the sweep must actually exercise separable cases

    def test_nonseparable_certificate(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        data = LabeledDataset(X, np.array([1, -1]), np.array([1, 2]))
        with pytest.raises(NonSeparableError) as excinfo:
            max_margin(data, tol=1e-9)
        assert excinfo.value.violated_index in (0, 1)
        assert excinfo.value.margin <= 0.0

    def test_margin_dominates_mean_estimator(self):
        wins = 0
        for seed in range(100):
            rng = stream(43, seed)
            data = random_dataset(rng, n=10, d=25)
            sigma = 0.8
            svm_margin = normalized_margin(max_margin(data, tol=1e-9), data, sigma)
            mean_margin = normalized_margin(mean_estimator(data), data, sigma)
            assert svm_margin >= mean_margin - 1e-9
            wins += 1
        assert wins == 100


class TestAlignment:
    def test_cosine_basics(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, rel=1e-12)
        assert cosine_similarity(v, 100.0 * v) == pytest.approx(1.0, rel=1e-12)
        assert cosine_similarity(17.0 * v, v) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(TwoEnvError):
            cosine_similarity(v, np.zeros(3))

    def test_plain_gd_approaches_max_margin_on_toy(self):
        # strongly overparameterized toy: the implicit bias of long-run
        # descent lands close to the hard-margin direction
        rng = stream(47)
        data = random_dataset(rng, n=6, d=400)
        cfg = TrainConfig(max_iters=60_000, penalty_kind="none", log_every=10_000)
        model, _ = gd_train(data, cfg)
        svm = max_margin(data, tol=1e-10)
        assert cosine_similarity(model.w, svm.w) >= 0.99

    def test_alignment_rows(self):
        rng = stream(53)
        data = random_dataset(rng, n=8, d=120)
        cfg = TrainConfig(max_iters=4000, penalty_weight=1.0, log_every=1000)
        rows = irm_margin_alignment([(120, data)], cfg, ridge_schedule=(1e-1, 1e-2, 1e-3))
        assert rows[0].d == 120
        assert -1.0 <= rows[0].cos_ridge_path <= 1.0
        assert rows[0].cos_plain_gd > 0.8

    def test_alignment_propagates_nonseparable(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        data = LabeledDataset(X, np.array([1, -1]), np.array([1, 2]))
        with pytest.raises(NonSeparableError):
            irm_margin_alignment([(2, data)], TrainConfig(max_iters=100))
