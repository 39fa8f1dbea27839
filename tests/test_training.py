"""Gradient descent, penalties, and the hard-margin solver."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from twoenv import stream, training
from twoenv.errors import NonSeparableError, TwoEnvError
from twoenv.estimators import mean_estimator
from twoenv.experiments import SigmaRule, resolve_sigma
from twoenv.metrics import normalized_margin
from twoenv.model import (
    LabeledDataset,
    ProblemInstance,
    sample_dataset,
    sample_orthogonal_means,
    sample_reduced,
)
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


class TestTrainConfig:
    def test_anneal_schedule_must_be_nonnegative(self):
        with pytest.raises(TwoEnvError, match="anneal_schedule"):
            TrainConfig(anneal_schedule=-3)
        assert TrainConfig(anneal_schedule=0).anneal_schedule == 0


class TestGdTrain:
    def test_separable_two_points(self):
        data = LabeledDataset(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]), np.array([1, 2])
        )
        model, _ = gd_train(data, TrainConfig(max_iters=2000))
        assert (data.y * model.scores(data.X)).min() > 0.0
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

    def test_objective_monotone_under_backtracking(self, monkeypatch):
        # the max_iters = k runs are the length-k prefixes of one run; the
        # objective at their weights must not increase beyond round-off
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return penalty_value_and_slope(*args, **kwargs)

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        data = random_dataset(stream(27), n=20, d=6)
        cfg = TrainConfig(penalty_kind="vrex", penalty_weight=10.0, learning_rate=0.5)
        totals = [objective_value(data, cfg, np.zeros(data.d))]
        for k in range(1, 151):
            calls.clear()
            model, _ = gd_train(data, replace(cfg, max_iters=k))
            totals.append(objective_value(data, cfg, model.w))
        assert len(calls) > 150 + 1  # the longest prefix rejected some steps
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_penalties_require_both_environments(self):
        data = random_dataset(stream(29), n=6, d=4)
        single = LabeledDataset(data.X, data.y, np.ones(6, dtype=int))
        with pytest.raises(TwoEnvError):
            gd_train(single, TrainConfig(penalty_kind="vrex", penalty_weight=1.0))

    def test_span_path_matches_direct_path(self):
        # d > N triggers the Gram parameterization, d <= N the direct one;
        # both must follow the same explicit fixed-step descent
        rng = stream(31)
        data = random_dataset(rng, n=6, d=20)
        direct = LabeledDataset(data.X[:, :5], data.y, data.env)
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
                          max_iters=300)
        model, _ = gd_train(data, cfg)
        w = reference_gd(data, cfg)
        assert np.linalg.norm(model.w - w) <= 1e-10 * np.linalg.norm(w)

    @pytest.mark.parametrize("d", [8, 30])
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_matches_reference_descent_with_rejected_steps(self, kind, d, monkeypatch):
        # the case above at rate 20, where candidates get rejected: a buffer
        # swap that touched the current iterate on a rejected candidate
        # would show here
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return penalty_value_and_slope(*args, **kwargs)

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        data = random_dataset(stream(59, kind, d), n=12, d=d)
        cfg = TrainConfig(penalty_kind=kind, penalty_weight=1.0, anneal_schedule=100,
                          max_iters=300, learning_rate=20.0)
        model, _ = gd_train(data, cfg)
        w = reference_gd(data, cfg)
        assert np.linalg.norm(model.w - w) <= 1e-10 * np.linalg.norm(w)
        # one evaluation at the start, one at the anneal iteration and one
        # per step; every penalized run at d=8 and moment_match on the span
        # path backtrack at this rate (312 to 607 evaluations for 300 steps)
        if kind != "none" and (d == 8 or kind == "moment_match"):
            assert len(calls) > cfg.max_iters + 2

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("d", [8, 30])
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_logged_objective_is_the_reference_objective(self, kind, d, l2, monkeypatch):
        # the trainer's loss form and carried margins against objective_value,
        # which recomputes Z @ w and takes logaddexp/expit; the losses and
        # penalty of the trainer's last evaluation are read off the one
        # penalty call it makes per evaluation
        seen = []

        def spy(kind_, m, masks, *args, **kwargs):
            pen, dm = penalty_value_and_slope(kind_, m, masks, *args, **kwargs)
            if "ell" in kwargs:  # the trainer's calls, not objective_value's
                seen.append((kind_, float(kwargs["ell"].sum()), pen))
            return pen, dm

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        data = random_dataset(stream(65, kind, d), n=12, d=d)
        cfg = TrainConfig(penalty_kind=kind, penalty_weight=1.0, l2_weight=l2,
                          anneal_schedule=100, max_iters=300)
        model, trace = gd_train(data, cfg)
        # a run capped at max_iters ends on an accepted step, so its last
        # evaluation is the returned iterate's
        assert trace.stop_reason == "max_iters"
        last_kind, loss_sum, pen = seen[-1]
        assert last_kind == kind
        w = model.w
        logged = loss_sum / data.n + cfg.penalty_weight * pen + l2 * float(w @ w)
        reference = objective_value(data, cfg, w)
        assert logged == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("d", [8, 30])
    def test_ridge_warm_start_matches_reference(self, d):
        # the ridge route of irm_margin_alignment: each level warm-starts
        # from the previous level's weights
        data = random_dataset(stream(61, d), n=12, d=d)
        w_warm = None
        for lam2 in (1e-1, 1e-2):
            cfg = TrainConfig(penalty_kind="irmv1", penalty_weight=1.0, l2_weight=lam2,
                              max_iters=200)
            model, _ = gd_train(data, cfg, w0=w_warm)
            w = reference_gd(data, cfg, w0=w_warm)
            assert np.linalg.norm(model.w - w) <= 1e-10 * np.linalg.norm(w)
            w_warm = model.w

    def test_acceptance_sweep_run_hits_cap_with_exact_margins(self, monkeypatch):
        # a wide (d > N) run at the sweep settings never meets the gradient
        # tolerance; after 3,000 carried updates the margins the objective
        # sees must still equal Z @ w
        d, n_1, n_2 = 5120, 800, 100
        sigma = resolve_sigma(SigmaRule("scaling", float(load_constants()["kappa"])),
                              d, n_1 + n_2, 1.0)
        mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(63, "means"))
        data = sample_dataset(ProblemInstance(mu_c, mu_s, 1.0, 0.0, n_1, n_2, sigma, 63),
                              stream(63, "data"))
        seen = []

        def spy(kind, m, masks, *args, **kwargs):
            seen.append(m)
            return penalty_value_and_slope(kind, m, masks, *args, **kwargs)

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        cfg = TrainConfig(penalty_kind="vrex", penalty_weight=100.0, anneal_schedule=500,
                          max_iters=3000)
        model, trace = gd_train(data, cfg)
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

    @pytest.mark.parametrize("weight", [0.0, 100.0])
    def test_penalty_free_run_does_not_wait_for_the_anneal(self, weight):
        data = random_dataset(stream(79), n=30, d=2)
        cfg = TrainConfig(penalty_kind="none", penalty_weight=weight, tolerance=1e-4,
                          max_iters=3000)
        model, trace = gd_train(data, replace(cfg, anneal_schedule=500))
        plain, _ = gd_train(data, cfg)
        assert trace.stop_reason == "converged" and model.meta["iters"] < 500
        np.testing.assert_array_equal(model.w, plain.w)

    def test_anneal_defers_penalty(self, monkeypatch):
        # before the anneal iteration the penalty weight is zero, and each
        # evaluation still makes one penalty call, of the "none" kind
        kinds = []

        def spy(kind, *args, **kwargs):
            kinds.append(kind)
            return penalty_value_and_slope(kind, *args, **kwargs)

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        data = random_dataset(stream(33), n=10, d=4)
        cfg = TrainConfig(penalty_kind="vrex", penalty_weight=50.0, anneal_schedule=50,
                          max_iters=60)
        gd_train(data, cfg)
        before = kinds.index("vrex")
        assert before >= 51 and set(kinds[:before]) == {"none"}
        assert set(kinds[before:]) == {"vrex"}


def _same_run(a, b):
    """Two ``gd_train`` results with equal weight bytes, ``meta`` and trace."""
    (model_a, trace_a), (model_b, trace_b) = a, b
    return (model_a.w.tobytes() == model_b.w.tobytes() and model_a.meta == model_b.meta
            and trace_a == trace_b)


class TestPrefixSharing:
    """Runs on one dataset resume from the iterate stored at the anneal iteration."""

    @pytest.mark.parametrize("lr", [0.1, 20.0])  # 20: steps halve before the anneal
    @pytest.mark.parametrize("d", [8, 30])  # N=12: direct path at 8, span path at 30
    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_resumed_run_is_the_fresh_run(self, kind, d, lr):
        data = random_dataset(stream(91, kind, d), n=12, d=d)
        cfg = TrainConfig(penalty_kind=kind, penalty_weight=1.0, anneal_schedule=100,
                          max_iters=300, learning_rate=lr)
        # the run that records has another penalty than the one that resumes
        recorder = replace(cfg, penalty_kind="irmv1" if kind == "none" else "none")
        prefixes = {}
        assert _same_run(gd_train(data, recorder, prefixes=prefixes), gd_train(data, recorder))
        assert len(prefixes) == 1
        assert _same_run(gd_train(data, cfg, prefixes=prefixes), gd_train(data, cfg))
        assert len(prefixes) == 1

    def test_resumed_run_skips_the_prefix_evaluations(self, monkeypatch):
        # at rate 20 this draw halves a step before many anneal iterations in
        # 1-20: a resumed run that tried the rate in place of the stored step
        # size would make an extra evaluation there
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return penalty_value_and_slope(*args, **kwargs)

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        data = random_dataset(stream(91, "none", 8), n=12, d=8)

        def evaluations(config, **kwargs):
            calls.clear()
            out = gd_train(data, config, **kwargs)
            return len(calls), out

        for anneal in range(1, 21):
            cfg = TrainConfig(penalty_kind="vrex", penalty_weight=1.0, anneal_schedule=anneal,
                              max_iters=anneal + 50, learning_rate=20.0)
            prefix, _ = evaluations(replace(cfg, max_iters=anneal))  # the steps before it
            fresh, fresh_out = evaluations(cfg)
            prefixes = {}
            evaluations(replace(cfg, penalty_kind="none"), prefixes=prefixes)
            resumed, resumed_out = evaluations(cfg, prefixes=prefixes)
            assert _same_run(resumed_out, fresh_out)
            assert resumed == fresh - prefix
        assert prefix > 1 + 20  # one evaluation at the start, one per step and the halvings

    def test_early_convergence_is_not_shared(self):
        # the penalty-free run meets the tolerance before the anneal and stops;
        # the penalized run passes the same iterate and goes on, so neither
        # may store its anneal iterate for the other
        data = random_dataset(stream(79), n=30, d=2)
        erm = TrainConfig(tolerance=1e-4, anneal_schedule=500, max_iters=3000)
        vrex = replace(erm, penalty_kind="vrex", penalty_weight=100.0)
        prefixes = {}
        for cfg in (vrex, erm, vrex, erm):
            out = gd_train(data, cfg, prefixes=prefixes)
            assert _same_run(out, gd_train(data, cfg))
            assert not prefixes
        assert gd_train(data, erm)[0].meta["iters"] < 500

    @pytest.mark.parametrize("field, value", [("learning_rate", 0.05), ("tolerance", 1e-9),
                                              ("l2_weight", 1e-3), ("anneal_schedule", 60)])
    def test_each_prefix_field_keys_its_own_prefix(self, field, value):
        data = random_dataset(stream(95), n=12, d=30)
        base = TrainConfig(anneal_schedule=100, max_iters=300)
        prefixes = {}
        gd_train(data, base, prefixes=prefixes)
        other = replace(base, penalty_kind="vrex", penalty_weight=1.0, **{field: value})
        assert _same_run(gd_train(data, other, prefixes=prefixes), gd_train(data, other))
        assert len(prefixes) == 2

    @pytest.mark.parametrize("anneal, max_iters", [(None, 300), (0, 300), (100, 100),
                                                   (100, 60)])
    def test_no_prefix_outside_the_run(self, anneal, max_iters):
        # a run that never reaches its anneal iteration neither stores nor resumes
        data = random_dataset(stream(97), n=12, d=30)
        cfg = TrainConfig(penalty_kind="vrex", penalty_weight=1.0, anneal_schedule=anneal,
                          max_iters=max_iters)
        prefixes = {}
        assert _same_run(gd_train(data, cfg, prefixes=prefixes), gd_train(data, cfg))
        assert not prefixes
        gd_train(data, replace(cfg, anneal_schedule=100, max_iters=300), prefixes=prefixes)
        assert _same_run(gd_train(data, cfg, prefixes=prefixes), gd_train(data, cfg))

    def test_warm_start_neither_stores_nor_resumes(self):
        data = random_dataset(stream(99), n=12, d=30)
        cfg = TrainConfig(penalty_kind="vrex", penalty_weight=1.0, anneal_schedule=100,
                          max_iters=300)
        w0 = gd_train(data, replace(cfg, max_iters=20))[0].w
        prefixes = {}
        assert _same_run(gd_train(data, cfg, w0=w0, prefixes=prefixes),
                         gd_train(data, cfg, w0=w0))
        assert not prefixes
        gd_train(data, cfg, prefixes=prefixes)
        assert _same_run(gd_train(data, cfg, w0=w0, prefixes=prefixes),
                         gd_train(data, cfg, w0=w0))


class TestGdStep:
    """The per-step kernels: environment selectors, penalty pass, Gram product."""

    def test_env_masks_are_slices_on_sampler_blocks(self):
        _, data = sample_reduced(40, 1.0, 2.0, 1.0, 0.0, 7, 5, 0.5, 0, stream(83, "blocks"))
        assert training._env_masks(data) == [slice(0, 7), slice(7, 12)]
        interleaved = random_dataset(stream(83, "interleaved"), n=12, d=4)
        selectors = training._env_masks(interleaved)
        assert [sel.dtype for sel in selectors] == [np.dtype(bool), np.dtype(bool)]
        for e, sel in zip((1, 2), selectors):
            np.testing.assert_array_equal(sel, interleaved.env == e)

    @pytest.mark.parametrize("kind", PENALTY_KINDS)
    def test_penalty_bitwise_equal_across_selectors_and_precompute(self, kind):
        rng = stream(85, kind)
        m = 3.0 * rng.standard_normal(30)
        env = np.array([1] * 18 + [2] * 12)
        data = LabeledDataset(np.ones((30, 1)), np.ones(30, dtype=int), env)
        slices = training._env_masks(data)
        assert all(isinstance(sel, slice) for sel in slices)
        shared = {"ell": np.logaddexp(0.0, -m), "s": expit(-m)}
        ref_value, ref_dm = penalty_value_and_slope(kind, m, [env == 1, env == 2])
        if kind in ("vrex", "groupdro"):
            # sum / count is bitwise the ndarray.mean the loss levels used to take
            losses = [float(np.logaddexp(0.0, -m[env == e]).mean()) for e in (1, 2)]
            mean_loss = sum(losses) / 2
            spread = sum((le - mean_loss) ** 2 for le in losses) / 2
            assert ref_value == (spread if kind == "vrex" else max(losses))
        for masks in (slices, [env == 1, env == 2]):
            for extra in ({}, shared):
                value, dm = penalty_value_and_slope(kind, m, masks, **extra)
                assert value == ref_value
                assert dm.tobytes() == ref_dm.tobytes()

    def test_span_direction_is_the_gram_product_without_a_copy(self, monkeypatch):
        data = random_dataset(stream(87), n=300, d=400)
        space = training._SpanSpace(data.signed())
        assert np.array_equal(space.K, space.K.T)  # dsymv reads one triangle
        handed = []
        real = training.dsymv

        def spy(alpha, a, *args, **kwargs):
            handed.append(a)
            return real(alpha, a, *args, **kwargs)

        monkeypatch.setattr(training, "dsymv", spy)
        c = stream(87, "c").standard_normal(300)
        tracemalloc.start()
        try:
            _, Kc, sq = space.direction(c, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        exact = space.K @ c
        assert np.linalg.norm(Kc - exact) <= 1e-13 * np.linalg.norm(exact)
        assert sq == pytest.approx(float(c @ exact), rel=1e-13)
        # the operand is a view of K, and f2py allocated no copy of it
        assert np.shares_memory(handed[0], space.K) and handed[0].flags.f_contiguous
        assert peak < space.K.nbytes // 10


class TestMaxMargin:
    def test_textbook_two_points(self):
        data = LabeledDataset(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1, -1]), np.array([1, 2])
        )
        model = max_margin(data)
        np.testing.assert_allclose(model.w, [1.0, 0.0], atol=1e-8)

    def test_kkt_feasibility(self):
        for seed in range(10):
            rng = stream(37, seed)
            data = random_dataset(rng, n=8, d=20)  # overparameterized: separable
            model = max_margin(data)
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
                    max_margin(data)
                continue
            found += 1
            model = max_margin(data)
            np.testing.assert_allclose(model.w, oracle[1], atol=1e-6)
        assert found >= 10  # the sweep must actually exercise separable cases

    def test_nonseparable_certificate(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        data = LabeledDataset(X, np.array([1, -1]), np.array([1, 2]))
        with pytest.raises(NonSeparableError) as excinfo:
            max_margin(data)
        assert excinfo.value.violated_index in (0, 1)
        assert excinfo.value.margin <= 0.0

    def test_nonseparable_witness(self):
        # a probability vector over the rows whose combination Z'u vanishes
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.3, 2.0]])
        data = LabeledDataset(X, np.array([1, -1, 1]), np.array([1, 2, 1]))
        with pytest.raises(NonSeparableError) as excinfo:
            max_margin(data)
        u = excinfo.value.witness
        assert u.min() >= 0.0 and u.sum() == pytest.approx(1.0, abs=1e-12)
        assert excinfo.value.margin == np.linalg.norm(data.signed().T @ u)
        assert excinfo.value.margin <= training.WITNESS_RTOL * np.linalg.norm(X, axis=1).max()
        assert excinfo.value.violated_index == int(np.argmax(u))
        assert u[2] <= 1e-12  # the third row is not part of the obstruction

    def test_margin_dominates_mean_estimator(self):
        wins = 0
        for seed in range(100):
            rng = stream(43, seed)
            data = random_dataset(rng, n=10, d=25)
            sigma = 0.8
            svm_margin = normalized_margin(max_margin(data), data, sigma)
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
        cfg = TrainConfig(max_iters=60_000, penalty_kind="none")
        model, _ = gd_train(data, cfg)
        svm = max_margin(data)
        assert cosine_similarity(model.w, svm.w) >= 0.99

    def test_alignment_rows(self):
        rng = stream(53)
        data = random_dataset(rng, n=8, d=120)
        cfg = TrainConfig(max_iters=4000, penalty_weight=1.0)
        rows = irm_margin_alignment([(120, data)], cfg)
        assert rows[0].d == 120
        assert -1.0 <= rows[0].cos_ridge_path <= 1.0
        assert rows[0].cos_plain_gd > 0.8

    def test_alignment_propagates_nonseparable(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        data = LabeledDataset(X, np.array([1, -1]), np.array([1, 2]))
        with pytest.raises(NonSeparableError):
            irm_margin_alignment([(2, data)], TrainConfig(max_iters=100))
