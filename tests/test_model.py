"""Sampling operations and domain-type invariants."""

import tracemalloc

import numpy as np
import pytest

from twoenv import stream
from twoenv.errors import TwoEnvError
from twoenv.model import (
    LabeledDataset,
    LinearModel,
    ProblemInstance,
    env_rows,
    sample_dataset,
    sample_environment,
    pool,
    sample_gram_row_sums,
    sample_orthogonal_means,
    sample_reduced,
    vector_norm,
)


class TestSampleOrthogonalMeans:
    def test_plane_has_only_two_orthogonal_directions(self):
        for seed in range(20):
            mu_c, mu_s = sample_orthogonal_means(2, 1.0, 2.0, stream(seed))
            rot90 = np.array([-mu_c[1], mu_c[0]])
            aligned = min(
                np.linalg.norm(mu_s - 2 * rot90), np.linalg.norm(mu_s + 2 * rot90)
            )
            assert aligned < 1e-9

    def test_norms_and_orthogonality(self):
        mu_c, mu_s = sample_orthogonal_means(100, 1.0, 2.0, stream(7))
        assert np.linalg.norm(mu_c) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(mu_s) == pytest.approx(2.0, rel=1e-12)
        assert abs(mu_c @ mu_s) <= 2e-9

    def test_spherical_marginal_moments(self):
        # Monte Carlo against the known sphere marginals: E<u, e1> = 0 and
        # Var<u, e1> = 1/d.
        d, draws = 50, 10_000
        rng = stream(123, "moments")
        coords = np.empty(draws)
        for i in range(draws):
            mu_c, _ = sample_orthogonal_means(d, 1.0, 2.0, rng)
            coords[i] = mu_c[0]
        se = np.sqrt(1.0 / d / draws)
        assert abs(coords.mean()) < 3 * se
        assert abs(coords.var() - 1.0 / d) < 0.1 / d

    def test_rejects_bad_arguments(self):
        with pytest.raises(TwoEnvError):
            sample_orthogonal_means(1, 1.0, 1.0, stream(0))
        with pytest.raises(TwoEnvError):
            sample_orthogonal_means(5, -1.0, 1.0, stream(0))
        with pytest.raises(TwoEnvError):
            sample_orthogonal_means(5, 1.0, 0.0, stream(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_radii_that_are_not_positive_and_finite(self, bad):
        # NaN compares false with everything: a `r <= 0` check let it through
        for r_c, r_s in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(TwoEnvError, match="radii"):
                sample_orthogonal_means(4, r_c, r_s, stream(0))

    def test_orthogonality_invariant_many_seeds(self):
        # ProblemInstance's orthogonality tolerance, quantified broadly.
        for d in (2, 10, 1000):
            for seed in range(1000):
                mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(seed, "ortho", d))
                assert abs(mu_c @ mu_s) <= 1e-9 * 2.0


def _instance(d=16, sigma=0.5, theta_1=1.0, theta_2=0.0, n_1=10, n_2=6, seed=5):
    mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(seed, "means"))
    return ProblemInstance(mu_c, mu_s, theta_1, theta_2, n_1, n_2, sigma, seed)


class TestSampleDataset:
    def test_noiseless_rows_equal_class_means(self):
        inst = _instance(sigma=1e-30, theta_2=-0.5)
        data = sample_dataset(inst, stream(5, "data"))
        for env, theta in ((1, 1.0), (2, -0.5)):
            part = data.by_env(env)
            expect = inst.mu_c + theta * inst.mu_s
            for i in range(part.n):
                np.testing.assert_allclose(part.y[i] * part.X[i], expect, atol=1e-25)

    def test_law_of_large_numbers_single_env(self):
        d, n, sigma = 8, 100_000, 0.7
        mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(9))
        inst = ProblemInstance(mu_c, mu_s, 0.0, 0.0, n, n, sigma, 9)
        data = sample_environment(inst, 1, stream(9, "lln"))
        signed_mean = data.signed().mean(axis=0)
        np.testing.assert_allclose(signed_mean, mu_c, atol=4 * sigma / np.sqrt(n))

    def test_determinism(self):
        inst = _instance()
        a = sample_dataset(inst, stream(inst.seed, "data"))
        b = sample_dataset(inst, stream(inst.seed, "data"))
        assert a.X.tobytes() == b.X.tobytes()
        assert np.array_equal(a.y, b.y) and np.array_equal(a.env, b.env)

    def test_env_sizes_and_tags(self):
        inst = _instance(n_1=7, n_2=3)
        data = sample_dataset(inst, stream(1))
        assert data.by_env(1).n == 7
        assert data.by_env(2).n == 3

    def test_rejects_empty_environment(self):
        with pytest.raises(TwoEnvError):
            _instance(n_1=0)


def _reduced(seed=3, d=500, n_1=6, n_2=4, sigma=0.3, label="reduced"):
    return sample_reduced(d, 1.0, 2.0, 1.0, -0.5, n_1, n_2, sigma, seed, stream(seed, label))


def _rebuild(seed, d, n_1, n_2, sigma, label="reduced"):
    """The signed rows of a reduced draw, rebuilt by hand from the documented order."""
    n = n_1 + n_2
    rng = stream(seed, label)
    y = np.concatenate([np.where(rng.random(k) < 0.5, -1, 1) for k in (n_1, n_2)])
    g = rng.standard_normal((n, 2))
    k = min(d - 2, n)  # the noise block is the N x k factor L: chi on its diagonal
    noise = np.zeros((n, k))
    noise[np.diag_indices(k)] = np.sqrt(rng.chisquare(d - 1 - np.arange(1, k + 1)))
    noise[np.tril_indices(n, -1, k)] = rng.standard_normal(n * k - k * (k + 1) // 2)
    theta = np.array([1.0] * n_1 + [-0.5] * n_2)
    Z = np.column_stack([1.0 + sigma * g[:, 0], theta * 2.0 + sigma * g[:, 1], sigma * noise])
    return y, Z


class TestSampleReduced:
    # N = 2, 10, 60, 900 (N = 1 cannot be drawn: each environment needs a row);
    # d = 902 is the smallest draw with a square (Bartlett) noise block at N = 900
    @pytest.mark.parametrize("n_1, n_2, d", [(1, 1, 500), (6, 4, 500), (30, 30, 500),
                                             (800, 100, 902)])
    def test_follows_the_documented_draw_order(self, n_1, n_2, d):
        sigma = 0.3
        n = n_1 + n_2
        inst, data = _reduced(d=d, n_1=n_1, n_2=n_2, sigma=sigma)
        y, Z = _rebuild(3, d, n_1, n_2, sigma)

        np.testing.assert_array_equal(data.y, y)
        np.testing.assert_array_equal(data.env, [1] * n_1 + [2] * n_2)
        assert data.signed().tobytes() == Z.tobytes()
        np.testing.assert_array_equal(inst.mu_c, 1.0 * np.eye(n + 2)[0])
        np.testing.assert_array_equal(inst.mu_s, 2.0 * np.eye(n + 2)[1])
        assert (data.d, data.ambient_d) == (n + 2, d)

    # d - 2 < N = 10; d = 2 has no noise block.  The noise block is the LQ factor
    # of the dense draw's in the rotated frame (test_reduced_sampling.py checks
    # that pathwise): lower trapezoidal, with a positive diagonal
    @pytest.mark.parametrize("d", [7, 2])
    def test_narrow_draw_is_the_dense_draw_in_the_rotated_frame(self, d):
        inst, data = _reduced(d=d)
        assert data.signed().tobytes() == _rebuild(3, d, 6, 4, 0.3)[1].tobytes()
        noise = data.signed()[:, 2:]
        assert np.all(np.triu(noise, 1) == 0) and np.all(np.diag(noise) > 0)
        np.testing.assert_array_equal(inst.mu_s, 2.0 * np.eye(d)[1])
        assert data.d == data.ambient_d == inst.d == d

    @pytest.mark.parametrize("d", [12, 500])
    def test_wide_draw_is_the_bartlett_factor(self, d):
        # d - 2 >= N: the noise block is the N x N Bartlett factor of the Gram,
        # its N chi-square variates drawn before its N(N-1)/2 lower normals
        rng = stream(3, "reduced")
        rng.random(6), rng.random(4)  # the labels
        g = rng.standard_normal((10, 2))
        bartlett = np.zeros((10, 10))
        bartlett[np.diag_indices(10)] = np.sqrt(rng.chisquare(d - 1 - np.arange(1, 11)))
        bartlett[np.tril_indices(10, -1)] = rng.standard_normal(45)
        Z = _reduced(d=d)[1].signed()
        assert Z[:, 2:].tobytes() == (0.3 * bartlett).tobytes()
        assert Z[:, 0].tobytes() == (1.0 + 0.3 * g[:, 0]).tobytes()

    def test_d_equal_n_plus_2_takes_the_bartlett_branch(self):
        _, data = _reduced(d=12)  # the last Bartlett diagonal has one degree of freedom
        noise = data.signed()[:, 2:]
        assert data.signed().tobytes() == _rebuild(3, 12, 6, 4, 0.3)[1].tobytes()
        assert noise.shape == (10, 10) and np.all(np.triu(noise, 1) == 0)
        assert data.ambient_d == 12 and np.all(np.diag(noise) > 0)

    def test_wide_draw_writes_its_rows_in_place(self):
        # Z, the below-diagonal normals (about half of Z) and the n x n bool mask
        tracemalloc.start()
        try:
            _, data = _reduced(d=24_576, n_1=200, n_2=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * data.signed().nbytes

    @pytest.mark.parametrize("d", [20, 320])  # k = d - 2 much smaller than N = 900
    def test_narrow_draw_writes_its_rows_in_place(self, d):
        # the full rows below the triangle pass through a fixed block buffer
        tracemalloc.start()
        try:
            _, data = _reduced(d=d, n_1=800, n_2=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * data.signed().nbytes

    def test_needs_d_at_least_2(self):
        for d in (1, 0):
            with pytest.raises(TwoEnvError):
                _reduced(d=d)

    def test_same_seed_and_labels_give_identical_bytes(self):
        _, a = _reduced()
        _, b = _reduced()
        _, c = _reduced(label="other")
        assert a.X.tobytes() == b.X.tobytes() and a.y.tobytes() == b.y.tobytes()
        assert a.X.tobytes() != c.X.tobytes()

    def test_ambient_d_is_carried_and_never_mixed(self):
        _, data = _reduced()
        parts = data.by_env(1), data.by_env(2), data.restrict(data.y == 1)
        assert all(p.ambient_d == 500 for p in parts)
        assert pool(*parts[:2]).ambient_d == 500
        dense = LabeledDataset(data.X, data.y, data.env)
        assert dense.ambient_d == dense.d == 12
        with pytest.raises(TwoEnvError):
            pool(data, dense)
        with pytest.raises(TwoEnvError):
            LabeledDataset(data.X, data.y, data.env, ambient_d=11)


    @pytest.mark.parametrize("arg", [1, 2, 7])  # r_c, r_s, sigma
    def test_integer_too_large_for_a_float_is_rejected(self, arg):
        # the float conversion of 10**400 used to escape as a bare OverflowError
        args = [16, 1.0, 2.0, 1.0, 0.0, 4, 4, 0.5]
        args[arg] = 10**400
        name = {1: "r_c", 2: "r_s", 7: "sigma"}[arg]
        with pytest.raises(TwoEnvError, match=name):
            sample_reduced(*args, 0, stream(0))
        with pytest.raises(TwoEnvError, match=name):
            sample_gram_row_sums(*args, stream(0))


class _FixedDraws:
    """A generator stand-in that returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, size):
        return self.draws.pop(0)

    chisquare = standard_normal


class TestSampleGramRowSums:
    def test_follows_the_documented_draw_order(self):
        # g, then c ~ chi2(d-2), then xi: rebuilt by hand with an explicit reflection
        d, n_1, n_2, sigma = 40, 6, 4, 0.3
        n = n_1 + n_2
        rng = stream(3, "rows")
        g = rng.standard_normal((n, 2))
        c = rng.chisquare(d - 2)
        col = np.concatenate([[c], np.sqrt(c) * rng.standard_normal(n - 1)])
        v = np.eye(n)[0] - 1.0 / np.sqrt(n)
        H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
        a = 1.0 + sigma * g[:, 0]
        b = np.array([1.0] * n_1 + [-0.5] * n_2) * 2.0 + sigma * g[:, 1]
        expect = a * a.sum() + b * b.sum() + sigma**2 * np.sqrt(n) * (H @ col)
        got = sample_gram_row_sums(d, 1.0, 2.0, 1.0, -0.5, n_1, n_2, sigma, stream(3, "rows"))
        np.testing.assert_allclose(got, expect, rtol=1e-13)

    def test_reflection_maps_e1_to_the_normalized_ones(self):
        # with xi = 0 the noise term is sigma^2 sqrt(N) c H e_1 = sigma^2 c 1
        n, sigma = 12, 0.5
        rng = _FixedDraws(np.zeros((n, 2)), 7.0, np.zeros(n - 1))
        rows = sample_gram_row_sums(20, 1.0, 2.0, 1.0, 0.0, 8, 4, sigma, rng)
        means = 1.0 * n + np.array([1.0] * 8 + [0.0] * 4) * 2.0 * (2.0 * 8)
        np.testing.assert_allclose(rows, means + sigma**2 * 7.0, rtol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_smallest_dimensions(self, d):
        # at d = 2 there is no noise block and no chi-square (numpy rejects 0
        # degrees of freedom); at d = 3 it has one degree of freedom
        rows = sample_gram_row_sums(d, 1.0, 2.0, 1.0, 0.0, 8, 4, 0.5, stream(0, "rows"))
        assert rows.shape == (12,) and np.isfinite(rows).all()
        if d == 2:
            g = stream(0, "rows").standard_normal((12, 2))
            Z = np.column_stack([1.0 + 0.5 * g[:, 0],
                                 np.repeat([2.0, 0.0], [8, 4]) + 0.5 * g[:, 1]])
            np.testing.assert_allclose(rows, Z @ Z.sum(axis=0), rtol=1e-14)

    def test_input_checks_are_sample_reduceds(self):
        good = [16, 1.0, 2.0, 1.0, 0.0, 4, 4, 0.5]
        for arg, bad in ((0, 1), (1, np.nan), (2, 0.0), (3, 1.5), (5, 0), (7, -1.0)):
            args = list(good)
            args[arg] = bad
            with pytest.raises(TwoEnvError) as reduced:
                sample_reduced(*args, 0, stream(0))
            with pytest.raises(TwoEnvError) as alone:
                sample_gram_row_sums(*args, stream(0))
            assert str(alone.value) == str(reduced.value)

    def test_rejects_row_sums_that_are_not_finite(self):
        with pytest.raises(TwoEnvError, match="finite"):
            sample_gram_row_sums(16, 1.0, 2.0, 1.0, 0.0, 4, 4, 1e200, stream(0))


def _same(a: LabeledDataset, b: LabeledDataset) -> bool:
    return (a.signed().tobytes() == b.signed().tobytes() and a.y.tobytes() == b.y.tobytes()
            and a.env.tobytes() == b.env.tobytes() and a.ambient_d == b.ambient_d)


class TestSignedRows:
    """A dataset stores its signed rows once; ``X`` is derived from them."""

    def _data(self):
        # signed zeros and both labels: negation must round-trip them exactly
        X = np.array([[1.5, -0.0, 0.0], [-2.0, 0.0, -0.0], [3.0, -1e-300, 7.0], [0.5, 4.0, -1.0]])
        return X, LabeledDataset(X, np.array([1, -1, -1, 1]), np.array([1, 2, 1, 2]))

    def test_signed_is_stored_once_and_read_only(self):
        X, data = self._data()
        Z = data.signed()
        assert data.signed() is Z and not Z.flags.writeable
        assert Z.tobytes() == (data.y[:, None] * X).tobytes()
        with pytest.raises(ValueError):
            Z[0, 0] = 1.0

    def test_x_is_read_only_and_bitwise_the_input(self):
        X, data = self._data()
        assert data.X.tobytes() == X.tobytes() and not data.X.flags.writeable
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0
        X[0, 0] = 9.0  # the input stays the caller's, writable and unshared
        assert data.X[0, 0] == 1.5

    def test_from_signed_keeps_the_rows(self):
        X, data = self._data()
        Z = data.y[:, None] * X
        again = LabeledDataset.from_signed(Z, data.y, data.env)
        assert again.signed() is Z and _same(again, data)

    def test_derived_datasets_match_constructor_built_ones(self):
        X, data = self._data()
        mask = np.array([True, False, True, True])
        assert _same(data.restrict(mask), LabeledDataset(X[mask], data.y[mask], data.env[mask]))
        for env in (1, 2):
            rows = data.env == env
            assert _same(data.by_env(env), LabeledDataset(X[rows], data.y[rows], data.env[rows]))
        pooled = pool(data.by_env(2), data)
        order = np.r_[np.flatnonzero(data.env == 2), np.arange(4)]
        assert _same(pooled, LabeledDataset(X[order], data.y[order], data.env[order]))

    @pytest.mark.parametrize("d", [7, 500])  # d - 2 < N and d - 2 >= N
    def test_by_env_is_a_view_of_contiguous_rows(self, d):
        _, data = _reduced(d=d)
        for env, rows in ((1, slice(0, 6)), (2, slice(6, 10))):
            part = data.by_env(env)
            assert np.shares_memory(part.signed(), data.signed())
            assert env_rows(data.env, env) == rows and not part.signed().flags.writeable
            assert _same(part, data.restrict(data.env == env))

    def test_by_env_copies_spread_rows(self):
        X, data = self._data()  # environments interleaved: 1, 2, 1, 2
        for env in (1, 2):
            rows = env_rows(data.env, env)
            assert isinstance(rows, np.ndarray) and rows.tolist() == (data.env == env).tolist()
            part = data.by_env(env)
            assert not np.shares_memory(part.signed(), data.signed())
            assert _same(part, data.restrict(data.env == env))

    @pytest.mark.parametrize("d", [7, 500])  # d - 2 < N and d - 2 >= N
    def test_reduced_draw_matches_a_constructor_built_dataset(self, d):
        _, data = _reduced(d=d)
        assert _same(data, LabeledDataset(data.X, data.y, data.env, data.ambient_d))


class TestDomainTypes:
    def test_instance_rejects_nonorthogonal_means(self):
        with pytest.raises(TwoEnvError, match="orthogonal"):
            ProblemInstance(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1.0, 0.0, 3, 3, 1.0, 0)

    def test_instance_rejects_bad_scalars(self):
        mu_c, mu_s = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        with pytest.raises(TwoEnvError, match="sigma"):
            ProblemInstance(mu_c, mu_s, 0.0, 0.0, 3, 3, 0.0, 0)
        for theta_1, theta_2 in ((1.5, 0.0), (0.0, -1.5)):
            with pytest.raises(TwoEnvError, match="theta"):
                ProblemInstance(mu_c, mu_s, theta_1, theta_2, 3, 3, 1.0, 0)

    def test_instance_rejects_mismatched_means(self):
        for mu_s in (np.array([0.0, 1.0, 0.0]), np.array([[0.0, 1.0]])):
            with pytest.raises(TwoEnvError, match="1-d"):
                ProblemInstance(np.array([1.0, 0.0]), mu_s, 1.0, 0.0, 3, 3, 1.0, 0)

    @pytest.mark.parametrize("sigma, r_c, r_s, match", [
        (np.nan, 1.0, 2.0, "sigma"),
        (np.inf, 1.0, 2.0, "sigma"),
        (0.5, np.nan, 2.0, "finite"),
        (0.5, 1.0, np.inf, "finite"),
    ])
    def test_non_finite_inputs_are_rejected(self, sigma, r_c, r_s, match):
        # NaN compares false with everything, so each check must fail on it
        with pytest.raises(TwoEnvError):
            sample_reduced(16, r_c, r_s, 1.0, 0.0, 5, 4, sigma, 0, stream(0))
        mu_c, mu_s = np.array([r_c, 0.0]), np.array([0.0, r_s])
        with pytest.raises(TwoEnvError, match=match):
            ProblemInstance(mu_c, mu_s, 1.0, 0.0, 5, 4, sigma, 0)

    @pytest.mark.parametrize("n_1", [3.5, True, 0, -1, np.float64(3.0)])
    def test_sample_sizes_must_be_positive_ints(self, n_1):
        mu_c, mu_s = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        with pytest.raises(TwoEnvError, match="sample sizes"):
            ProblemInstance(mu_c, mu_s, 1.0, 0.0, n_1, 2, 1.0, 0)
        with pytest.raises(TwoEnvError, match="sample sizes"):
            sample_reduced(16, 1.0, 2.0, 1.0, 0.0, 2, n_1, 0.5, 0, stream(0))
        inst = ProblemInstance(mu_c, mu_s, 1.0, 0.0, np.int64(3), 2, 1.0, 0)
        assert inst.n == 5

    @pytest.mark.parametrize("env", [0, 3, -1])
    def test_environment_must_be_1_or_2(self, env):
        with pytest.raises(TwoEnvError, match="environment"):
            sample_environment(_instance(), env, stream(0))

    def test_dataset_validation(self):
        X = np.zeros((3, 2))
        with pytest.raises(TwoEnvError):
            LabeledDataset(X, np.array([1, -1, 0]), np.array([1, 1, 2]))
        with pytest.raises(TwoEnvError):
            LabeledDataset(X, np.array([1, -1, 1]), np.array([1, 3, 2]))
        with pytest.raises(TwoEnvError):
            LabeledDataset(X, np.array([1, -1]), np.array([1, 2]))

    def test_dataset_arrays_immutable(self):
        data = LabeledDataset(np.zeros((2, 2)), np.array([1, -1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0

    def test_zero_model_rejected(self):
        with pytest.raises(TwoEnvError):
            LinearModel(np.zeros(3))

    @pytest.mark.parametrize("scale", [1e-170, 1e170, 5e-324])
    def test_norm_survives_underflow_and_overflow(self, scale):
        # the squares of 1e-170 underflow to 0 and those of 1e170 overflow
        # (5e-324 is the smallest subnormal: the entries are 3 and 4 of its units)
        w = np.array([3.0, -4.0, 0.0]) * scale
        LinearModel(w)  # nonzero, so a model at any scale
        with np.errstate(over="ignore"):
            assert vector_norm(w) == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    def test_norm_beyond_the_largest_float_is_infinite(self):
        with np.errstate(over="ignore"):
            assert vector_norm(LinearModel(np.array([1.5e308, 1.5e308])).w) == np.inf

    def test_unit_scale_norm_is_bitwise_numpys(self):
        for seed in range(20):
            w = stream(seed, "norm").standard_normal(1 + seed)
            assert vector_norm(w) == float(np.linalg.norm(w))

    def test_instance_accepts_radii_whose_norm_underflows(self):
        # ||(1e-300, 0)|| is 0 in floating point; the vector is still nonzero
        inst, _ = sample_reduced(16, 1.0, 1e-300, 1.0, 0.0, 5, 4, 0.5, 0, stream(0))
        assert inst.mu_s[1] == 1e-300
        with pytest.raises(TwoEnvError, match="nonzero"):
            ProblemInstance(np.array([1.0, 0.0]), np.zeros(2), 1.0, 0.0, 3, 3, 0.1, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_stream_rejects_seeds_outside_64_bits(self, seed):
        # masking to 64 bits would alias 2**64 + 5 to 5
        with pytest.raises(TwoEnvError, match="seed"):
            stream(seed, "x")

    def test_stream_accepts_the_largest_seed(self):
        top = stream(2**64 - 1, "x").random(4)
        assert top.tolist() != stream(0, "x").random(4).tolist()

    def test_instance_requires_shared_geometry(self):
        mu_c, mu_s = sample_orthogonal_means(4, 1.0, 1.0, stream(0))
        inst = ProblemInstance(mu_c, mu_s, 1.0, -0.5, 3, 2, 0.1, 0)
        for env, n in ((1, 3), (2, 2)):
            part = sample_environment(inst, env, stream(0, "env", env))
            assert part.n == n and part.d == 4 and (part.env == env).all()
        assert inst.r_c == pytest.approx(1.0)
        assert inst.n == 5
