"""Margin-constrained program, dual bounds, and concentration events."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoenv import calibrate, duality, stream
from twoenv.calibrate import _chain_instance, bound_chain_study
from twoenv.cli import main
from twoenv.duality import (
    GramData,
    canonical_lambda,
    check_spectral_events,
    closed_form_bound,
    dual_value,
    gram_from_dataset,
    min_weighted_beta,
)
from twoenv.errors import IllConditionedGramError, InfeasibleMarginError, TwoEnvError
from twoenv.estimators import mean_estimator
from twoenv.model import (
    LabeledDataset,
    ProblemInstance,
    sample_dataset,
    sample_orthogonal_means,
    sample_reduced,
)
from twoenv.training import chol_solve, nnls

from helpers import expected_gram, orthogonal_complement_stats


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


def _rounds_without_reuse(gd):
    """``min_weighted_beta``'s rounds with the norm multiplier computed in every round."""
    K, u, gamma = gd.gram, gd.weights, gd.gamma
    q_u = chol_solve(gd.cho, u)
    nu = math.sqrt(float(u @ q_u))
    active = np.ones(gd.n, dtype=bool)
    for rounds in range(1, 4 * gd.n + 5):
        lam, _ = nnls(K, u + nu * gamma * np.ones(gd.n), active)
        new_active = lam > 0.0
        new_nu = duality._norm_multiplier(K, q_u, u, gamma, new_active) or 0.5 * nu
        if new_nu == nu and np.array_equal(new_active, active):
            return lam, nu, rounds
        active, nu = new_active, new_nu
    raise AssertionError("rounds did not settle")


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
            res = min_weighted_beta(gd)
            assert res.optimum == pytest.approx(oracle[0], abs=1e-5)

    def test_primal_feasibility_and_certificate(self):
        for seed in range(8):
            _, _, gd = _random_gram_instance(seed + 50, n_1=5, n_2=5, d=80, theta_2=-0.4)
            res = min_weighted_beta(gd)
            margins = gd.gram @ res.beta
            assert margins.min() >= gd.gamma - 1e-8
            assert float(res.beta @ gd.gram @ res.beta) <= 1.0 + 1e-7
            # certificate: dual value within gap of the primal value
            assert res.dual_value <= res.optimum + 1e-12
            assert res.gap <= 1e-6
            assert res.exact
            assert res.gap <= 1e-12 * max(1.0, abs(res.optimum))
            # complementary slackness: a positive multiplier sits on an active margin
            active = res.dual_lambda > 0
            assert active.any()
            np.testing.assert_allclose(margins[active], gd.gamma, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("fault", ["zero", "scaled"])
    def test_uncertified_point_raises(self, monkeypatch, fault):
        # an NNLS that returns a non-KKT point must not yield a result
        real = duality.nnls

        def broken(G, b, passive):
            x, solves = real(G, b, passive)
            return (np.zeros_like(x) if fault == "zero" else 1.01 * x), solves

        monkeypatch.setattr(duality, "nnls", broken)
        _, _, gd = _random_gram_instance(50, n_1=5, n_2=5, d=80, theta_2=-0.4)
        with pytest.raises(TwoEnvError, match="certify"):
            min_weighted_beta(gd)

    def test_norm_multiplier_once_per_active_set(self, monkeypatch):
        # each distinct active set gets one _norm_multiplier call, and the
        # result is bitwise that of the rounds recomputing it every time
        cases = []
        for seed in range(20):
            inst, data = _chain_instance(seed, 3.0)
            gd = gram_from_dataset(data, 1.0 / (4.0 * math.sqrt(inst.n)), inst.theta_2)
            cases.append((gd, _rounds_without_reuse(gd)))
        real, seen = duality._norm_multiplier, []
        monkeypatch.setattr(duality, "_norm_multiplier",
                            lambda *a: seen.append(a[-1].tobytes()) or real(*a))
        calls = rounds = 0
        for gd, (lam, nu, ref_rounds) in cases:
            seen.clear()
            res = min_weighted_beta(gd)
            assert len(seen) == len(set(seen))
            assert res.iterations == ref_rounds
            assert res.dual_lambda.tobytes() == lam.tobytes()
            q_u = chol_solve(gd.cho, gd.weights)
            assert res.beta.tobytes() == ((lam - q_u) / nu).tobytes()
            calls += len(seen)
            rounds += ref_rounds
        assert calls < rounds  # some round met its starting set again

    def test_infeasible_margin(self):
        _, _, gd = _random_gram_instance(7)
        too_big = GramData(gd.Z, gd.env, 10.0, gd.theta_2)
        with pytest.raises(InfeasibleMarginError):
            min_weighted_beta(too_big)

    @staticmethod
    def _spy_hard_margin(monkeypatch):
        calls = []
        real = duality.hard_margin_dual
        monkeypatch.setattr(duality, "hard_margin_dual",
                            lambda *a: calls.append(1) or real(*a))
        return calls

    def test_vertex_in_the_ellipsoid_proves_feasibility(self, monkeypatch):
        # the chain study's instances never need the hard-margin fit
        cases = []
        for seed in range(20):
            inst, data = _chain_instance(seed, 3.0)
            cases.append(gram_from_dataset(data, 1.0 / (4.0 * math.sqrt(inst.n)), inst.theta_2))
        calls = self._spy_hard_margin(monkeypatch)
        for gd in cases:
            assert min_weighted_beta(gd).exact
        assert calls == []

    def test_feasible_margin_beyond_the_vertex(self, monkeypatch):
        # the third row is no hard-margin support vector, so the largest margin
        # sqrt(2) exceeds 1/sqrt(1'K^-1 1) = 0.603: at gamma = 1 the equal-margin
        # vertex lies outside the ellipsoid, yet the program is feasible
        Z = 2.0 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        gd = GramData(Z, np.array([1, 1, 2]), 1.0, -0.3)
        vertex = np.linalg.solve(gd.gram, np.ones(3))
        assert float(vertex @ gd.gram @ vertex) > 1.0
        calls = self._spy_hard_margin(monkeypatch)
        res = min_weighted_beta(gd)
        assert calls == [1] and res.exact
        oracle = brute_force_min_weighted(gd.gram, gd.weights, gd.gamma)
        assert res.optimum == pytest.approx(oracle[0], abs=1e-9)
        np.testing.assert_allclose(res.beta, oracle[1], atol=1e-9)

    def test_ill_conditioned_gram(self):
        Z = np.array([[1.0, 0.0], [1.0, 1e-9]])
        gd = GramData(Z, np.array([1, 2]), 0.1, 0.0)
        with pytest.raises(IllConditionedGramError):
            min_weighted_beta(gd)

    def test_non_positive_definite_active_block_raises(self):
        K = np.ones((2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            duality._norm_multiplier(K, np.zeros(2), np.ones(2), 0.1, np.ones(2, dtype=bool))


class TestCheckConditioning:
    @pytest.mark.parametrize("rel", [1e-6, -1e-6, 1e-9, -1e-9])
    def test_agrees_with_the_spectrum_next_to_the_threshold(self, monkeypatch, rel):
        rng = np.random.default_rng(29)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        evals = np.concatenate([[duality.MIN_EIG * (1 + rel)], rng.uniform(0.5, 2.0, 29)])
        K = (Q * evals) @ Q.T
        K = (K + K.T) / 2
        smallest = np.linalg.eigvalsh(K)[0]
        assert (smallest >= duality.MIN_EIG) == (rel > 0)
        spectra = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or real(a))
        if rel > 0:
            duality._check_conditioning(K)
            assert spectra == []  # settled by duality._certify_spectrum
        else:
            with pytest.raises(IllConditionedGramError, match=f"{smallest:.3e} below"):
                duality._check_conditioning(K)
            assert len(spectra) == 1

    def test_non_finite_gram_fails(self):
        # eigvalsh returns NaN eigenvalues here rather than raising
        K = np.eye(3)
        K[0, 1] = K[1, 0] = np.nan
        with pytest.raises(IllConditionedGramError, match="nan"):
            duality._check_conditioning(K)
        # dpotrf would report success on K, so no spectrum bound is certified
        assert not duality._certify_spectrum(K, -np.inf, np.inf)
        assert not any(duality._spectrum_within(K, lo, hi) for lo, hi, _ in EVENT_BOUNDS.values())

    def test_gram_with_a_nan_pair_fails_as_ill_conditioned(self):
        # on such Grams eigvalsh raises LinAlgError rather than returning NaNs
        for seed in range(20):
            rng = stream(seed, "nan-gram")
            Z = rng.standard_normal((6, 20))
            K = Z @ Z.T
            i, j = rng.choice(6, size=2, replace=False)
            K[i, j] = K[j, i] = np.nan
            with pytest.raises(IllConditionedGramError, match="nan"):
                duality._check_conditioning(K)


# the spectrum bounds check_spectral_events gives each event at sval in
# [0.8, 1.2] and a deviation within 0.6, and a spectrum that passes each with room
SVAL_LO, SVAL_HI, DEV_BOUND = 0.8, 1.2, 0.6
EVENT_BOUNDS = {
    "sval": (SVAL_LO**2, SVAL_HI**2, (0.7, 1.4)),
    "gram_dev": (-DEV_BOUND, DEV_BOUND, (-0.5, 0.5)),
    "gram_bounds": (0.5, 2.0, (0.6, 1.9)),
}


def _with_spectrum(rng, evals):
    Q, _ = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))
    A = (Q * evals) @ Q.T
    return (A + A.T) / 2


class TestSpectrumCertificate:
    @pytest.mark.parametrize("rel", [1e-9, -1e-9])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("event", sorted(EVENT_BOUNDS))
    def test_agrees_with_the_eigenvalue_rule_at_the_bound(self, monkeypatch, event, side, rel):
        lo, hi, room = EVENT_BOUNDS[event]
        rng = np.random.default_rng(31)
        edge = (lo if side == "lo" else hi) * (1 + rel)
        inside = lo <= edge <= hi
        A = _with_spectrum(rng, np.concatenate([[edge], rng.uniform(*room, 29)]))
        # each event's eigenvalue rule in its own terms, on the real spectrum
        e = np.linalg.eigvalsh(A)
        rule = {
            "sval": SVAL_LO <= math.sqrt(max(e[0], 0.0)) and math.sqrt(max(e[-1], 0.0)) <= SVAL_HI,
            "gram_dev": max(abs(e[0]), abs(e[-1])) <= DEV_BOUND,
            "gram_bounds": 0.5 <= e[0] and e[-1] <= 2.0,
        }[event]
        assert rule == inside
        spectra = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or real(a))
        assert duality._spectrum_within(A, lo, hi) == rule
        # certified: no spectrum at all; otherwise one, of the event's matrix
        assert len(spectra) == (0 if inside else 1)
        assert all(a is A for a in spectra)

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_margin_is_a_round_off_band(self, side):
        # tau is about 1.3e-11 here: an eigenvalue 1e-13 inside a bound is left
        # to the spectrum, one 1e-10 inside is certified
        rest = np.random.default_rng(37).uniform(0.6, 1.9, 29)
        for gap, certified in ((1e-13, False), (1e-10, True)):
            edge = 0.5 + gap if side == "lo" else 2.0 - gap
            A = _with_spectrum(np.random.default_rng(41), np.concatenate([[edge], rest]))
            assert duality._certify_spectrum(A, 0.5, 2.0) == certified

    def test_infinite_and_empty_bounds(self):
        A = np.diag([1.0, 2.0])
        assert duality._certify_spectrum(A, -np.inf, np.inf)
        assert duality._certify_spectrum(A, 0.9, np.inf)
        assert not duality._certify_spectrum(A, 1.1, np.inf)
        assert not duality._certify_spectrum(A, -np.inf, 1.9)
        assert not duality._certify_spectrum(A, 2.0, 1.0)
        assert not duality._certify_spectrum(A, np.nan, 3.0)


# (lo, hi, room for the eigenvalues away from the bound): finite and infinite bounds
SPECTRUM_CASES = [(0.5, 2.0, (0.6, 1.9)), (-0.6, 0.6, (-0.5, 0.5)),
                  (-math.inf, 1.44, (-3.0, 1.4)), (0.64, math.inf, (0.7, 3.0))]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), k=st.integers(2, 12),
       case=st.sampled_from(SPECTRUM_CASES), side=st.sampled_from(["lo", "hi"]),
       outside=st.booleans())
def test_spectrum_within_is_the_eigenvalue_rule(seed, n, k, case, side, outside):
    lo, hi, room = case
    bound = lo if (side == "lo" and lo != -math.inf) or hi == math.inf else hi
    # an extreme eigenvalue 10^-k past or short of the bound, relative to it
    step = 10.0**-k * (1 if (bound == hi) == outside else -1)
    rng = np.random.default_rng(seed)
    A = _with_spectrum(rng, np.concatenate([[bound + abs(bound) * step],
                                            rng.uniform(*room, n - 1)]))
    e = np.linalg.eigvalsh(A)
    rule = bool(lo <= e[0] and e[-1] <= hi)
    assert rule != outside
    assert duality._spectrum_within(A, lo, hi) == rule
    with mock.patch.object(duality, "_certify_spectrum", return_value=False):
        assert duality._spectrum_within(A, lo, hi) == rule
        i, j = rng.integers(0, n, 2)
        A[i, j] = A[j, i] = np.nan
        assert not duality._spectrum_within(A, lo, hi)
    assert not duality._spectrum_within(A, lo, hi)


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
            res = min_weighted_beta(gd)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_multiplier(self, bad):
        _, _, gd = _random_gram_instance(19)
        lam = np.zeros(gd.n)
        lam[0] = bad
        with pytest.raises(TwoEnvError, match="finite"):
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

    @pytest.mark.parametrize("n_1, n_2, gamma, theta_2, r_c, d, t", [
        (6, 2, 0.5, 0.25, 0.1, 800, 1.0),
        (6, 2, 0.5, -0.25, 0.1, 800, 1.0),
        (10, 5, 0.1, 1.0, 0.02, 10_000, 2.0),
        (10, 5, 0.1, -1.0, 0.02, 10_000, 2.0),
        (40, 40, 0.3, 0.0, 0.05, 10**7, 3.0),
        (3, 9, 0.05, -0.6, 0.5, 50, 0.0),
        (7, 3, 0.11, -0.2, 0.02, 5000, 2.5),
    ])
    def test_is_pure_arithmetic(self, n_1, n_2, gamma, theta_2, r_c, d, t):
        # the docstring's expression, one term per summand, summed exactly
        n = n_1 + n_2
        terms = [
            (n_1 + max(theta_2, 0.0) * n_2) * gamma,
            -math.sqrt(2 * n_2) * n_1 * r_c**2,
            -math.sqrt(18 * n) * (math.sqrt(n) + t) / math.sqrt(d),
            -math.sqrt(8 * n_2) * max(-theta_2, 0.0),
        ]
        expected = 0.5 * math.fsum(terms)
        got = closed_form_bound(n_1, n_2, gamma, theta_2, r_c, d, t)
        assert got == pytest.approx(expected, rel=1e-15)


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
        data = LabeledDataset(np.array(rows), np.array(ys), np.repeat([1, 2], 4))
        inst = ProblemInstance(mu_c, mu_s, 1.0, 1.0, 4, 4, 1e-30, 0)
        spied = []
        real = duality._spectrum_within
        with mock.patch.object(duality, "_spectrum_within",
                               lambda A, lo, hi: spied.append(A) or real(A, lo, hi)):
            rep = check_spectral_events(inst, data, t=2 * math.sqrt(d))
        assert not spied[0].any()  # the noise matrix's gram is exactly zero
        assert rep.sval_ok and rep.g_mu_c_ok and rep.g_mu_s_ok

    @pytest.mark.parametrize("draw", ["dense", "reduced"])
    def test_each_event_gets_the_matrix_and_bounds_of_its_definition(self, draw):
        # built here from G = Z - 1 mu_c' - theta mu_s', normalized by sigma sqrt(d):
        # the dense draw has a lower singular-value bound, the reduced one none
        n_1, n_2, t, theta_2 = 6, 4, 3.0, -0.5
        if draw == "dense":
            d = 400
            sigma = 0.7 / math.sqrt(d)
            mu_c, mu_s = sample_orthogonal_means(d, 0.3, 0.5, stream(53, "spy-means"))
            inst = ProblemInstance(mu_c, mu_s, 1.0, theta_2, n_1, n_2, sigma, 53)
            data = sample_dataset(inst, stream(53, "spy-data"))
        else:
            d = 30
            sigma = 1.3 / math.sqrt(d)
            inst, data = sample_reduced(d, 0.3, 0.5, 1.0, theta_2, n_1, n_2, sigma, 53,
                                        stream(53, "spy-data"))
        n = n_1 + n_2
        Z = data.signed()
        theta = np.where(data.env == 1, 1.0, theta_2)
        scale = sigma * math.sqrt(d)
        G = (Z - np.outer(np.ones(n), inst.mu_c) - np.outer(theta, inst.mu_s)) / scale
        half = (math.sqrt(n) + t) / math.sqrt(d)
        assert (half < 1) == (draw == "dense")
        dev = 3.0 * half
        sample = Z @ Z.T / scale**2
        expected = expected_gram(n_1, n_2, 1.0, theta_2, 0.3, 0.5, sigma, d) / scale**2
        built = [(G @ G.T, (1 - half) ** 2 if half < 1 else -math.inf, (1 + half) ** 2),
                 (sample - expected, -dev, dev), (sample, 0.5, 2.0)]
        spied = []
        real = duality._spectrum_within
        with mock.patch.object(duality, "_spectrum_within",
                               lambda A, lo, hi: spied.append((A, lo, hi)) or real(A, lo, hi)):
            rep = check_spectral_events(inst, data, t)
        assert len(spied) == len(built)
        for (A, lo, hi), (B, b_lo, b_hi) in zip(spied, built):
            assert np.abs(A - B).max() <= 1e-12
            assert lo == pytest.approx(b_lo, rel=1e-12) and hi == pytest.approx(b_hi, rel=1e-12)
        alignment = t * math.sqrt(n / d)
        assert rep.g_mu_c_ok == (np.linalg.norm(G @ inst.mu_c) <= alignment * 0.3)
        assert rep.g_mu_s_ok == (np.linalg.norm(G @ inst.mu_s) <= alignment * 0.5)

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

    def test_event_failure_frequency(self):
        # noise-event failure budget: 6 exp(-t^2/2) + slack at t = 3; the
        # observed rate sits far below it, so 800 draws decide cleanly.  The
        # events are exact on reduced draws, which keep this test cheap.
        n_e, d, t, seeds = 20, 40_000, 3.0, 800
        sigma = 1.0 / math.sqrt(d)
        failures = 0
        for seed in range(seeds):
            inst, data = sample_reduced(d, 0.05, 0.1, 1.0, 0.0, n_e, n_e, sigma, seed,
                                        stream(seed, "freq"))
            rep = check_spectral_events(inst, data, t)
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


def _biting_chain_instance(seed, t):
    """``_chain_instance``'s rules in a regime where the closed form bites.

    theta_2 is drawn in [-0.05, 0] and d in [10^4 N, 2 10^4 N), where the
    spectral budget is always positive, with stream labels of its own.
    """
    rng = stream(seed, "biting-chain-sizes")
    n_1 = int(rng.integers(8, 31))
    n_2 = int(rng.integers(8, 31))
    n = n_1 + n_2
    d = int(rng.integers(10_000 * n, 20_000 * n))
    total = 0.5 * (0.5 - (math.sqrt(n) + t) / math.sqrt(d)) / math.sqrt(n)
    theta_2 = -0.05 * float(rng.random())
    return sample_reduced(d, 0.25 * total, 0.75 * total, 1.0, theta_2, n_1, n_2,
                          1.0 / math.sqrt(d), seed, stream(seed, "biting-chain-data"))


class TestBoundChain:
    def test_chain_holds_where_the_closed_form_bites(self, monkeypatch):
        """Every link on 100 instances of :func:`_biting_chain_instance` at t = 3.

        On C05-style draws the closed form is always negative, with at least
        2.55 of slack, and primal - dual is at least 0.017.  Here (seeds
        0-99) the closed form is positive on 68 of 100, its least slack to
        the dual is 0.303, and the least primal - dual is 3.0e-4; the test
        asks for a positive closed form on at least 60 and for both links
        with no tolerance.
        """
        monkeypatch.setattr(calibrate, "_chain_instance", _biting_chain_instance)
        reports = bound_chain_study(100, t=3.0, seed_base=0)
        assert len(reports) == 100
        for rep in reports:
            assert rep.events_pass and rep.chain_ok
            assert rep.closed_form <= rep.dual_canonical <= rep.primal
        assert sum(rep.closed_form > 0.0 for rep in reports) >= 60

    def test_small_study_holds(self):
        reports = bound_chain_study(5, t=3.0, seed_base=500)
        assert len(reports) == 5
        for rep in reports:
            assert rep.events_pass
            assert rep.chain_ok

    def test_passing_instances_take_no_spectrum(self, monkeypatch):
        spectra = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a) or real(a))
        reports = bound_chain_study(50)
        # each instance passed the events at its first draw: one seed apiece
        assert [rep.seed for rep in reports] == list(range(50))
        assert spectra == []

    def test_report_is_the_eigenvalue_rule_report(self, monkeypatch, tmp_path, capsys):
        # with the certificate refusing everything, eigvalsh decides every event
        monkeypatch.chdir(tmp_path)
        args = ["verify", "--instances", "200", "--seed-base", "7000000", "--out", "r.json"]
        outputs = []
        for run in ("certified", "eigenvalues"):
            if run == "eigenvalues":
                monkeypatch.setattr(duality, "_certify_spectrum", lambda A, lo, hi: False)
            assert main(args) == 0
            outputs.append((capsys.readouterr().out, (tmp_path / "r.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_draws_without_a_spectral_budget_are_resampled(self, tmp_path, capsys):
        # at t = 8 many size draws have sqrt(N) + t >= sqrt(d) / 2, so no budget
        out = tmp_path / "r.json"
        assert main(["verify", "--instances", "20", "--t", "8", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 20
        # at t = 100 none has one: the attempt cap ends the run, naming t
        assert main(["verify", "--instances", "20", "--t", "100", "--out", str(out)]) == 1
        assert "t = 100" in capsys.readouterr().err


class TestGramData:
    @pytest.mark.parametrize("env", [[1, 1, 1, 2, 2], [2, 1, 2, 1, 1, 2], [1, 1], [2, 2, 2]])
    @pytest.mark.parametrize("theta_2", [0.0, -0.4, 0.7, -1.0])
    def test_env_tags_give_the_indicator_formulas(self, env, theta_2):
        # the former float indicators: u = e1 + theta_2 e2, canonical lambda = alpha e1
        env = np.array(env)
        e1, e2 = (env == 1).astype(np.float64), (env == 2).astype(np.float64)
        gd = GramData(np.eye(len(env)), env, 0.1, theta_2)
        assert gd.weights.tobytes() == (e1 + theta_2 * e2).tobytes()
        r_c, r_s = 0.3, 0.7
        alpha = 1.0 / (1.0 + float(e1.sum()) * (r_c**2 + r_s**2))
        assert canonical_lambda(gd, r_c, r_s).tobytes() == (alpha * e1).tobytes()

    def test_derived_gram_is_checked_and_factored_once(self, monkeypatch):
        inst, data, gd = _random_gram_instance(23, n_1=5, n_2=5, d=80, theta_2=-0.4)
        Z = data.signed()
        assert gd.gram.tobytes() == (Z @ Z.T).tobytes()
        checks = []
        real = duality._check_conditioning
        monkeypatch.setattr(duality, "_check_conditioning",
                            lambda K: checks.append(K) or real(K))
        min_weighted_beta(gd)
        dual_value(gd, canonical_lambda(gd, inst.r_c, inst.r_s))
        assert len(checks) == 1 and checks[0] is gd.gram
