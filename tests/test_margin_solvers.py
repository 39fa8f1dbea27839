"""Property tests of the exact margin solvers against independent scipy oracles.

``scipy.optimize`` serves only as the oracle here: the package itself must
not import it (see ``test_cli_import_leaves_scipy_optimize_unloaded``, which
with ``test_commands_load_no_module_after_set_up`` pins what start-up loads).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linprog
from scipy.optimize import nnls as scipy_nnls

import twoenv
from twoenv import training
from twoenv.errors import NonSeparableError, TwoEnvError
from twoenv.experiments import METHODS
from twoenv.model import ProblemInstance, sample_dataset, sample_orthogonal_means
from twoenv.rng import stream
from twoenv.training import WITNESS_RTOL, hard_margin_dual, nnls

seeds = st.integers(0, 2**32 - 1)


@given(seed=seeds, m=st.integers(1, 12), n=st.integers(1, 10), rank=st.integers(1, 10),
       warm=st.lists(st.booleans(), min_size=10, max_size=10))
def test_nnls_matches_scipy(seed, m, n, rank, warm):
    # A = B C has rank at most min(m, n, rank), so G = A'A is often singular
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    y = rng.standard_normal(m)
    x, _ = nnls(A.T @ A, A.T @ y, np.array(warm[:n]))
    ref, _ = scipy_nnls(A, y)
    assert x.min() >= 0.0
    # tolerances scale with the least-squares backward error |y| + |A||x|: on
    # the normal equations an ill-conditioned A costs accuracy in x, not there
    norm_a = np.linalg.norm(A, 2)
    scale = np.linalg.norm(y) + norm_a * np.linalg.norm(x)
    # KKT from A itself: no column has a descent slope, passive columns none either way
    slope = A.T @ (y - A @ x)
    bound = 1e-9 * norm_a * scale
    assert slope.max() <= bound and np.abs(slope[x > 0]).max(initial=0.0) <= bound
    assert np.linalg.norm(A @ x - y) <= np.linalg.norm(A @ ref - y) + 1e-9 * scale
    # the fitted vector, the projection of y on the cone of A's columns, is
    # unique; scipy's answer is compared where it passes the same KKT check,
    # since it can miss the optimum on rank-deficient A (seed=9, m=6, n=9,
    # rank=4: its residual is 0.613 against the optimal 0.516)
    ref_slope = A.T @ (y - A @ ref)
    if ref_slope.max() <= bound and np.abs(ref_slope[ref > 0]).max(initial=0.0) <= bound:
        assert np.linalg.norm(A @ x - A @ ref) <= 1e-9 * scale


def test_nnls_raises_when_its_solves_miss(monkeypatch):
    real = training.chol_solve
    monkeypatch.setattr(training, "chol_solve", lambda factor, b: 1.001 * real(factor, b))
    A = np.eye(3) + 0.1
    with pytest.raises(TwoEnvError, match="KKT"):
        nnls(A.T @ A, A.T @ np.ones(3), np.ones(3, dtype=bool))


@pytest.mark.parametrize("n", [1, 20, 60, 180])
def test_lapack_helpers_are_bitwise_scipy_cholesky(n):
    rng = np.random.default_rng(n)
    Z = rng.standard_normal((n, 2 * n + 3))
    K = Z @ Z.T
    b = rng.standard_normal(n)
    ref = cho_factor(K)
    factor = training.chol_factor(K)
    assert factor.tobytes() == ref[0].tobytes()
    assert training.chol_solve(factor, b).tobytes() == cho_solve(ref, b).tobytes()


def test_non_positive_definite_block_is_skipped(monkeypatch):
    # the passive warm start [[1, 1], [1, 1]] is singular: its solve gives
    # None, the warm start is dropped, and the active set grows from empty
    results = []
    real = training.chol_factor

    def spy(a):
        results.append(real(a))
        return results[-1]

    monkeypatch.setattr(training, "chol_factor", spy)
    assert training.chol_factor(np.ones((2, 2))) is None
    x, _ = nnls(np.ones((2, 2)), np.ones(2), np.ones(2, dtype=bool))
    assert results[1] is None and results[2] is not None
    assert x.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["G", "b"])
def test_nnls_rejects_non_finite_input(bad, where):
    G, b = np.eye(3), np.ones(3)
    (G if where == "G" else b)[-1] = bad  # outside the warm-start block below
    with pytest.raises(ValueError, match="infs or NaNs"):
        nnls(G, b, np.array([True, True, False]))


def _check_verdict(Z):
    """hard_margin_dual against a HiGHS feasibility check of ``Z w >= 1``.

    The LP sees the rows scaled to unit norm, which keeps HiGHS in range at
    extreme sigma and changes no verdict: a positive row scaling maps the
    separators of ``Z`` onto those of the scaled rows.
    """
    n, k = Z.shape
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    unit = Z / np.where(norms > 0, norms, 1.0)
    lp = linprog(np.zeros(k), A_ub=-unit, b_ub=-np.ones(n), bounds=[(None, None)] * k,
                 method="highs")
    assert lp.status in (0, 2)  # feasible or infeasible, never undecided
    try:
        alpha, info = hard_margin_dual(Z)
    except NonSeparableError as exc:
        assert lp.status == 2
        u = exc.witness
        assert u.min() >= 0.0 and abs(u.sum() - 1.0) <= 1e-12
        assert exc.violated_index == int(np.argmax(u))
        assert exc.margin == np.linalg.norm(Z.T @ u)
        assert exc.margin <= WITNESS_RTOL * np.linalg.norm(Z, axis=1).max() * (1 + 1e-12)
        return False
    assert lp.status == 0
    assert alpha.min() >= 0.0 and info["iterations"] >= 1
    Zs = np.ldexp(Z, -info["exp"])  # alpha holds the multipliers for these rows
    assert (Zs @ (Zs.T @ alpha)).min() >= 1.0
    return True


@given(seed=seeds, n=st.integers(1, 12), k=st.integers(1, 6),
       margin=st.floats(1e-3, 1.0), dup=st.integers(0, 3))
def test_planted_margin_is_separable(seed, n, k, margin, dup):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(k)
    w /= np.linalg.norm(w)
    G = rng.standard_normal((n, k))
    target = margin + rng.exponential(size=n)
    Z = G + (target - G @ w)[:, None] * w[None, :]  # z_i'w = target_i >= margin
    Z = np.vstack([Z, Z[:dup]])  # duplicated rows
    assert _check_verdict(Z)


@given(seed=seeds, n=st.integers(0, 10), k=st.integers(1, 6), dup=st.integers(0, 3))
def test_planted_pair_is_not_separable(seed, n, k, dup):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(k)
    Z = np.vstack([rng.standard_normal((n, k)), z, -z])  # no w has z'w >= 1 and -z'w >= 1
    Z = np.vstack([Z, Z[:dup]])
    assert not _check_verdict(Z)


@given(seed=seeds, n_e=st.integers(2, 6), d=st.integers(2, 24),
       theta=st.sampled_from([(1.0, 0.0), (1.0, -0.5), (0.5, 0.5), (1.0, 1.0)]),
       sigma=st.sampled_from([1e-6, 0.1, 1.0, 1e3]), dup=st.integers(0, 2))
def test_sampled_draws_agree_with_lp(seed, n_e, d, theta, sigma, dup):
    # N_e = 2, d < N (rank-deficient Gram), theta_1 == theta_2 and extreme sigma
    mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(seed, "means"))
    inst = ProblemInstance(mu_c, mu_s, theta[0], theta[1], n_e, n_e, sigma, seed)
    Z = sample_dataset(inst, stream(seed, "data")).signed()
    _check_verdict(np.vstack([Z, Z[:dup]]))


def _run_python(code: str, cwd=None, **env) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(twoenv.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env, cwd=cwd).stdout


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds ~0.17 s of import time and ~16 MB of RSS to every
    # command, scipy.special ~0.1 s, and the scipy.linalg package ~0.3 s: the
    # trainer loads only its BLAS/LAPACK extension modules, which must still
    # be the very objects scipy.linalg hands out once it is imported
    code = ("import sys, twoenv.cli; "
            "print(*(m in sys.modules for m in ('scipy.linalg', 'scipy.optimize', "
            "'scipy.special'))); "
            "import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack; "
            "from twoenv import training as t; "
            "print(t.dsymv is blas.dsymv, t.dpotrf is lapack.dpotrf, "
            "t.dpotrs is lapack.dpotrs)")
    assert _run_python(code).split("\n")[:2] == ["False False False", "True True True"]


def test_commands_load_no_module_after_set_up(tmp_path):
    # whatever a command imports is start-up cost paid inside its timed run
    # (numpy.random, which numpy loads lazily, cost ~20 ms there); every
    # command must find all it needs loaded by `import twoenv.cli`
    methods = ",".join(METHODS)
    code = f"""
import sys
from twoenv import cli
before = set(sys.modules)
codes = [cli.main(argv) for argv in (
    ["sweep", "--d-grid", "16,64", "--seeds", "1", "--n1", "16", "--n2", "8",
     "--methods", "{methods}", "--max-iters", "60", "--json", "sweep.json"],
    ["verify", "--instances", "5"],
    ["preset", "--n1", "100", "--n2", "100", "--gamma", "0.01", "--epsilon", "0.05"],
    ["calibrate", "--sizes", "20", "--seeds", "2", "--kappa-dmax", "64"],
)]
print("exit codes", *codes, "loaded", *sorted(set(sys.modules) - before))
"""
    out = _run_python(code, cwd=tmp_path, TWOENV_WORKERS="1")
    assert out.splitlines()[-1] == "exit codes 0 0 0 0 loaded"


def test_package_exports_names_not_submodules():
    # the submodules the package's imports bind (errors, model, training, ...)
    # are reachable as attributes, but `from twoenv import *` gives names only
    assert twoenv.__all__ == [
        "ConfigError", "DegenerateConstraintError", "DegenerateLabelsError",
        "ExperimentConfig", "IllConditionedGramError", "InfeasibleMarginError",
        "LabeledDataset", "LinearModel", "NonSeparableError", "PresetParams",
        "ProblemInstance", "RunRecord", "SigmaRule", "TrainConfig", "TwoEnvError",
        "cosine_similarity", "emit", "error_at_theta", "gaussian_tail", "gaussian_tail_inv",
        "gd_train", "invariance_gaps", "irm_margin_alignment", "load_constants",
        "max_margin", "mean_estimator", "normalized_margin", "per_env_mean", "pool",
        "resolve_sigma", "robust_error", "run_sweep", "sample_dataset",
        "sample_orthogonal_means", "sample_reduced", "spurious_core_ratio", "stream",
        "theorem_preset", "two_phase_learn",
    ]
