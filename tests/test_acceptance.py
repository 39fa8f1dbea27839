"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
every criterion is also enforced by plain assertions.  Statistical
criteria read the frozen calibrated constants, as does the sweep noise
rule.
"""

import math
import time

import numpy as np
import pytest

from twoenv import stream
from twoenv.calibrate import (
    CLOSED_FORM_TOL,
    DUAL_TOL,
    bound_chain_study,
    max_margin_indictment_rate,
    mean_margin_rate,
    two_phase_rate,
)
from twoenv.experiments import ExperimentConfig, SigmaRule, emit, run_sweep
from twoenv.metrics import error_at_theta, robust_error
from twoenv.model import LinearModel, ProblemInstance, sample_dataset, sample_orthogonal_means
from twoenv.presets import load_constants, theorem_preset
from twoenv.training import (
    TrainConfig,
    irm_margin_alignment,
    objective_gradient,
    objective_value,
)

from helpers import random_dataset

CONSTANTS = load_constants()


def _verdict(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {state} ({detail}; {time.time() - started:.1f}s)")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _desk_preset():
    n = 80
    return theorem_preset(40, 40, 1.0 / (4.0 * math.sqrt(n)), 0.1,
                          constants=CONSTANTS, strict=False)


@pytest.mark.slow
def test_c01_closed_form_error_oracle():
    started = time.time()
    rng = stream(2024, "c1")
    worst_mc = 0.0
    worst_grid = 0.0
    grid = np.linspace(-1.0, 1.0, 201)
    n_mc, chunk = 1_000_000, 250_000
    for _ in range(50):
        d = int(rng.integers(5, 41))
        sigma = float(rng.uniform(0.3, 1.2))
        theta = float(rng.uniform(-1.0, 1.0))
        mu_c, mu_s = sample_orthogonal_means(d, float(rng.uniform(0.5, 1.5)),
                                             float(rng.uniform(0.5, 2.5)), rng)
        w = rng.standard_normal(d)
        model = LinearModel(w)
        closed = error_at_theta(model, mu_c, mu_s, sigma, theta)
        mean = mu_c + theta * mu_s
        wrong = 0
        for _ in range(n_mc // chunk):
            y = np.where(rng.random(chunk) < 0.5, -1.0, 1.0)
            X = rng.standard_normal((chunk, d))
            X *= sigma
            X += y[:, None] * mean[None, :]
            wrong += int(((X @ w) * y <= 0).sum())
        worst_mc = max(worst_mc, abs(closed - wrong / n_mc))

        rob = robust_error(model, mu_c, mu_s, sigma)
        grid_max = max(error_at_theta(model, mu_c, mu_s, sigma, t) for t in grid)
        worst_grid = max(worst_grid, abs(rob - grid_max))
    ok = worst_mc <= 0.002 and worst_grid <= 1e-12
    _verdict(1, "closed-form error oracle", ok,
             f"max |closed-MC| {worst_mc:.2e} <= 2e-3, max grid gap {worst_grid:.1e} <= 1e-12",
             started)


def test_c02_mean_estimator_margin():
    started = time.time()
    preset = _desk_preset()
    rate = mean_margin_rate(preset, seeds=100)
    _verdict(2, "signed-mean margin rate", rate >= 0.95,
             f"margin >= 1/(4 sqrt(N)) in {int(rate * 100)}/100 seeds (need >= 95); d={preset.d}",
             started)


def test_c03_max_margin_indicted():
    started = time.time()
    preset = _desk_preset()
    rate = max_margin_indictment_rate(preset, seeds=100)
    _verdict(3, "max-margin spurious reliance", rate >= 0.90,
             f"ratio >= 1 and robust error >= 1/2 in {int(rate * 100)}/100 seeds (need >= 90)",
             started)


def test_c04_two_phase_robustness():
    started = time.time()
    preset = _desk_preset()
    rate = two_phase_rate(preset, seeds=100, epsilon=0.1)
    _verdict(4, "two-phase robust error", rate >= 0.95,
             f"robust error <= 0.1 in {int(rate * 100)}/100 seeds (need >= 95)", started)


def test_c05_duality_chain():
    started = time.time()
    assert (DUAL_TOL, CLOSED_FORM_TOL) == (1e-6, 1e-9)
    reports = bound_chain_study(100, t=3.0, seed_base=0)
    weak = sum(r.weak_duality_ok for r in reports)
    closed = sum(r.closed_form_ok for r in reports)
    ok = len(reports) == 100 and weak == 100 and closed == 100
    _verdict(5, "duality bound chain", ok,
             f"weak duality {weak}/100, closed-form <= dual {closed}/100", started)


@pytest.fixture(scope="module")
def qualitative_sweep():
    cfg = ExperimentConfig(
        d_grid=(20, 320, 5120, 24576),
        seeds=15,
        n_1=800,
        n_2=100,
        theta_1=1.0,
        theta_2=0.0,
        r_c=1.0,
        r_s=2.0,
        sigma_rule=SigmaRule("scaling", float(CONSTANTS["kappa"])),
        methods=("erm", "irmv1", "vrex", "two_phase", "oracle_no_spurious"),
        train=TrainConfig(penalty_weight=100.0, anneal_schedule=500, max_iters=3000),
    )
    started = time.time()
    records = run_sweep(cfg)
    print(f"[acceptance 06/07 sweep] {len(records)} records in {time.time() - started:.0f}s")
    return cfg, records


def _med(records, method, d, field="robust_acc"):
    vals = [getattr(r, field) for r in records if r.method == method and r.d == d]
    assert len(vals) == 15
    return float(np.median(vals))


def _all_flag(records, method, d, value=True):
    flags = [r.interpolating for r in records if r.method == method and r.d == d]
    return all(f == value for f in flags)


@pytest.mark.slow
def test_c06_qualitative_reproduction(qualitative_sweep):
    started = time.time()
    cfg, records = qualitative_sweep
    assert all(r.error is None for r in records)
    d_lo, d_hi = cfg.d_grid[0], cfg.d_grid[-1]

    gap_low = _med(records, "vrex", d_lo) - _med(records, "erm", d_lo)
    a_ok = gap_low >= 0.05

    interp_ok = all(_all_flag(records, m, d_hi) for m in ("erm", "irmv1", "vrex"))
    meds = [_med(records, m, d_hi) for m in ("erm", "irmv1", "vrex")]
    b_ok = interp_ok and (max(meds) - min(meds) <= 0.05)

    tp_no_interp = _all_flag(records, "two_phase", d_hi, value=False)
    tp_gap = _med(records, "two_phase", d_hi) - _med(records, "erm", d_hi)
    c_ok = tp_no_interp and tp_gap >= 0.15

    _verdict(6, "qualitative sweep reproduction", a_ok and b_ok and c_ok,
             f"low-d vrex-erm gap {gap_low:.3f} (>=0.05); high-d interpolation {interp_ok}, "
             f"median spread {max(meds) - min(meds):.3f} (<=0.05); two-phase gap {tp_gap:.3f} "
             f"(>=0.15, non-interpolating {tp_no_interp})", started)


@pytest.mark.slow
def test_c07_invariant_interpolator_exists(qualitative_sweep):
    started = time.time()
    cfg, records = qualitative_sweep
    d_hi = cfg.d_grid[-1]
    interp = _all_flag(records, "oracle_no_spurious", d_hi)
    med = _med(records, "oracle_no_spurious", d_hi)
    _verdict(7, "invariant interpolator exists", interp and med >= 0.9,
             f"interpolating {interp}, median robust accuracy {med:.3f} (>= 0.9)", started)


def test_c08_ridge_path_max_margin_alignment():
    started = time.time()
    d, n_1, n_2 = 5120, 160, 20
    kappa = float(CONSTANTS["kappa"])
    sigma = 1.0 / (kappa * (d / (n_1 + n_2)) ** 0.25)
    cfg = TrainConfig(max_iters=3000, penalty_weight=1.0)
    hits = 0
    for seed in range(25):
        mu_c, mu_s = sample_orthogonal_means(d, 1.0, 2.0, stream(seed, "c8-means"))
        inst = ProblemInstance(mu_c, mu_s, 1.0, 0.0, n_1, n_2, sigma, seed)
        data = sample_dataset(inst, stream(seed, "c8-data"))
        if irm_margin_alignment(data, cfg) >= 0.9:
            hits += 1
    _verdict(8, "ridge-path alignment with max margin", hits >= 20,
             f"cosine >= 0.9 in {hits}/25 seeds (need >= 20)", started)


def test_c09_gradient_correctness():
    started = time.time()
    worst = 0.0
    for seed in range(20):
        rng = stream(seed, "c9")
        data = random_dataset(rng, n=8, d=10)
        w = rng.standard_normal(10) * 0.7
        for kind in ("none", "irmv1", "vrex", "groupdro", "moment_match"):
            cfg = TrainConfig(penalty_kind=kind, penalty_weight=2.5, l2_weight=0.02)
            grad = objective_gradient(data, cfg, w)
            h = 1e-6
            fd = np.array(
                [
                    (objective_value(data, cfg, w + h * e)
                     - objective_value(data, cfg, w - h * e)) / (2 * h)
                    for e in np.eye(10)
                ]
            )
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-300)
            worst = max(worst, rel)
    _verdict(9, "analytic gradients", worst <= 1e-5,
             f"worst relative error {worst:.2e} (<= 1e-5) over 20 instances x 5 kinds",
             started)


def test_c10_sweep_determinism(tmp_path):
    started = time.time()
    cfg = ExperimentConfig(
        d_grid=(16, 64),
        seeds=2,
        n_1=24,
        n_2=12,
        methods=("mean", "erm", "two_phase"),
        train=TrainConfig(max_iters=300),
        output_path=str(tmp_path / "unused.csv"),
    )
    p_1, p_2 = tmp_path / "one.csv", tmp_path / "two.csv"
    emit(run_sweep(cfg), "csv", p_1)
    emit(run_sweep(cfg), "csv", p_2)
    same = p_1.read_bytes() == p_2.read_bytes()
    _verdict(10, "byte-identical sweeps", same,
             f"{p_1.stat().st_size} bytes compared equal" if same else "outputs differ",
             started)
