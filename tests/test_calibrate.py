"""Calibration plumbing: rate measurement and the parallel sweep path."""

import math

import numpy as np

from twoenv.calibrate import (
    kappa_interpolation_rate,
    measure_rates,
    preset_environments,
)
from twoenv.experiments import ExperimentConfig, emit, run_sweep
from twoenv.model import pool, sample_reduced
from twoenv.presets import load_constants, theorem_preset
from twoenv.rng import stream
from twoenv.training import TrainConfig


def test_preset_environments_pool_back_to_the_reduced_draw():
    preset = theorem_preset(8, 8, 1.0 / (4 * math.sqrt(16)) * 0.5, 0.2,
                            constants=load_constants(), strict=False)
    inst, s_1, s_2 = preset_environments(preset, 1.0, 0.0, seed=3)
    _, direct = sample_reduced(preset.d, preset.r_c, preset.r_s, 1.0, 0.0, preset.n_1,
                               preset.n_2, preset.sigma, 3, stream(3, "preset-data"))
    pooled = pool(s_1, s_2)
    assert pooled.X.tobytes() == direct.X.tobytes()
    np.testing.assert_array_equal(pooled.y, direct.y)
    np.testing.assert_array_equal(pooled.env, direct.env)
    assert s_1.ambient_d == s_2.ambient_d == pooled.ambient_d == preset.d
    assert inst.d == pooled.d == preset.n_1 + preset.n_2 + 2


def test_measure_rates_shape():
    rates = measure_rates(load_constants(), n_e=20, seeds=4)
    assert set(rates) >= {"n_e", "d", "mean_margin", "indictment", "two_phase"}
    for key in ("mean_margin", "indictment", "two_phase"):
        assert 0.0 <= rates[key] <= 1.0


def test_kappa_interpolation_rate_small():
    # overparameterized enough that the signed mean separates every draw
    rate = kappa_interpolation_rate(1.4, d_max=4096, n_1=40, n_2=10, seeds=5)
    assert rate == 1.0


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    cfg = ExperimentConfig(
        d_grid=(16, 48),
        seeds=2,
        n_1=16,
        n_2=8,
        methods=("mean", "two_phase"),
        train=TrainConfig(max_iters=100, log_every=100),
    )
    serial = run_sweep(cfg)
    monkeypatch.setenv("TWOENV_WORKERS", "2")
    parallel = run_sweep(cfg)
    monkeypatch.delenv("TWOENV_WORKERS")
    p_1, p_2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    emit(serial, "csv", p_1)
    emit(parallel, "csv", p_2)
    assert p_1.read_bytes() == p_2.read_bytes()
