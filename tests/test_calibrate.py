"""Calibration plumbing: rate measurement and the parallel sweep path."""

import math

import numpy as np

from twoenv.calibrate import (
    kappa_interpolation_rate,
    measure_rates,
    preset_environments,
)
from twoenv import experiments
from twoenv.experiments import ExperimentConfig, emit, run_sweep
from twoenv.model import pool, sample_reduced
from twoenv.presets import load_constants, theorem_preset
from twoenv.rng import stream
from twoenv.training import TrainConfig


def test_preset_environments_pool_back_to_the_reduced_draw():
    preset = theorem_preset(8, 8, 1.0 / (4 * math.sqrt(16)) * 0.5, 0.2,
                            constants=load_constants(), strict=False)
    inst, s_1, s_2 = preset_environments(preset, seed=3)
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
    # GD methods reuse per-run buffers and one method fails on purpose: the
    # CSV and the errors sidecar must not depend on which process ran a cell
    cfg = ExperimentConfig(
        d_grid=(16, 48),
        seeds=2,
        n_1=16,
        n_2=8,
        methods=("mean", "two_phase", "erm", "vrex"),
        train=TrainConfig(max_iters=100, penalty_weight=10.0,
                          anneal_schedule=20),
    )
    real = experiments.gd_train

    def faulty(data, config, *args, **kwargs):
        if config.penalty_kind == "vrex" and data.ambient_d == 48:
            raise FloatingPointError("injected")
        return real(data, config, *args, **kwargs)

    # forked workers inherit the patched module
    monkeypatch.setattr(experiments, "gd_train", faulty)
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TWOENV_WORKERS", workers)
        path = tmp_path / f"workers{workers}.csv"
        emit(run_sweep(cfg), "csv", path)
        sidecar = tmp_path / f"workers{workers}.csv.errors.txt"
        outputs.append((path.read_bytes(), sidecar.read_bytes()))
    (csv_1, errors_1), (csv_2, errors_2) = outputs
    assert csv_1 == csv_2 and errors_1 == errors_2
    rows = csv_1.decode().splitlines()
    assert len(rows) == 1 + 4 * 2 * 2
    assert [row for row in rows if ",nan,nan," in row] == [
        f"vrex,48,{seed},nan,nan,nan,nan,nan,false,0" for seed in (0, 1)]
    assert errors_1.decode() == "".join(
        f"vrex,48,{seed}: FloatingPointError: injected\n" for seed in (0, 1))
