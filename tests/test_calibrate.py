"""Calibration plumbing: rate measurement and the parallel sweep path."""

import math
import tracemalloc

import pytest

from twoenv.calibrate import (
    EPSILON,
    kappa_interpolation_rate,
    max_margin_indictment_rate,
    mean_margin_rate,
    measure_rates,
    preset_environments,
    two_phase_rate,
)
from twoenv import calibrate, experiments
from twoenv.errors import TwoEnvError
from twoenv.estimators import two_phase_learn
from twoenv.metrics import robust_error
from twoenv.experiments import ExperimentConfig, emit, run_sweep
from twoenv.model import sample_reduced
from twoenv.presets import load_constants, theorem_preset
from twoenv.rng import stream
from twoenv.training import TrainConfig


def test_preset_environments_is_the_reduced_draw():
    preset = theorem_preset(8, 8, 1.0 / (4 * math.sqrt(16)) * 0.5, 0.2,
                            constants=load_constants(), strict=False)
    inst, data = preset_environments(preset, seed=3)
    direct_inst, direct = sample_reduced(preset.d, preset.r_c, preset.r_s, 1.0, 0.0,
                                         preset.n_1, preset.n_2, preset.sigma, 3,
                                         stream(3, "preset-data"))
    assert data.X.tobytes() == direct.X.tobytes()
    assert data.y.tobytes() == direct.y.tobytes()
    assert data.env.tobytes() == direct.env.tobytes()
    assert inst.mu_c.tobytes() == direct_inst.mu_c.tobytes()
    assert inst.mu_s.tobytes() == direct_inst.mu_s.tobytes()
    assert data.ambient_d == preset.d
    assert inst.d == data.d == preset.n_1 + preset.n_2 + 2


def test_measure_rates_shape():
    rates = measure_rates(load_constants(), n_e=20, seeds=4)
    assert set(rates) >= {"n_e", "d", "mean_margin", "indictment", "two_phase"}
    for key in ("mean_margin", "indictment", "two_phase"):
        assert 0.0 <= rates[key] <= 1.0


def test_measure_rates_draws_each_seed_once(monkeypatch):
    # the three rates used to draw each (preset, seed) instance once apiece
    drawn = []
    real = calibrate.preset_environments
    monkeypatch.setattr(calibrate, "preset_environments",
                        lambda preset, seed: drawn.append(seed) or real(preset, seed))
    measure_rates(load_constants(), n_e=40, seeds=3)  # the bench command's measurement
    assert drawn == [0, 1, 2]


# n_e = 3 at the frozen constants is the preset of the unfittable-draw test
# below (two_phase 0.25 over 8 seeds); dimension constants shrunk 500-fold
# make the other two rates mixed as well (mean_margin 0.625 and 0.125,
# indictment 0.375 at n_e = 3)
@pytest.mark.parametrize("n_e", [3, 20])
@pytest.mark.parametrize("shrink", [1.0, 0.002])
def test_measure_rates_equals_the_standalone_rates(n_e, shrink):
    seeds = 8
    constants = load_constants()
    constants.update({key: constants[key] * shrink for key in ("C_d", "C_d_prime", "C_s", "C_c")})
    rates = measure_rates(constants, n_e=n_e, seeds=seeds)
    preset = theorem_preset(n_e, n_e, 1.0 / (4 * math.sqrt(2 * n_e)), EPSILON,
                            constants=constants, strict=False)
    assert rates["d"] == preset.d
    assert rates["mean_margin"] == mean_margin_rate(preset, seeds)
    assert rates["indictment"] == max_margin_indictment_rate(preset, seeds)
    assert rates["two_phase"] == two_phase_rate(preset, seeds, EPSILON)


def test_two_phase_rate_counts_an_unfittable_draw_as_a_miss():
    # at 3 rows per environment a held-out half often has no positive label;
    # such a draw used to abort `twoenv calibrate --sizes 3` outright
    preset = theorem_preset(3, 3, 1.0 / (4 * math.sqrt(6)), EPSILON,
                            constants=load_constants(), strict=False)
    hits = failures = 0
    for seed in range(6):
        inst, data = preset_environments(preset, seed)
        try:
            model = two_phase_learn(data.by_env(1), data.by_env(2),
                                    stream(seed, "preset-two-phase"))
        except TwoEnvError:
            failures += 1
            continue
        hits += robust_error(model, inst.mu_c, inst.mu_s, preset.sigma) <= EPSILON
    assert failures > 0 and hits > 0
    assert two_phase_rate(preset, 6, EPSILON) == hits / 6


def test_kappa_interpolation_rate_small():
    # overparameterized enough that the signed mean separates every draw
    rate = kappa_interpolation_rate(1.4, d_max=4096, n_1=40, n_2=10, seeds=5)
    assert rate == 1.0


@pytest.mark.parametrize("d_max", [2, 3])
def test_kappa_interpolation_rate_at_the_smallest_dimensions(d_max):
    # d = 2 has no noise block: a chi-square with 0 degrees of freedom is an error
    assert 0.0 <= kappa_interpolation_rate(1.4, d_max, 40, 10, seeds=3) <= 1.0


def test_kappa_interpolation_rate_draws_row_sums_alone():
    # a reduced draw's 900 x 902 rows alone are 6.5 MB; the row sums are 7 KB
    tracemalloc.start()
    try:
        kappa_interpolation_rate(1.4, 24576, 800, 100, seeds=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
