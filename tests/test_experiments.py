"""Sweep runner, emission formats, and the command line."""

import csv
import functools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twoenv import cli, experiments, stream, training
from twoenv.cli import main
from twoenv.errors import ConfigError, TwoEnvError
from twoenv.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    SigmaRule,
    build_config,
    emit,
    parse_config_file,
    resolve_sigma,
    run_sweep,
)
from twoenv.model import (
    LabeledDataset,
    LinearModel,
    ProblemInstance,
    sample_dataset,
    sample_orthogonal_means,
    sample_reduced,
)
from twoenv.training import TrainConfig, penalty_value_and_slope

from helpers import constants_text

README = Path(__file__).resolve().parent.parent / "README.md"
# the config keys that are also sweep flags: those with help text
FLAG_KEYS = [key for key, (_, _, help_text) in experiments._CONFIG_KEYS.items() if help_text]


class TestResolveSigma:
    def test_equal_dimension_and_size(self):
        assert resolve_sigma(SigmaRule("scaling", 1.0), 900, 900, 2.5) == pytest.approx(2.5)

    def test_sixteen_fold_dimension(self):
        assert resolve_sigma(SigmaRule("scaling", 1.0), 16 * 900, 900, 1.0) == pytest.approx(0.5)

    def test_quadrupling_d_doubles_snr(self):
        s1 = resolve_sigma(SigmaRule("scaling", 1.3), 400, 100, 1.0)
        s2 = resolve_sigma(SigmaRule("scaling", 1.3), 1600, 100, 1.0)
        assert (1.0 / s2) ** 2 == pytest.approx(2.0 * (1.0 / s1) ** 2, rel=1e-12)

    def test_fixed_rule(self):
        assert resolve_sigma(SigmaRule("fixed", 0.37), 10, 10, 1.0) == 0.37

    def test_bad_rule_parameter(self):
        with pytest.raises(ConfigError):
            SigmaRule("scaling", 0.0)
        with pytest.raises(ConfigError):
            SigmaRule("quadratic", 1.0)

    @pytest.mark.parametrize("kind, name", [("fixed", "sigma"), ("scaling", "kappa")])
    def test_integer_too_large_for_a_float_is_not_finite(self, kind, name):
        # math.isfinite(10**400) raises OverflowError, which used to escape bare
        with pytest.raises(ConfigError, match=name):
            SigmaRule(kind, 10**400)


def _tiny_config(**kwargs):
    defaults = dict(
        d_grid=(64,),
        seeds=1,
        n_1=20,
        n_2=10,
        methods=("mean",),
        train=TrainConfig(max_iters=200),
        output_path="sweep.csv",
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


SCALE_FREE_METHODS = ("mean", "two_phase", "max_margin")


def _scaled_sweep(k, methods=SCALE_FREE_METHODS):
    """The sweep of ``twoenv sweep --methods mean,two_phase,max_margin --d-grid 16,2000
    --seeds 2 --n1 20 --n2 10`` with ``sigma``, ``r_c`` and ``r_s`` all ``2**k``."""
    c = math.ldexp(1.0, k)
    return run_sweep(_tiny_config(d_grid=(16, 2000), seeds=2, r_c=c, r_s=c,
                                  sigma_rule=SigmaRule("fixed", c), methods=methods))


@functools.cache
def _unit_sweep():
    return _scaled_sweep(0)


def _check_relation(unit, scaled, k):
    """The power-of-two relation between a row at scale ``2**k`` and its unit-scale row:
    the accuracies, margin and ratio bitwise, and eopp_gap ``4**k`` times
    (once for max_margin, whose ``w`` scales by ``2**-k``); or, exactly where
    that eopp_gap is no float, an error row that says so."""
    assert (scaled.method, scaled.d, scaled.seed) == (unit.method, unit.d, unit.seed)
    degree = 0 if unit.method == "max_margin" else 2 * k
    try:
        gap = math.ldexp(unit.eopp_gap, degree)
    except OverflowError:
        gap = math.inf
    if math.ldexp(gap, -degree) != unit.eopp_gap:  # overflowed, or lost bits
        assert "eopp_gap cannot be represented" in str(scaled.error), scaled.error
        return
    assert scaled.error is None, scaled.error
    invariant = ("train_acc", "robust_acc", "margin", "ratio")
    # repr is exact for floats and equal for two nans
    assert ([repr(getattr(scaled, key)) for key in invariant]
            == [repr(getattr(unit, key)) for key in invariant])
    assert scaled.eopp_gap == gap


class TestRunSweep:
    def test_single_record(self):
        records = run_sweep(_tiny_config())
        assert len(records) == 1
        rec = records[0]
        assert rec.method == "mean" and rec.d == 64 and rec.seed == 0
        assert 0.0 <= rec.robust_acc <= 1.0
        assert rec.interpolating == (rec.train_acc == 1.0 and rec.margin > 0.0)

    def test_a_row_on_the_separator_is_neither_accurate_nor_interpolating(self, monkeypatch):
        # rows e_1 and e_2 with w = e_1: one signed margin is 1, the other
        # exactly 0.0, which counts as a miss; interpolating needs a positive
        # minimum margin
        def fit(method, data, *args):
            Z = np.eye(2, data.d)
            rows = LabeledDataset.from_signed(Z, np.array([1, 1]), np.array([1, 2]),
                                              data.ambient_d)
            return LinearModel(Z[0].copy()), rows

        monkeypatch.setattr(experiments, "_fit", fit)
        [rec] = experiments.run_cell(_tiny_config(d_grid=(16,)), 16, 0)
        assert rec.error is None
        assert (rec.train_acc, rec.margin, rec.interpolating) == (0.5, 0.0, False)

    def test_emitted_bytes_reproducible(self, tmp_path):
        cfg = _tiny_config(d_grid=(16, 64), seeds=2, methods=("mean", "two_phase"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_sweep(cfg), "csv", p1)
        emit(run_sweep(cfg), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scale_free_learners_commute_with_a_power_of_two(self):
        # sigma, r_c and r_s times c = 2^-27 multiply every row by c exactly:
        # the accuracies, margin and ratio stay bitwise, and eopp_gap scales
        # by c^2 (by 1 for max_margin, whose w scales by 1/c).  two_phase's
        # degeneracy test used an absolute 1e-15 floor, and both of its d=16
        # rows were error rows at this scale
        def sweep(c):
            return run_sweep(_tiny_config(
                d_grid=(16, 2000), seeds=2, r_c=c, r_s=2.0 * c, sigma_rule=SigmaRule("fixed", c),
                methods=("two_phase", "mean", "max_margin")))

        unit, small = sweep(1.0), sweep(2.0**-27)
        assert len(unit) == len(small) == 12
        assert sum(r.method == "two_phase" for r in small) == 4
        invariant = ("train_acc", "robust_acc", "margin", "ratio")
        for u, s in zip(unit, small):
            assert (s.method, s.d, s.seed, s.error) == (u.method, u.d, u.seed, None)
            # repr is exact for floats and equal for two nans
            assert ([repr(getattr(s, k)) for k in invariant]
                    == [repr(getattr(u, k)) for k in invariant])
            assert s.eopp_gap == (1.0 if u.method == "max_margin" else 4.0**-27) * u.eopp_gap

    @pytest.mark.parametrize("k", [-540, -520, 510])
    def test_extreme_scales_keep_the_power_of_two_relation(self, k):
        # item 7's relation at scales where the products leave the float range:
        # max_margin's K underflowed (a false "not separable" at 2^-540, an
        # overflow at 2^-520) or overflowed (2^510), and mean's metrics divided
        # by an underflowed sigma ||w|| (a bare ZeroDivisionError at 2^-540)
        unit, scaled = (_scaled_sweep(0, ("mean", "max_margin")),
                        _scaled_sweep(k, ("mean", "max_margin")))
        assert len(unit) == len(scaled) == 8
        assert all(r.error is None for r in unit)
        assert not any(r.error for r in scaled if r.method == "max_margin")
        for u, s in zip(unit, scaled):
            _check_relation(u, s, k)

    # Beyond about |k| = 1015 the sampler's rows leave the normal floats
    # (subnormal or overflowing), so they are no longer the unit rows times 2**k.
    # At 510 and -540 the products inside every learner and metric leave them.
    @given(k=st.integers(-1000, 1000))
    @example(k=510)
    @example(k=-540)
    def test_power_of_two_scale_keeps_every_row(self, k):
        unit, scaled = _unit_sweep(), _scaled_sweep(k)
        assert len(unit) == len(scaled) == 12 and all(r.error is None for r in unit)
        for u, s in zip(unit, scaled):
            _check_relation(u, s, k)

    def test_scale_free_metrics_at_two_to_the_minus_540(self):
        # the mean's row there is an error row (its eopp_gap is about 2^-1080),
        # yet its scale-free metrics are the unit-scale bits
        from twoenv.estimators import mean_estimator
        from twoenv.metrics import (normalized_margin, robust_error, spurious_core_ratio,
                                    train_accuracy)

        def metrics(k):
            c = 2.0**k
            inst, data = sample_reduced(2000, c, c, 1.0, 0.0, 20, 10, c, 0, stream(0))
            model = mean_estimator(data)
            return [repr(v) for v in (
                train_accuracy(model, data), normalized_margin(model, data, c),
                robust_error(model, inst.mu_c, inst.mu_s, c),
                spurious_core_ratio(model, inst.mu_c, inst.mu_s))]

        assert metrics(-540) == metrics(0)

    def test_every_cell_present_once(self):
        cfg = _tiny_config(d_grid=(8, 32), seeds=3, methods=("mean", "erm"))
        records = run_sweep(cfg)
        keys = [(r.method, r.d, r.seed) for r in records]
        assert len(keys) == len(set(keys)) == 2 * 2 * 3
        assert keys == sorted(keys)

    def test_method_failure_becomes_error_row(self, tmp_path):
        # fixed high noise at d=2 with 30 points: not linearly separable,
        # so the hard-margin fit must fail and be recorded, not raised
        cfg = _tiny_config(
            d_grid=(2,),
            n_1=20,
            n_2=10,
            sigma_rule=SigmaRule("fixed", 5.0),
            r_c=0.1,
            r_s=0.1,
            methods=("max_margin", "mean"),
        )
        records = run_sweep(cfg)
        by_method = {r.method: r for r in records}
        assert by_method["max_margin"].error is not None
        assert math.isnan(by_method["max_margin"].train_acc)
        assert by_method["mean"].error is None
        out = tmp_path / "err.csv"
        emit(records, "csv", out)
        sidecar = tmp_path / "err.csv.errors.txt"
        assert sidecar.exists()
        assert "max_margin,2,0:" in sidecar.read_text()
        # a rerun to the same path with no error row leaves no stale reasons
        emit(run_sweep(replace(cfg, methods=("mean",))), "csv", out)
        assert not sidecar.exists()

    def test_negative_theta_variant_needs_no_other_changes(self):
        cfg = _tiny_config(theta_2=-0.5, methods=("mean", "two_phase"))
        records = run_sweep(cfg)
        assert all(r.error is None for r in records)
        assert all(0.0 <= r.robust_acc <= 1.0 for r in records)

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            _tiny_config(d_grid=())
        with pytest.raises(ConfigError):
            _tiny_config(d_grid=(64, 32))
        with pytest.raises(ConfigError):
            _tiny_config(seeds=0)
        with pytest.raises(ConfigError):
            _tiny_config(methods=("mean", "nonsense"))

    def test_wall_time_scales_moderately(self):
        cfg = _tiny_config(
            d_grid=(100, 10_000),
            n_1=24,
            n_2=16,
            methods=("erm",),
            train=TrainConfig(max_iters=300),
        )
        records = run_sweep(cfg)
        small = max(records[0].wall_ms, 0.5)
        big = max(records[1].wall_ms, 0.5)
        assert big < 500 * small


def _fields(record):
    """A record's values without its wall time, nan made comparable."""
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                 for k, v in vars(record).items() if k != "wall_ms")


class TestPrefixSharing:
    """A cell's GD fits on its draw share their pre-anneal steps."""

    @pytest.mark.parametrize("methods", [
        ("erm", "irmv1", "vrex", "oracle_no_spurious"),  # ERM first
        ("irmv1", "vrex", "two_phase", "erm"),  # ERM last
        ("irmv1", "vrex", "groupdro", "moment_match"),  # no ERM
    ])
    @pytest.mark.parametrize("d", [16, 64])  # N=30: Z (Z' c) at 16, the stored Gram at 64
    def test_cell_records_equal_unshared_fits(self, monkeypatch, methods, d):
        # a cell with one method has no other fit to share with
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return penalty_value_and_slope(*args, **kwargs)

        monkeypatch.setattr(training, "penalty_value_and_slope", spy)
        train = TrainConfig(max_iters=300, penalty_weight=100.0, anneal_schedule=100)
        cfg = _tiny_config(d_grid=(d,), methods=methods, train=train)
        shared = experiments.run_cell(cfg, d, 3)
        shared_evals = len(calls)
        alone = []
        for method in methods:
            alone += experiments.run_cell(replace(cfg, methods=(method,)), d, 3)
        assert [_fields(r) for r in shared] == [_fields(r) for r in alone]
        assert all(r.error is None for r in shared)
        # three or four fits on the draw: all but the first resume
        assert shared_evals <= len(calls) - shared_evals - 2 * 100

    def test_each_cell_has_its_own_store(self, monkeypatch):
        handed = []
        real = experiments.gd_train

        def spy(data, config, *args, **kwargs):
            handed.append((config.penalty_kind, data))
            return real(data, config, *args, **kwargs)

        monkeypatch.setattr(experiments, "gd_train", spy)
        train = TrainConfig(max_iters=150, penalty_weight=100.0, anneal_schedule=100)
        cfg = _tiny_config(d_grid=(16, 64), seeds=2, train=train,
                           methods=("erm", "vrex", "oracle_no_spurious"))
        run_sweep(cfg)
        draws = [data for _, data in handed[::3]]
        assert len(handed) == 3 * 4
        assert len({id(data.gd_prefixes) for data in draws}) == 4
        assert all(data is handed[3 * i + 1][1] for i, data in enumerate(draws))
        assert all(len(data.gd_prefixes) == 1 for data in draws)
        # the oracle trains on a stripped copy, whose store is its own
        assert all(oracle.gd_prefixes is not data.gd_prefixes
                   for (_, oracle), data in zip(handed[2::3], draws))


class TestCellMemory:
    """A cell holds its rows, one stripped copy and one Gram at a time."""

    @staticmethod
    def _full_subtraction(data, mu_s, theta_1, theta_2):
        theta = np.where(data.env == 1, theta_1, theta_2)
        return data.signed() - theta[:, None] * np.asarray(mu_s)[None, :]

    @pytest.mark.parametrize("d", [7, 500])  # reduced draws with d - 2 < N and d - 2 >= N
    @pytest.mark.parametrize("theta_1, theta_2", [(1.0, 0.0), (0.7, -0.4)])
    def test_strip_is_the_full_subtraction_on_reduced_draws(self, d, theta_1, theta_2):
        inst, data = sample_reduced(d, 1.0, 2.0, theta_1, theta_2, 6, 4, 0.3, 5, stream(5, "s"))
        cleaned = experiments._strip_spurious(data, inst.mu_s, theta_1, theta_2)
        full = self._full_subtraction(data, inst.mu_s, theta_1, theta_2)
        assert cleaned.signed().tobytes() == full.tobytes()
        assert not np.shares_memory(cleaned.signed(), data.signed())
        assert (cleaned.y is data.y and cleaned.env is data.env
                and cleaned.ambient_d == data.ambient_d)

    def test_strip_is_the_full_subtraction_on_a_dense_mean(self):
        mu_c, mu_s = sample_orthogonal_means(40, 1.0, 2.0, stream(6, "means"))
        inst = ProblemInstance(mu_c, mu_s, 0.9, -0.3, 7, 5, 0.5, 6)
        data = sample_dataset(inst, stream(6, "rows"))
        assert np.count_nonzero(mu_s) == 40
        cleaned = experiments._strip_spurious(data, mu_s, 0.9, -0.3)
        assert cleaned.signed().tobytes() == self._full_subtraction(data, mu_s, 0.9, -0.3).tobytes()

    def test_cell_peak_is_about_three_copies_of_its_rows(self):
        methods = ("erm", "irmv1", "vrex", "two_phase", "oracle_no_spurious")
        train = TrainConfig(max_iters=300, penalty_weight=100.0, anneal_schedule=100)
        cfg = _tiny_config(d_grid=(5000,), n_1=200, n_2=100, methods=methods, train=train)
        tracemalloc.start()
        try:
            records = experiments.run_cell(cfg, 5000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.error is None for r in records)
        rows = 300 * 302 * 8  # N x (N + 2) signed rows of the reduced draw
        assert peak <= 3.25 * rows


class TestEmit:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(TwoEnvError):
            emit([], "csv", tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_csv_roundtrip_and_header(self, tmp_path):
        cfg = _tiny_config(d_grid=(16,), seeds=2, methods=("mean", "two_phase"))
        records = run_sweep(cfg)
        path = tmp_path / "r.csv"
        emit(records, "csv", path)
        text = path.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert len(text.strip().split("\n")) == len(records) + 1
        with path.open(newline="") as fh:
            back = list(csv.DictReader(fh))
        for orig, parsed in zip(records, back):
            assert parsed["method"] == orig.method
            assert int(parsed["d"]) == orig.d and int(parsed["seed"]) == orig.seed
            assert float(parsed["train_acc"]) == pytest.approx(orig.train_acc, rel=1e-8)
            assert float(parsed["margin"]) == pytest.approx(orig.margin, rel=1e-8)
            assert parsed["interpolating"] == ("true" if orig.interpolating else "false")
            assert float(parsed["wall_ms"]) == 0.0  # timings off by default

    def test_json_mirror_keys(self, tmp_path):
        records = run_sweep(_tiny_config())
        path = tmp_path / "r.json"
        emit(records, "json", path)
        payload = json.loads(path.read_text())
        assert list(payload[0].keys()) == CSV_HEADER.split(",")

    def test_timings_flag(self, tmp_path):
        records = run_sweep(_tiny_config())
        path = tmp_path / "t.csv"
        emit(records, "csv", path, timings=True)
        with path.open(newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert float(parsed[0]["wall_ms"]) > 0.0


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# comment line\n"
            "d_grid = 8, 32\n"
            "seeds = 2\n"
            "n1 = 12\n"
            "n2 = 8\n"
            "theta2 = -0.5\n"
            "methods = mean\n"
            "kappa = 1.1\n"
            "max_iters = 50\n"
        )
        cfg = build_config(parse_config_file(path))
        assert cfg.d_grid == (8, 32)
        assert cfg.seeds == 2
        assert cfg.theta_2 == -0.5
        assert cfg.sigma_rule == SigmaRule("scaling", 1.1)
        assert cfg.train.max_iters == 50

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("d_grid = 8\nwhat is this\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config_file(path)
        assert ":2:" in str(excinfo.value)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dgrid = 8\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_conflicting_sigma_rules(self):
        with pytest.raises(ConfigError):
            build_config({"d_grid": "8", "seeds": "1", "sigma": "1.0", "kappa": "2.0"})

    def test_bad_field_value(self):
        with pytest.raises(ConfigError):
            build_config({"d_grid": "8", "seeds": "two"})

    def test_defaults_live_on_the_dataclasses(self):
        assert build_config({"d_grid": "8", "seeds": "1"}) == ExperimentConfig(d_grid=(8,), seeds=1)

    # a non-default value for every sweep flag
    FLAG_VALUES = {
        "d_grid": "8,32", "seeds": "3", "n1": "12", "n2": "7", "theta1": "0.5",
        "theta2": "-0.5", "rc": "1.5", "rs": "2.5", "kappa": "1.1", "sigma": "0.7",
        "methods": "mean,erm", "out": "other.csv", "seed_base": "5", "max_iters": "50",
        "penalty_weight": "3",
    }

    def test_flags_and_config_keys_agree(self, tmp_path, monkeypatch):
        # each flag is its config key spelled "--" + key with "-" for "_", and
        # --flag v builds the same config as the file line "key = v"
        built = []

        def capture(config):
            built.append(config)
            raise TwoEnvError("captured")

        monkeypatch.setattr(cli, "run_sweep", capture)

        def config_of(lines, *flags):
            path = tmp_path / "s.cfg"
            path.write_text("d_grid = 16\nseeds = 1\n" + lines)
            assert main(["sweep", "--config", str(path), *flags]) == 1
            return built.pop()

        base = config_of("")
        assert sorted(FLAG_KEYS) == sorted(self.FLAG_VALUES)
        for key, value in self.FLAG_VALUES.items():
            from_flag = config_of("", "--" + key.replace("_", "-"), value)
            assert from_flag == config_of(f"{key} = {value}\n"), key
            assert from_flag != base, key

    def test_readme_key_table_matches_the_config_keys(self):
        # README's "| `key` | `--flag` | meaning |" rows, kept by hand, against the table
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in README.read_text().splitlines() if line.startswith("| `")]
        assert [key for key, _, _ in rows] == list(experiments._CONFIG_KEYS)
        flags = [(key, flag, meaning) for key, flag, meaning in rows if flag]
        assert [key for key, _, _ in flags] == FLAG_KEYS
        for key, flag, meaning in flags:
            assert flag == "--" + key.replace("_", "-")
            assert meaning == experiments._CONFIG_KEYS[key][2]

    def test_negative_anneal_rejected(self):
        # a negative anneal iteration used to switch the penalty on at step 0
        with pytest.raises(TwoEnvError, match="anneal_schedule"):
            build_config({"d_grid": "8", "seeds": "1", "anneal_schedule": "-3"})


class TestCli:
    def test_sweep_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "sweep", "--methods", "mean", "--d-grid", "64", "--seeds", "1",
                "--n1", "20", "--n2", "10", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert out.read_text().startswith(CSV_HEADER)

    def test_preset_delegates(self, capsys):
        code = main(
            ["preset", "--n1", "100", "--n2", "100", "--gamma", "0.01", "--epsilon", "0.05"]
        )
        assert code == 0
        outp = capsys.readouterr().out
        from twoenv.presets import theorem_preset

        params = theorem_preset(100, 100, 0.01, 0.05)
        assert f"d = {params.d}" in outp
        assert "r_c =" in outp

    def test_preset_hypothesis_violation_exits_one(self):
        code = main(
            ["preset", "--n1", "10", "--n2", "10", "--gamma", "0.9", "--epsilon", "0.05"]
        )
        assert code == 1

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("seeds = 1\nnot a config\n")
        code = main(["sweep", "--config", str(path)])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        assert main(["sweep", "--frobnicate", "1"]) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    def test_bad_worker_count_exits_one(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("TWOENV_WORKERS", value)
        out = tmp_path / "w.csv"
        code = main(["sweep", "--methods", "mean", "--d-grid", "16", "--seeds", "1",
                     "--n1", "10", "--n2", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "TWOENV_WORKERS" in err and "positive integer" in err
        assert not out.exists()

    def test_partial_failure_exit_code(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(
            [
                "sweep", "--methods", "max_margin", "--d-grid", "2", "--seeds", "1",
                "--n1", "20", "--n2", "10", "--sigma", "5.0", "--rc", "0.1",
                "--rs", "0.1", "--out", str(out),
            ]
        )
        assert code == 2
        assert out.exists()

    @pytest.mark.parametrize("fault, reason", [
        pytest.param(np.linalg.LinAlgError, "LinAlgError: injected", id="LinAlgError"),
        pytest.param(FloatingPointError, "FloatingPointError: injected",
                     id="FloatingPointError"),
        # planted: finite weights whose norm exceeds the largest float.  The
        # metrics are taken on w scaled by a power of two, so only eopp_gap,
        # about 2**1024, is no float (a squared norm that overflows alone is
        # no failure: see test_weights_times_a_power_of_two_keep_their_row)
        pytest.param(None, r"eopp_gap cannot be represented at this scale: it is \S+ times "
                     r"2\*\*1024", id="overflow"),
    ])
    def test_numerical_failure_becomes_one_error_row(self, tmp_path, monkeypatch, fault,
                                                     reason):
        argv = ["sweep", "--methods", "erm,vrex,mean", "--d-grid", "16", "--seeds", "1",
                "--n1", "20", "--n2", "10", "--max-iters", "50"]
        clean = tmp_path / "clean.csv"
        assert main(argv + ["--out", str(clean)]) == 0
        real = experiments.gd_train

        def faulty(data, config, *args, **kwargs):
            if config.penalty_kind == "vrex" and fault is not None:
                raise fault("injected")
            model, trace = real(data, config, *args, **kwargs)
            if config.penalty_kind == "vrex":
                model = LinearModel(np.full_like(model.w, 1e308), meta=model.meta)
            return model, trace

        monkeypatch.setattr(experiments, "gd_train", faulty)
        out = tmp_path / "faulty.csv"
        assert main(argv + ["--out", str(out)]) == 2
        rows = out.read_text().splitlines()
        failed = [row for row in rows if row.startswith("vrex,")]
        assert len(failed) == 1 and failed[0].startswith("vrex,16,0,nan,nan,nan,nan,nan,")
        assert ([row for row in rows if not row.startswith("vrex,")]
                == [row for row in clean.read_text().splitlines()
                    if not row.startswith("vrex,")])
        sidecar = (tmp_path / "faulty.csv.errors.txt").read_text()
        assert re.fullmatch(f"vrex,16,0: {reason}\n", sidecar)

    def test_weights_times_a_power_of_two_keep_their_row(self, monkeypatch):
        # the squared norm of w 2^900 overflows, which used to fail the row;
        # its norm and every scale-free metric are in range
        cfg = _tiny_config(d_grid=(16,), methods=("erm", "vrex"), train=TrainConfig(max_iters=50))
        clean = run_sweep(cfg)
        real = experiments.gd_train

        def scaled(data, config, *args, **kwargs):
            model, trace = real(data, config, *args, **kwargs)
            return LinearModel(np.ldexp(model.w, 900), meta=model.meta), trace

        monkeypatch.setattr(experiments, "gd_train", scaled)
        for u, s in zip(clean, run_sweep(cfg)):
            assert s.error is None
            assert ([repr(getattr(s, key)) for key in ("train_acc", "robust_acc", "margin", "ratio")]
                    == [repr(getattr(u, key)) for key in ("train_acc", "robust_acc", "margin", "ratio")])
            assert s.eopp_gap == math.ldexp(u.eopp_gap, 900)

    @pytest.mark.parametrize("key, flag, value", [
        *((key, flag, value) for key, flag in [
            ("learning_rate", None), ("l2_weight", None), ("tolerance", None),
            ("penalty_weight", "--penalty-weight"), ("sigma", "--sigma"), ("kappa", "--kappa"),
            ("rc", "--rc"), ("rc", None), ("rs", "--rs"), ("rs", None),
            ("theta1", "--theta1"), ("theta1", None), ("theta2", "--theta2"), ("theta2", None),
        ] for value in ("nan", "inf")),
        ("rc", "--rc", "0"), ("rs", None, "-1"), ("theta1", "--theta1", "1.5"),
        ("theta2", None, "-2"), ("d_grid", "--d-grid", "1,16"), ("d_grid", None, "1,16"),
        # an empty list used to run every cell, then fail to emit naming no key
        ("methods", "--methods", ","), ("methods", None, " , "),
        # an inner space used to merge the tokens around it: d = 16, method mean
        ("d_grid", "--d-grid", "1 6"), ("d_grid", None, "1 6"), ("methods", "--methods", "me an"),
    ])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, key, flag, value):
        # every check of the form x <= 0 lets nan through; each bad value is
        # rejected before any cell runs, with an error naming its config key
        out = tmp_path / "n.csv"
        flags = {"methods": "erm,irmv1", "d_grid": "16", "seeds": "1", "n1": "20", "n2": "10",
                 "max_iters": "60", "out": str(out)}
        if flag is None:
            path = tmp_path / "n.cfg"
            path.write_text(f"{key} = {value}\n")
            flags.pop(key, None)  # a flag would override the file's value
            argv = ["sweep", "--config", str(path)]
        else:
            flags[key] = value
            argv = ["sweep"]
        for name, text in flags.items():
            argv += ["--" + name.replace("_", "-"), text]
        assert main(argv) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", [-540, -520, 510])
    @pytest.mark.parametrize("method", ["mean", "max_margin"])
    def test_sweep_at_a_power_of_two_scale_completes(self, tmp_path, method, k):
        # at 2^-540 mean ended in a bare ZeroDivisionError traceback and every
        # max_margin row said "data is not linearly separable"
        def sweep(scale):
            out = tmp_path / f"s{scale!r}.csv"
            flags = ["--sigma", "--rc", "--rs"]
            argv = ["sweep", "--methods", method, "--d-grid", "16,2000", "--seeds", "2",
                    "--n1", "20", "--n2", "10", "--max-iters", "50", "--out", str(out),
                    *(text for flag in flags for text in (flag, repr(scale)))]
            code = main(argv)
            sidecar = out.with_name(out.name + ".errors.txt")
            return (code, list(csv.DictReader(out.read_text().splitlines())),
                    sidecar.read_text() if sidecar.exists() else "")

        unit_code, unit, _ = sweep(1.0)
        assert unit_code == 0
        code, rows, errors = sweep(2.0**k)
        assert code in (0, 2) and len(rows) == 4
        assert (code == 2) == bool(errors) and (method == "mean" or code == 0)
        factor = 1.0 if method == "max_margin" else 4.0**k
        for u, s in zip(unit, rows):
            key = f"{s['method']},{s['d']},{s['seed']}"
            if s["train_acc"] == "nan":
                assert f"{key}: eopp_gap cannot be represented at this scale" in errors
                continue
            for col in ("train_acc", "robust_acc", "margin", "ratio"):
                assert s[col] == u[col], (key, col)
            assert float(s["eopp_gap"]) == pytest.approx(factor * float(u["eopp_gap"]),
                                                         rel=1e-8)

    # 2^1020 at d = 16: every entry is finite, but the mean's sum of rows overflowed
    # ("overflow encountered in reduce") and so did max_margin ("... in matmul");
    # at d = 2000 entries are inf; at 2^-1060 every entry is subnormal and
    # max_margin ended in "overflow encountered in ldexp"
    @pytest.mark.parametrize("k, d_grid", [(1020, "16"), (-1060, "16"), (1020, "2000")])
    def test_a_draw_out_of_range_gives_error_rows_that_name_the_scale(self, tmp_path, k,
                                                                      d_grid):
        out = tmp_path / "x.csv"
        scale = repr(2.0**k)
        argv = ["sweep", "--methods", "mean,max_margin,two_phase", "--d-grid", d_grid,
                "--seeds", "1", "--n1", "20", "--n2", "10", "--out", str(out),
                *(text for flag in ("--sigma", "--rc", "--rs") for text in (flag, scale))]
        assert main(argv) == 2
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["method"] for row in rows] == ["max_margin", "mean", "two_phase"]
        assert all(row["train_acc"] == "nan" for row in rows)
        reasons = out.with_name(out.name + ".errors.txt").read_text().splitlines()
        assert len(reasons) == 3
        assert all(f"out of range at this scale (sigma={scale}, r_c={scale}, r_s={scale})"
                   in reason for reason in reasons), reasons

    @pytest.mark.parametrize("extra", [["--sigma", "1e-170"], ["--rs", "1e-300"]])
    def test_extreme_scales_give_finite_rows(self, tmp_path, extra):
        # sigma^2 d used to underflow to 0 (margin inf, exit 0), and the norm
        # of a spurious mean of radius 1e-300 to 0 (abort, exit 1)
        out = tmp_path / "x.csv"
        argv = ["sweep", "--methods", "erm,mean", "--d-grid", "16", "--seeds", "1",
                "--n1", "20", "--n2", "10", "--max-iters", "60", "--out", str(out)]
        assert main(argv + extra) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2 and all(math.isfinite(float(row["margin"])) for row in rows)

    @pytest.mark.parametrize("seed_base, seeds", [
        ("18446744073709551616", "1"), ("18446744073709551615", "2"), ("-1", "1")])
    @pytest.mark.parametrize("in_file", [False, True])
    def test_seed_outside_64_bits_exits_one(self, tmp_path, capsys, seed_base, seeds, in_file):
        # the stream masked seeds to 64 bits, so 2**64 ran the draws of seed 0
        out = tmp_path / "s.csv"
        argv = ["sweep", "--methods", "mean", "--d-grid", "16", "--seeds", seeds,
                "--n1", "20", "--n2", "10", "--out", str(out)]
        if in_file:
            path = tmp_path / "s.cfg"
            path.write_text(f"seed_base = {seed_base}\n")
            argv += ["--config", str(path)]
        else:
            argv += ["--seed-base", seed_base]
        assert main(argv) == 1
        assert "seed_base" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed_base, instances", [
        ("18446744073709551616", "1"), ("18446744073709551615", "2"), ("-1", "1")])
    def test_verify_rejects_seed_outside_64_bits(self, tmp_path, capsys, seed_base, instances):
        out = tmp_path / "report.json"
        argv = ["verify", "--instances", instances, "--seed-base", seed_base, "--out", str(out)]
        assert main(argv) == 1
        assert "--seed-base" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--epsilon", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_preset_rejects_non_finite_input(self, capsys, flag, value):
        args = {"--n1": "100", "--n2": "100", "--gamma": "0.01", "--epsilon": "0.05",
                "--delta": "0.01", flag: value}
        assert main(["preset", *(tok for item in args.items() for tok in item)]) == 1
        captured = capsys.readouterr()
        assert flag.removeprefix("--") in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags, named", [
        (["--seeds", "0"], "--seeds"), (["--sizes", ""], "--sizes"),
        (["--sizes", "0"], "--sizes"), (["--sizes", "-3"], "--sizes"),
        (["--sizes", "20,0"], "--sizes"), (["--kappa-dmax", "1"], "--kappa-dmax"),
        (["--kappa-dmax", "0"], "--kappa-dmax"), (["--kappa-dmax", "-5"], "--kappa-dmax"),
        (["--sizes", "1"], "--sizes"), (["--sizes", "40,1"], "--sizes"),
        (["--sizes", "4 0"], "--sizes")])
    def test_calibrate_rejects_empty_measurement(self, tmp_path, capsys, monkeypatch, flags,
                                                 named):
        # --sizes 0 and -3 used to end in a ZeroDivisionError and a math domain
        # error from measure_rates, --sizes 1 and --kappa-dmax 1 in an error
        # naming no flag
        def measured(*args, **kwargs):
            raise AssertionError("measured before the flags were checked")

        monkeypatch.setattr(cli, "calibrate_constants", measured)
        monkeypatch.setattr(cli, "kappa_interpolation_rate", measured)
        out = tmp_path / "constants.json"
        assert main(["calibrate", "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preset", "calibrate"])
    @pytest.mark.parametrize("text, named", [
        pytest.param(constants_text(c_r=-1), "'c_r'", id="negative"),
        pytest.param(constants_text(c_r="x"), "'c_r'", id="string"),
        pytest.param(constants_text(C_s=True), "'C_s'", id="bool"),
        pytest.param(constants_text(C_c=0), "'C_c'", id="zero"),
        pytest.param(constants_text(C_d=math.inf), "'C_d'", id="inf"),
        pytest.param(constants_text(kappa=math.nan), "'kappa'", id="nan"),
        pytest.param(constants_text(drop="kappa"), "'kappa'", id="no-kappa"),
        pytest.param('{"c_r": ', "not JSON", id="malformed"),
        pytest.param("\xff{", "not JSON", id="not-utf8"),
        pytest.param("[1, 2]", "JSON object", id="array")])
    def test_bad_constants_file_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                  command, text, named):
        # c_r = -1 used to end in a math domain error, "x" in a bare
        # ValueError, a malformed file in a JSONDecodeError, a file without
        # kappa in a KeyError after calibrate had measured every rate, and a
        # file that is not UTF-8 in a UnicodeDecodeError
        def measured(*args, **kwargs):
            raise AssertionError("measured before the constants were checked")

        monkeypatch.setattr(cli, "calibrate_constants", measured)
        monkeypatch.setattr(cli, "kappa_interpolation_rate", measured)
        path, out = tmp_path / "constants.json", tmp_path / "out.json"
        path.write_text(text, encoding="latin-1")  # one byte a character: "\xff" is no UTF-8
        argv = {"preset": ["preset", "--n1", "100", "--n2", "100", "--gamma", "0.01",
                           "--epsilon", "0.05"],
                "calibrate": ["calibrate", "--out", str(out)]}[command]
        assert main(argv + ["--constants", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert str(path) in captured.err and named in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, kind", [
        ("preset", "directory"), ("calibrate", "directory"), ("sweep", "directory"),
        ("sweep", "not-utf8")])
    def test_unreadable_input_file_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                     command, kind):
        # a directory used to end in an IsADirectoryError, and a config file
        # that is not UTF-8 in a UnicodeDecodeError
        def worked(*args, **kwargs):
            raise AssertionError("work started before the input file was read")

        for name in ("calibrate_constants", "kappa_interpolation_rate", "run_sweep"):
            monkeypatch.setattr(cli, name, worked)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"seeds = 1\n# caf\xe9\n")  # latin-1, not UTF-8
        argv = {"preset": ["preset", "--n1", "100", "--n2", "100", "--gamma", "0.01",
                           "--epsilon", "0.05", "--constants"],
                "calibrate": ["calibrate", "--constants"],
                "sweep": ["sweep", "--d-grid", "16", "--config"]}[command]
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and str(path) in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_verify_rejects_empty_study(self, tmp_path, capsys, count):
        out = tmp_path / "report.json"
        assert main(["verify", "--instances", count, "--out", str(out)]) == 1
        assert "--instances" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["nan", "0", "-1", "inf"])
    def test_verify_rejects_bad_t(self, tmp_path, capsys, t):
        out = tmp_path / "report.json"
        assert main(["verify", "--instances", "2", "--t", t, "--out", str(out)]) == 1
        assert "--t" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_subcommand(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--instances", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 3
        assert all(item["verdict"] == "ok" for item in payload)
        # the report row: ChainReport's fields, in order, then the verdict
        assert all(list(item) == [
            "seed", "n_1", "n_2", "d", "theta_2", "gamma", "events_pass", "primal",
            "dual_canonical", "closed_form", "weak_duality_ok", "closed_form_ok", "verdict"]
            for item in payload)
