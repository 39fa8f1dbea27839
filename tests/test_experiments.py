"""Sweep runner, emission formats, and the command line."""

import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from twoenv import cli, experiments, training
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
from twoenv.model import LinearModel
from twoenv.training import TrainConfig, penalty_value_and_slope


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


class TestRunSweep:
    def test_single_record(self):
        records = run_sweep(_tiny_config())
        assert len(records) == 1
        rec = records[0]
        assert rec.method == "mean" and rec.d == 64 and rec.seed == 0
        assert 0.0 <= rec.robust_acc <= 1.0
        assert rec.interpolating == (rec.train_acc == 1.0 and rec.margin > 0.0)

    def test_emitted_bytes_reproducible(self, tmp_path):
        cfg = _tiny_config(d_grid=(16, 64), seeds=2, methods=("mean", "two_phase"))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_sweep(cfg), "csv", p1)
        emit(run_sweep(cfg), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

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
    @pytest.mark.parametrize("d", [16, 64])  # N=30: direct path at 16, span path at 64
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

        def spy(data, config, *args, prefixes=None, **kwargs):
            handed.append((config.penalty_kind, prefixes))
            return real(data, config, *args, prefixes=prefixes, **kwargs)

        monkeypatch.setattr(experiments, "gd_train", spy)
        train = TrainConfig(max_iters=150, penalty_weight=100.0, anneal_schedule=100)
        cfg = _tiny_config(d_grid=(16, 64), seeds=2, train=train,
                           methods=("erm", "vrex", "oracle_no_spurious"))
        run_sweep(cfg)
        stores = [store for _, store in handed[::3]]
        assert len(handed) == 3 * 4 and all(isinstance(store, dict) for store in stores)
        assert len({id(store) for store in stores}) == 4
        assert all(store is handed[3 * i + 1][1] for i, store in enumerate(stores))
        assert all(len(store) == 1 for store in stores)
        assert all(store is None for _, store in handed[2::3])


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
        assert sorted(key for key, _ in cli._SWEEP_OVERRIDES) == sorted(self.FLAG_VALUES)
        for key, value in self.FLAG_VALUES.items():
            from_flag = config_of("", "--" + key.replace("_", "-"), value)
            assert from_flag == config_of(f"{key} = {value}\n"), key
            assert from_flag != base, key

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
        # planted: weights whose squared norm overflows, which the metrics
        # would otherwise turn into a margin of 0 and a robust accuracy of 1/2
        pytest.param(None, r"FloatingPointError: overflow encountered in \w+", id="overflow"),
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
                model = LinearModel(model.w * 1e300, meta=model.meta)
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

    @pytest.mark.parametrize("key, flag, value", [
        *((key, flag, value) for key, flag in [
            ("learning_rate", None), ("l2_weight", None), ("tolerance", None),
            ("penalty_weight", "--penalty-weight"), ("sigma", "--sigma"), ("kappa", "--kappa"),
            ("rc", "--rc"), ("rc", None), ("rs", "--rs"), ("rs", None),
            ("theta1", "--theta1"), ("theta1", None), ("theta2", "--theta2"), ("theta2", None),
        ] for value in ("nan", "inf")),
        ("rc", "--rc", "0"), ("rs", None, "-1"), ("theta1", "--theta1", "1.5"),
        ("theta2", None, "-2"), ("d_grid", "--d-grid", "1,16"), ("d_grid", None, "1,16"),
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

    @pytest.mark.parametrize("flags, named", [(["--seeds", "0"], "--seeds"),
                                              (["--sizes", ""], "--sizes")])
    def test_calibrate_rejects_empty_measurement(self, tmp_path, capsys, flags, named):
        out = tmp_path / "constants.json"
        assert main(["calibrate", "--out", str(out)] + flags) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

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
