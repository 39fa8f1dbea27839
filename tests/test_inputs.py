"""One rule for what counts as a number, checked at every input site.

Every scalar input goes through :func:`twoenv.errors.finite_real` (a real,
not a bool, finite as a float) or :func:`twoenv.errors.integer_in` (an
integer, not a bool, in a range: [low, 2**53] for counts and dimensions,
[0, 2**64) for seeds).  The tables below feed each site the values the
rule rejects and the numpy scalars it accepts; a rejection must be the
site's own typed error, naming the field.
"""

import json
import math
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from twoenv import experiments
from twoenv.calibrate import (
    bound_chain_study,
    kappa_interpolation_rate,
    max_margin_indictment_rate,
    mean_margin_rate,
    measure_rates,
    two_phase_rate,
)
from twoenv.cli import main
from twoenv.errors import ConfigError, TwoEnvError, finite_real, integer_in
from twoenv.experiments import ExperimentConfig, SigmaRule, build_config
from twoenv.model import (
    LabeledDataset,
    ProblemInstance,
    sample_environment,
    sample_gram_row_sums,
    sample_orthogonal_means,
    sample_reduced,
)
from twoenv.presets import CONSTANT_NAMES, PresetParams, load_constants, theorem_preset
from twoenv.rng import check_seed_block, stream
from twoenv.training import TrainConfig

BAD_REALS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400,
             "True": True, "str": "1", "None": None, "1j": 1j}
BAD_INTEGERS = {"2.5": 2.5, "2.0": 2.0, "True": True, "str": "3", "None": None, "-1": -1,
                "2**70": 2**70}

_REDUCED = dict(d=16, r_c=1.0, r_s=2.0, theta_1=1.0, theta_2=0.0, n_1=4, n_2=4, sigma=0.5)
_INSTANCE = dict(mu_c=np.array([1.0, 0.0]), mu_s=np.array([0.0, 2.0]), theta_1=1.0,
                 theta_2=0.0, n_1=4, n_2=4, sigma=0.5, seed=0)
_PRESET = dict(r_c=1.0, r_s=2.0, d=100, sigma=0.1, n_1=1, n_2=1, invariant_margin_floor=0.0)
_SMALL_PRESET = PresetParams(r_c=1.0, r_s=2.0, d=40, sigma=0.1, n_1=6, n_2=6,
                             invariant_margin_floor=0.0)
_THEOREM = dict(n_1=20, n_2=20, gamma=0.03, epsilon=0.1, delta=0.01, strict=False)


def _constants_from(key, value):
    """``load_constants`` on a file whose ``key`` holds ``value`` (a JSON-encodable value)."""
    values = {**load_constants(), key: value}
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "constants.json"
        path.write_text(json.dumps(values))
        return load_constants(path)


def _site(name, fn, base, field, error, named, ok, skip=()):
    """One table row: ``fn(**base)`` with ``field`` set to the value under test, the
    error and message fragment a rejection must carry, an accepted value (None for
    none), and the values the row leaves out."""
    return (f"{name}-{field}", lambda value: fn(**{**base, field: value}), error, named, ok, skip)


def _sampler_sites(name, fn, fields):
    return [_site(name, fn, _REDUCED, field, TwoEnvError, named, ok)
            for field, named, ok in fields]


_REDUCED_REALS = [("r_c", "r_c", 0.5), ("r_s", "r_s", 0.5), ("sigma", "sigma", 0.5),
                  ("theta_1", "theta", 0.5), ("theta_2", "theta", 0.5)]
_REDUCED_INTEGERS = [("d", "integer d", 3), ("n_1", "sample sizes", 3),
                     ("n_2", "sample sizes", 3)]
_NOT_JSON = (1j,)  # a constants file holds JSON values only, and no numpy scalar

REAL_SITES = [
    *_sampler_sites("sample_reduced", lambda **kw: sample_reduced(seed=0, rng=stream(0), **kw),
                    _REDUCED_REALS),
    *_sampler_sites("sample_gram_row_sums",
                    lambda **kw: sample_gram_row_sums(rng=stream(0), **kw), _REDUCED_REALS),
    *[_site("sample_orthogonal_means", sample_orthogonal_means,
            dict(d=4, r_c=1.0, r_s=1.0, rng=stream(0)), field, TwoEnvError, field, 0.5)
      for field in ("r_c", "r_s")],
    *[_site("ProblemInstance", ProblemInstance, _INSTANCE, field, TwoEnvError, named, 0.5)
      for field, named in (("sigma", "sigma"), ("theta_1", "theta"), ("theta_2", "theta"))],
    *[_site("TrainConfig", TrainConfig, {}, field, TwoEnvError, field, 0.5)
      for field in ("learning_rate", "penalty_weight", "l2_weight", "tolerance")],
    _site("SigmaRule", SigmaRule, dict(kind="fixed"), "value", ConfigError, "sigma", 0.5),
    ("SigmaRule-kappa", lambda value: SigmaRule("scaling", value), ConfigError, "kappa", 0.5,
     ()),
    *[_site("ExperimentConfig", ExperimentConfig, dict(d_grid=(8,), seeds=1), field,
            ConfigError, key, 0.5)
      for field, key in (("r_c", "rc"), ("r_s", "rs"), ("theta_1", "theta1"),
                         ("theta_2", "theta2"))],
    *[(f"load_constants-{key}", lambda value, key=key: _constants_from(key, value), ConfigError,
       f"'{key}'", None, _NOT_JSON)
      for key in (*CONSTANT_NAMES, "kappa")],
    *[_site("PresetParams", PresetParams, _PRESET, field, TwoEnvError, field, 0.5)
      for field in ("r_c", "r_s", "sigma")],
    *[_site("theorem_preset", theorem_preset, _THEOREM, field, ConfigError, field, ok)
      for field, ok in (("gamma", 0.03), ("epsilon", 0.1), ("delta", 0.01))],
]

INTEGER_SITES = [
    *_sampler_sites("sample_reduced", lambda **kw: sample_reduced(seed=0, rng=stream(0), **kw),
                    _REDUCED_INTEGERS),
    *_sampler_sites("sample_gram_row_sums",
                    lambda **kw: sample_gram_row_sums(rng=stream(0), **kw), _REDUCED_INTEGERS),
    _site("sample_orthogonal_means", sample_orthogonal_means,
          dict(d=4, r_c=1.0, r_s=1.0, rng=stream(0)), "d", TwoEnvError, "integer d", 3),
    *[_site("ProblemInstance", ProblemInstance, _INSTANCE, field, TwoEnvError, "sample sizes", 3)
      for field in ("n_1", "n_2")],
    *[_site("TrainConfig", TrainConfig, {}, field, TwoEnvError, field, 3)
      for field in ("max_iters", "anneal_schedule")],
    ("ExperimentConfig-d_grid", lambda value: ExperimentConfig(d_grid=(value,), seeds=1),
     ConfigError, "d_grid", 3, ()),
    *[_site("ExperimentConfig", ExperimentConfig, dict(d_grid=(8,), seeds=1), field,
            ConfigError, key, 3)
      for field, key in (("seeds", "seeds"), ("n_1", "n1"), ("n_2", "n2"),
                         ("seed_base", "seed_base"))],
    *[_site("PresetParams", PresetParams, _PRESET, field, TwoEnvError, "sample sizes", 3)
      for field in ("n_1", "n_2")],
    # a preset may print a dimension beyond what the samplers draw (a small gamma asks for it)
    _site("PresetParams", PresetParams, _PRESET, "d", TwoEnvError, "preset d", 3, skip=(2**70,)),
    *[_site("theorem_preset", theorem_preset, _THEOREM, field, TwoEnvError, "sample sizes", 3)
      for field in ("n_1", "n_2")],
    # ambient_d=None is the default, the column count; int(2.5) used to keep 2, and
    # sample_environment drew environment 1 for True, since True in (1, 2) holds
    _site("LabeledDataset", LabeledDataset, dict(X=np.ones((2, 3)), y=[1, -1], env=[1, 2]),
          "ambient_d", TwoEnvError, "ambient_d", 3, skip=(None,)),
    ("sample_environment-env",
     lambda value: sample_environment(ProblemInstance(**_INSTANCE), value, stream(0)),
     TwoEnvError, "environment", 1, ()),
    _site("check_seed_block", check_seed_block,
          dict(count=1, base_name="seed_base", count_name="seeds"), "base", ConfigError,
          "seed_base", 3),
    ("stream-seed", stream, TwoEnvError, "seed", 3, ()),
    _site("bound_chain_study", bound_chain_study, dict(instances=1), "seed_base", TwoEnvError,
          "seed", 3),
    *[_site(fn.__name__, fn, dict(preset=_SMALL_PRESET), "seeds", TwoEnvError, "seeds", 3)
      for fn in (mean_margin_rate, max_margin_indictment_rate)],
    _site("two_phase_rate", two_phase_rate, dict(preset=_SMALL_PRESET, epsilon=0.1), "seeds",
          TwoEnvError, "seeds", 3),
    _site("kappa_interpolation_rate", kappa_interpolation_rate,
          dict(kappa=1.0, d_max=64, n_1=10, n_2=10), "seeds", TwoEnvError, "seeds", 3),
]


@pytest.mark.parametrize("call, error, named, ok, skip, bad", [
    pytest.param(*row[1:], bad, id=row[0])
    for sites, bad in ((REAL_SITES, BAD_REALS), (INTEGER_SITES, BAD_INTEGERS)) for row in sites])
def test_site_follows_the_rule(call, error, named, ok, skip, bad):
    for label, value in bad.items():
        if value in skip:
            continue
        try:
            call(value)
        except TwoEnvError as exc:
            assert type(exc) is error and re.search(named, str(exc)), (label, exc)
        else:
            pytest.fail(f"{label} accepted")
    if ok is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in [np.float32(ok)] if isinstance(ok, float) else [np.int32(ok), np.int64(ok)]:
            call(value)


class TestPredicates:
    def test_finite_real(self):
        for value in (0, -3, 1.5, 10**308, np.float32(0.5), np.float64(-2.0), np.int64(7)):
            assert finite_real(value), value
        for value in (*BAD_REALS.values(), np.float32("inf"), np.float64("nan"), np.bool_(True)):
            assert not finite_real(value), value

    def test_integer_in(self):
        assert integer_in(3, 1) and integer_in(np.int32(3), 3) and integer_in(np.uint64(3), 0)
        assert integer_in(2**53, 1) and not integer_in(2**53 + 1, 1)
        assert integer_in(2**64 - 1, 0, 2**64 - 1) and not integer_in(2**64, 0, 2**64 - 1)
        for value in (*BAD_INTEGERS.values(), np.bool_(True), np.float64(3.0), 0):
            assert not integer_in(value, 1), value


class TestRegressions:
    """Each case ended in a bare numpy or Python error, or was accepted."""

    def test_sweep_rejects_a_dimension_too_large_for_numpy(self, tmp_path, capsys):
        # used to end in a bare OverflowError traceback from the sampler
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--d-grid", "1180591620717411303424", "--seeds", "1", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "d_grid" in err
        assert not out.exists()

    def test_stream_rejects_a_fractional_seed(self):
        # int(1.5) used to key seed 1
        with pytest.raises(TwoEnvError, match="seed"):
            stream(1.5)

    def test_bound_chain_study_rejects_a_fractional_seed_base(self):
        # it reported seeds 0.5 and 1.5 but drew from streams 0 and 1
        with pytest.raises(TwoEnvError, match="seed"):
            bound_chain_study(2, seed_base=0.5)

    def test_experiment_config_rejects_a_radius_too_large_for_a_float(self):
        with pytest.raises(ConfigError, match="rc"):
            ExperimentConfig(d_grid=(8,), seeds=1, r_c=10**400)

    @pytest.mark.parametrize("n_1", [2.5, True])
    def test_theorem_preset_rejects_a_size_that_is_not_an_integer(self, n_1):
        with pytest.raises(TwoEnvError, match="sample sizes"):
            theorem_preset(n_1, 20, 0.03, 0.1, strict=False)

    @pytest.mark.parametrize("gamma", ["1e-110", "1e-105"])
    def test_preset_rejects_a_gamma_whose_dimension_is_no_float(self, capsys, gamma):
        # the C_d term's denominator underflowed to 0 (ZeroDivisionError), or
        # the dimension was inf (OverflowError from int)
        with pytest.raises(TwoEnvError, match="gamma"):
            theorem_preset(100, 100, float(gamma), 0.1)
        argv = ["preset", "--n1", "100", "--n2", "100", "--gamma", gamma, "--epsilon", "0.1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gamma" in err

    def test_preset_params_rejects_a_nan_radius(self):
        with pytest.raises(TwoEnvError, match="r_c"):
            PresetParams(**{**_PRESET, "r_c": math.nan})

    @pytest.mark.parametrize("rate", [
        lambda: mean_margin_rate(_SMALL_PRESET, 0),
        lambda: max_margin_indictment_rate(_SMALL_PRESET, 0),
        lambda: two_phase_rate(_SMALL_PRESET, 0, 0.1),
        lambda: kappa_interpolation_rate(1.0, 64, 10, 10, 0),
        lambda: measure_rates(load_constants(), 20, 0),
    ], ids=["mean_margin", "indictment", "two_phase", "kappa", "measure_rates"])
    def test_rate_over_no_seed_is_an_error(self, rate):
        # each used to end in a ZeroDivisionError
        with pytest.raises(TwoEnvError, match="seeds"):
            rate()

    def test_calibrate_rejects_a_kappa_dimension_too_large_for_the_sampler(self, capsys,
                                                                            monkeypatch):
        # checked before any rate is measured, not after
        def measured(*args, **kwargs):
            raise AssertionError("measured before the flags were checked")

        monkeypatch.setattr("twoenv.cli.calibrate_constants", measured)
        assert main(["calibrate", "--kappa-dmax", "1180591620717411303424"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--kappa-dmax" in err


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "1e400"])
def test_verify_t_is_a_positive_finite_real(tmp_path, capsys, t):
    out = tmp_path / "report.json"
    assert main(["verify", "--instances", "1", f"--t={t}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--t" in err
    assert not out.exists()


CONFIG_TEXTS = ["nan", "inf", "-1", "0", "2.5", "1e400", "1180591620717411303424", ""]


def test_every_config_key_builds_or_names_itself():
    """Each key of the config table, fed edge-case strings, either builds a
    config or raises a TwoEnvError naming the key or its field."""
    start = time.perf_counter()
    outcomes = {"built": 0, "rejected": 0}
    for key, (field, _, _) in experiments._CONFIG_KEYS.items():
        names = (key, field.removeprefix("train."))
        for text in CONFIG_TEXTS:
            raw = {"d_grid": "8", "seeds": "1", key: text}
            try:
                build_config(raw)
            except TwoEnvError as exc:
                assert any(name in str(exc) for name in names), (key, text, str(exc))
                outcomes["rejected"] += 1
            else:
                outcomes["built"] += 1
    assert outcomes["rejected"] > outcomes["built"] > 0
    assert time.perf_counter() - start < 1.0
