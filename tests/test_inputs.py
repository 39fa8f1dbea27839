"""One rule for what counts as a number, checked at every input site.

Every scalar input goes through :func:`twoenv.errors.finite_real` (a real,
not a bool, finite as a float) or :func:`twoenv.errors.integer_in` (an
integer, not a bool, in a range: [low, 2**53] for counts and dimensions,
[0, 2**64) for seeds).  The tables below feed each site the values the
rule rejects and the numpy scalars it accepts; a rejection must be the
site's own typed error, naming the field.  Every int and float field of the
config and domain dataclasses has a row, or a reason for having none.  The
command line has one table too: each argv row must exit 1 before any work,
naming the flag, key or file at fault.
"""

import dataclasses
import json
import math
import re
import tempfile
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from twoenv import cli, experiments
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
from twoenv.metrics import error_at_theta, normalized_margin, robust_error
from twoenv.model import (
    LabeledDataset,
    LinearModel,
    ProblemInstance,
    sample_environment,
    sample_gram_row_sums,
    sample_orthogonal_means,
    sample_reduced,
)
from twoenv.presets import CONSTANT_NAMES, PresetParams, load_constants, theorem_preset
from twoenv.rng import check_seed_block, stream
from twoenv.training import TrainConfig, gd_train

from helpers import constants_text

BAD_REALS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400,
             "True": True, "False": False, "str": "1", "None": None, "1j": 1j}
BAD_INTEGERS = {"2.5": 2.5, "2.0": 2.0, "True": True, "False": False, "str": "3",
                "None": None, "-1": -1, "0": 0, "2**70": 2**70}
ZERO_OK = ("0",)  # a seed, or the anneal iteration, may be 0; a count may not

_REDUCED = dict(d=16, r_c=1.0, r_s=2.0, theta_1=1.0, theta_2=0.0, n_1=4, n_2=4, sigma=0.5)
_INSTANCE = dict(mu_c=np.array([1.0, 0.0]), mu_s=np.array([0.0, 2.0]), theta_1=1.0,
                 theta_2=0.0, n_1=4, n_2=4, sigma=0.5, seed=0)
_PRESET = dict(r_c=1.0, r_s=2.0, d=100, sigma=0.1, n_1=1, n_2=1, invariant_margin_floor=0.0)
_SMALL_PRESET = PresetParams(r_c=1.0, r_s=2.0, d=40, sigma=0.1, n_1=6, n_2=6,
                             invariant_margin_floor=0.0)
_THEOREM = dict(n_1=20, n_2=20, gamma=0.03, epsilon=0.1, delta=0.01, strict=False)
_MODEL, _MEANS = LinearModel(np.array([1.0, 0.5])), (np.array([1.0, 0.0]), np.array([0.0, 2.0]))
_METRICS = {  # each closed-form metric, by the sigma it is given
    "error_at_theta": lambda sigma: error_at_theta(_MODEL, *_MEANS, sigma, 0.5),
    "robust_error": lambda sigma: robust_error(_MODEL, *_MEANS, sigma),
    "normalized_margin": lambda sigma: normalized_margin(
        _MODEL, LabeledDataset(np.eye(2), [1, -1], [1, 2]), sigma),
}
_GD_DATA, _GD_CONFIG = LabeledDataset(np.eye(2), [1, -1], [1, 2]), TrainConfig(max_iters=5)


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
    none), and the labels of the values the row leaves out."""
    return (f"{name}-{field}", lambda value: fn(**{**base, field: value}), error, named, ok, skip)


def _sampler_sites(name, fn, fields):
    return [_site(name, fn, _REDUCED, field, TwoEnvError, named, ok)
            for field, named, ok in fields]


_REDUCED_REALS = [("r_c", "r_c", 0.5), ("r_s", "r_s", 0.5), ("sigma", "sigma", 0.5),
                  ("theta_1", "theta", 0.5), ("theta_2", "theta", 0.5)]
_REDUCED_INTEGERS = [("d", "integer d", 3), ("n_1", "sample sizes", 3),
                     ("n_2", "sample sizes", 3)]
_NOT_JSON = ("1j",)  # a constants file holds JSON values only, and no numpy scalar

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
    *[(f"{name}-sigma", call, TwoEnvError, "sigma", 0.5, ()) for name, call in _METRICS.items()],
    ("error_at_theta-theta", lambda value: error_at_theta(_MODEL, *_MEANS, 0.5, value),
     TwoEnvError, "theta", 0.5, ()),
    # a warm start whose every entry is the value under test
    ("gd_train-w0", lambda value: gd_train(_GD_DATA, _GD_CONFIG, w0=np.full(2, value)),
     TwoEnvError, "w0", 0.5, ()),
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
    _site("ProblemInstance", ProblemInstance, _INSTANCE, "seed", TwoEnvError, "seed", 3,
          skip=ZERO_OK),
    _site("TrainConfig", TrainConfig, {}, "max_iters", TwoEnvError, "max_iters", 3),
    _site("TrainConfig", TrainConfig, {}, "anneal_schedule", TwoEnvError, "anneal_schedule", 3,
          skip=ZERO_OK),
    ("ExperimentConfig-d_grid", lambda value: ExperimentConfig(d_grid=(value,), seeds=1),
     ConfigError, "d_grid", 3, ()),
    *[_site("ExperimentConfig", ExperimentConfig, dict(d_grid=(8,), seeds=1), field,
            ConfigError, key, 3, skip=ZERO_OK if field == "seed_base" else ())
      for field, key in (("seeds", "seeds"), ("n_1", "n1"), ("n_2", "n2"),
                         ("seed_base", "seed_base"))],
    *[_site("PresetParams", PresetParams, _PRESET, field, TwoEnvError, "sample sizes", 3)
      for field in ("n_1", "n_2")],
    # a preset may print a dimension beyond what the samplers draw (a small gamma asks for it)
    _site("PresetParams", PresetParams, _PRESET, "d", TwoEnvError, "preset d", 3,
          skip=("2**70",)),
    *[_site("theorem_preset", theorem_preset, _THEOREM, field, TwoEnvError, "sample sizes", 3)
      for field in ("n_1", "n_2")],
    # ambient_d=None is the default, the column count; int(2.5) used to keep 2, and
    # sample_environment drew environment 1 for True, since True in (1, 2) holds
    _site("LabeledDataset", LabeledDataset, dict(X=np.ones((2, 3)), y=[1, -1], env=[1, 2]),
          "ambient_d", TwoEnvError, "ambient_d", 3, skip=("None",)),
    ("sample_environment-env",
     lambda value: sample_environment(ProblemInstance(**_INSTANCE), value, stream(0)),
     TwoEnvError, "environment", 1, ()),
    _site("check_seed_block", check_seed_block,
          dict(count=1, base_name="seed_base", count_name="seeds"), "base", ConfigError,
          "seed_base", 3, skip=ZERO_OK),
    ("stream-seed", stream, TwoEnvError, "seed", 3, ZERO_OK),
    _site("bound_chain_study", bound_chain_study, dict(instances=1), "seed_base", TwoEnvError,
          "seed", 3, skip=ZERO_OK),
    *[_site(fn.__name__, fn, dict(preset=_SMALL_PRESET), "seeds", TwoEnvError, "seeds", 3)
      for fn in (mean_margin_rate, max_margin_indictment_rate)],
    _site("two_phase_rate", two_phase_rate, dict(preset=_SMALL_PRESET, epsilon=0.1), "seeds",
          TwoEnvError, "seeds", 3),
    _site("kappa_interpolation_rate", kappa_interpolation_rate,
          dict(kappa=1.0, d_max=64, n_1=10, n_2=10), "seeds", TwoEnvError, "seeds", 3),
    _site("measure_rates", measure_rates, dict(constants=load_constants(), n_e=20), "seeds",
          TwoEnvError, "seeds", None),
]


@pytest.mark.parametrize("call, error, named, ok, skip, bad", [
    pytest.param(*row[1:], bad, id=row[0])
    for sites, bad in ((REAL_SITES, BAD_REALS), (INTEGER_SITES, BAD_INTEGERS)) for row in sites])
def test_site_follows_the_rule(call, error, named, ok, skip, bad):
    for label, value in bad.items():
        if label in skip:
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


# int and float fields with no row, each with the reason it has no check
UNCHECKED_FIELDS = {
    "PresetParams.invariant_margin_floor": "a derived output, which may be any real",
}


def test_every_numeric_field_has_a_row():
    """Deleting a site's own tests cannot leave one of these fields unchecked."""
    rows = {row[0] for row in REAL_SITES + INTEGER_SITES}
    numeric = [f"{cls.__name__}.{field.name}"
               for cls in (TrainConfig, ExperimentConfig, SigmaRule, PresetParams, ProblemInstance)
               for field in dataclasses.fields(cls)
               if typing.get_type_hints(cls)[field.name] in (int, float, tuple[int, ...])]
    assert set(UNCHECKED_FIELDS) <= set(numeric)
    assert [name for name in numeric if name.replace(".", "-") not in rows
            and name not in UNCHECKED_FIELDS] == []


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
        for value in (*BAD_INTEGERS.values(), np.bool_(True), np.float64(3.0)):
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

    @pytest.mark.parametrize("theta", [5.0, -1.5, math.nan])
    def test_error_at_theta_rejects_a_theta_outside_the_unit_interval(self, theta):
        # nan used to return nan, and 5.0 an error for an environment that cannot exist
        with pytest.raises(TwoEnvError, match="theta"):
            error_at_theta(_MODEL, *_MEANS, 0.5, theta)
        # the endpoints are environments; w leans on mu_s, so theta = -1 is the worse one
        assert error_at_theta(_MODEL, *_MEANS, 0.5, -1.0) > error_at_theta(_MODEL, *_MEANS, 0.5, 1.0)

    @pytest.mark.parametrize("w0", [np.ones(3), np.ones((2, 1)), np.float64(0.5), "ab",
                                    ["1", "2"], [math.nan, 0.0], [0.0, math.inf], [[1.0], []]],
                             ids=["length", "2-d", "scalar", "str", "strings", "nan", "inf",
                                  "ragged"])
    def test_gd_train_rejects_a_malformed_warm_start(self, w0):
        # a wrong length ended in a bare matmul ValueError, a string in "could not
        # convert string to float", and a NaN let a RuntimeWarning escape before
        # "non-finite objective at initialization"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TwoEnvError, match="w0"):
                gd_train(_GD_DATA, _GD_CONFIG, w0=w0)
            gd_train(_GD_DATA, _GD_CONFIG, w0=[0.5, -0.25])  # a list of floats is an array

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


DIRECTORY = object()  # a row whose input path is a directory
_PRESET_ARGV = ["preset", "--n1", "100", "--n2", "100", "--gamma", "0.01", "--epsilon", "0.05"]
_SWEEP_FLAGS = {"methods": "erm,irmv1", "d_grid": "16", "seeds": "1", "n1": "20", "n2": "10",
                "max_iters": "60"}
_SEED_BLOCKS = [("18446744073709551616", "1"), ("18446744073709551615", "2"), ("-1", "1")]


def _argv(row_id, argv, named, prefix="config error:", file=None, env=None):
    """One command-line row: ``main(argv)`` exits 1, and stderr starts with ``prefix``
    and holds each of ``named``.  ``file`` (text, or DIRECTORY) is made at the path
    that "@" stands for in ``argv`` and ``named``; ``env`` is set first."""
    named = (named,) if isinstance(named, str) else named
    return pytest.param(argv, named, prefix, file, env or {}, id=row_id)


def _sweep_argv(flags):
    return ["sweep", *(tok for name, text in flags.items()
                       for tok in ("--" + name.replace("_", "-"), text))]


def _sweep_key(key, value, in_file, **flags):
    """A sweep row whose config ``key`` holds ``value``, given as a flag or in a config
    file (and then not as a flag, which would override it)."""
    flags = {**_SWEEP_FLAGS, **flags}
    if in_file:
        flags.pop(key, None)
    else:
        flags[key] = value
    return _argv(f"sweep-{key}={value}-{'file' if in_file else 'flag'}",
                 _sweep_argv(flags) + ["--config", "@"] * in_file, key,
                 file=f"{key} = {value}\n" if in_file else None)


CLI_ROWS = [
    *(_sweep_key(key, value, in_file) for key, in_file in [
        ("learning_rate", True), ("l2_weight", True), ("tolerance", True),
        ("penalty_weight", False), ("sigma", False), ("kappa", False), ("rc", False),
        ("rc", True), ("rs", False), ("rs", True), ("theta1", False), ("theta1", True),
        ("theta2", False), ("theta2", True)] for value in ("nan", "inf")),
    *(_sweep_key(key, value, in_file) for key, value, in_file in [
        ("rc", "0", False), ("rs", "-1", True), ("theta1", "1.5", False), ("theta2", "-2", True),
        ("d_grid", "1,16", False), ("d_grid", "1,16", True),
        # too large for numpy: it used to end in a bare OverflowError from the sampler
        ("d_grid", "1180591620717411303424", False),
        # an empty list used to run every cell, then fail to emit naming no key
        ("methods", ",", False), ("methods", " , ", True),
        # an inner space used to merge the tokens around it: d = 16, method mean
        ("d_grid", "1 6", False), ("d_grid", "1 6", True), ("methods", "me an", False)]),
    # the stream masked seeds to 64 bits, so 2**64 ran the draws of seed 0
    *(_sweep_key("seed_base", base, in_file, seeds=seeds)
      for base, seeds in _SEED_BLOCKS for in_file in (False, True)),
    *(_argv(f"sweep-workers={value}", _sweep_argv(_SWEEP_FLAGS),
            ("TWOENV_WORKERS", "positive integer"), env={"TWOENV_WORKERS": value})
      for value in ("abc", "0", "-2", "1.5", "")),
    _argv("sweep-unknown-flag", ["sweep", "--frobnicate", "1"], "--frobnicate", "usage:"),
    *(_argv(f"verify-t={t}", ["verify", "--instances", "2", f"--t={t}"], "--t")
      for t in ("nan", "0", "-1", "inf", "-inf", "1e400")),
    *(_argv(f"verify-instances={count}", ["verify", f"--instances={count}"], "--instances")
      for count in ("0", "-3")),
    *(_argv(f"verify-seed-base={base}", ["verify", f"--instances={count}", f"--seed-base={base}"],
            "--seed-base") for base, count in _SEED_BLOCKS),
    *(_argv(f"preset-{flag}={value}", [*_PRESET_ARGV, f"--{flag}={value}"], flag)
      for flag in ("gamma", "epsilon", "delta") for value in ("nan", "inf")),
    # the C_d term's denominator underflowed to 0 (ZeroDivisionError), or the
    # dimension was inf (OverflowError from int)
    *(_argv(f"preset-gamma={gamma}", [*_PRESET_ARGV, f"--gamma={gamma}"], "gamma", "error:")
      for gamma in ("1e-110", "1e-105")),
    # --sizes 0 and -3 used to end in a ZeroDivisionError and a math domain error,
    # --sizes 1 and --kappa-dmax 1 in an error naming no flag
    *(_argv(f"calibrate-{flag}={value}", ["calibrate", f"--{flag}={value}"], f"--{flag}")
      for flag, value in [
          ("seeds", "0"), ("sizes", ""), ("sizes", "0"), ("sizes", "-3"), ("sizes", "20,0"),
          ("sizes", "1"), ("sizes", "40,1"), ("sizes", "4 0"), ("kappa-dmax", "1"),
          ("kappa-dmax", "0"), ("kappa-dmax", "-5"), ("kappa-dmax", "1180591620717411303424")]),
    # c_r = -1 used to end in a math domain error, "x" in a bare ValueError, a
    # malformed file in a JSONDecodeError, a file without kappa in a KeyError
    # after calibrate had measured every rate, and a file that is not UTF-8 in
    # a UnicodeDecodeError
    *(_argv(f"{command}-constants-{case}", [*argv, "--constants", "@"], ("@", named),
            file=text)
      for command, argv in (("preset", _PRESET_ARGV), ("calibrate", ["calibrate"]))
      for case, text, named in [
          ("negative", constants_text(c_r=-1), "'c_r'"),
          ("string", constants_text(c_r="x"), "'c_r'"),
          ("bool", constants_text(C_s=True), "'C_s'"),
          ("zero", constants_text(C_c=0), "'C_c'"),
          ("inf", constants_text(C_d=math.inf), "'C_d'"),
          ("nan", constants_text(kappa=math.nan), "'kappa'"),
          ("no-kappa", constants_text(drop="kappa"), "'kappa'"),
          ("malformed", '{"c_r": ', "not JSON"),
          ("not-utf8", "\xff{", "not JSON"),
          ("array", "[1, 2]", "JSON object")]),
    # a directory used to end in an IsADirectoryError, and a config file that
    # is not UTF-8 in a UnicodeDecodeError
    *(_argv(f"{argv[0]}-input-{case}", [*argv, "@"], "@", file=file) for argv, case, file in [
        ([*_PRESET_ARGV, "--constants"], "directory", DIRECTORY),
        (["calibrate", "--constants"], "directory", DIRECTORY),
        (["sweep", "--d-grid", "16", "--config"], "directory", DIRECTORY),
        (["sweep", "--d-grid", "16", "--config"], "not-utf8", "seeds = 1\n# caf\xe9\n")]),
]


@pytest.mark.parametrize("argv, named, prefix, file, env", CLI_ROWS)
def test_command_line_rejects_before_any_work(tmp_path, monkeypatch, capsys, argv, named,
                                              prefix, file, env):
    def worked(*args, **kwargs):
        raise AssertionError("work started before the input was rejected")

    for module, name in ((cli, "calibrate_constants"), (cli, "kappa_interpolation_rate"),
                         (cli, "bound_chain_study"), (experiments, "run_cell")):
        monkeypatch.setattr(module, name, worked)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)  # where every default output path points
    path = tmp_path / "input"
    if file is DIRECTORY:
        path.mkdir()
    elif file is not None:
        path.write_text(file, encoding="latin-1")  # one byte a character: "\xff" is no UTF-8
    assert main([str(path) if tok == "@" else tok for tok in argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(prefix), err
    assert all((str(path) if text == "@" else text) in err for text in named), err
    assert out == "" and list(tmp_path.iterdir()) == ([] if file is None else [path])


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
