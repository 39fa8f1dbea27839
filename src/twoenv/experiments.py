"""Configuration-driven sweeps over dimension and seed, with CSV/JSON output.

Each (d, seed) cell draws one problem instance and its dataset exactly in
reduced coordinates (:func:`sample_reduced`); every requested method is
then fit on that same draw so methods are compared on identical data.
Cells are independent, execute in any order (optionally in parallel,
``TWOENV_WORKERS``), and the records are sorted before emission, so output
content never depends on scheduling.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, TwoEnvError, finite_real, integer_in
from .estimators import mean_estimator, two_phase_learn
from .metrics import (
    invariance_gaps,
    normalized_margin,
    robust_error,
    spurious_core_ratio,
    train_accuracy,
)
from .model import LabeledDataset, LinearModel, sample_reduced
from .training import TrainConfig, gd_train, max_margin

METHODS = (
    "erm",
    "irmv1",
    "vrex",
    "groupdro",
    "moment_match",
    "two_phase",
    "mean",
    "max_margin",
    "oracle_no_spurious",
)

CSV_HEADER = "method,d,seed,train_acc,robust_acc,margin,ratio,eopp_gap,interpolating,wall_ms"


@dataclass(frozen=True)
class SigmaRule:
    """Noise rule: ``fixed`` keeps sigma; ``scaling`` keeps (r_c/sigma)^2
    proportional to sqrt(d/N) via sigma = r_c / (kappa (d/N)^{1/4})."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("fixed", "scaling"):
            raise ConfigError(f"unknown sigma rule {self.kind!r}")
        if not (finite_real(self.value) and self.value > 0):
            name = "sigma" if self.kind == "fixed" else "kappa"
            raise ConfigError(f"{name} must be positive and finite, got {self.value!r}")


def resolve_sigma(rule: SigmaRule, d: int, n: int, r_c: float) -> float:
    if d < 1 or n < 1:
        raise TwoEnvError("d and N must be at least 1")
    if rule.kind == "fixed":
        return rule.value
    return r_c / (rule.value * (d / n) ** 0.25)


def _default_sigma_rule() -> SigmaRule:
    from .presets import load_constants

    return SigmaRule("scaling", float(load_constants()["kappa"]))


@dataclass(frozen=True)
class ExperimentConfig:
    d_grid: tuple[int, ...]
    seeds: int
    n_1: int = 800
    n_2: int = 100
    theta_1: float = 1.0
    theta_2: float = 0.0
    r_c: float = 1.0
    r_s: float = 2.0
    sigma_rule: SigmaRule = field(default_factory=_default_sigma_rule)
    methods: tuple[str, ...] = ("erm", "two_phase", "mean")
    train: TrainConfig = TrainConfig(penalty_weight=100.0, anneal_schedule=500)
    output_path: str = "sweep.csv"
    seed_base: int = 0

    def __post_init__(self):
        # errors name the config key
        if not (self.d_grid and all(integer_in(d, 2) for d in self.d_grid)
                and list(self.d_grid) == sorted(set(self.d_grid))):
            raise ConfigError(f"d_grid must be strictly increasing integer dimensions in "
                              f"[2, 2**53], got {self.d_grid}")
        for key, value in (("seeds", self.seeds), ("n1", self.n_1), ("n2", self.n_2)):
            if not integer_in(value, 1):
                raise ConfigError(f"{key} must be an integer in [1, 2**53], got {value!r}")
        rngmod.check_seed_block(self.seed_base, self.seeds, "seed_base", "seeds")
        for key, value in (("rc", self.r_c), ("rs", self.r_s)):
            if not (finite_real(value) and value > 0):
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
        for key, value in (("theta1", self.theta_1), ("theta2", self.theta_2)):
            if not (finite_real(value) and -1.0 <= value <= 1.0):
                raise ConfigError(f"{key} must be a number in [-1, 1], got {value!r}")
        if not self.methods:
            raise ConfigError("methods must name at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {unknown}")


@dataclass(frozen=True)
class RunRecord:
    """One method's result on one (d, seed) draw; an error row keeps the nan defaults."""

    method: str
    d: int
    seed: int
    wall_ms: float
    train_acc: float = math.nan
    robust_acc: float = math.nan
    margin: float = math.nan
    ratio: float = math.nan
    eopp_gap: float = math.nan
    interpolating: bool = False
    error: Optional[str] = None


def _strip_spurious(data: LabeledDataset, mu_s, theta_1, theta_2) -> LabeledDataset:
    """``data`` with each row's spurious mean ``theta_e mu_s`` subtracted.

    One copy of the rows, updated in place on the columns where ``mu_s`` is
    nonzero (one column of a reduced draw): bitwise the full outer-product
    subtraction unless a stored entry is -0.0.
    """
    theta = np.where(data.env == 1, theta_1, theta_2)
    mu_s = np.asarray(mu_s)
    Z = data.signed().copy()
    for j in np.flatnonzero(mu_s):
        Z[:, j] -= theta * mu_s[j]
    return LabeledDataset.from_signed(Z, data.y, data.env, data.ambient_d)


def _fit(method: str, data: LabeledDataset, cfg: ExperimentConfig, mu_s, seed: int,
         d: int) -> tuple[LinearModel, LabeledDataset]:
    """Fit one method; returns the model and the dataset its train metrics use."""
    if method == "mean":
        return mean_estimator(data), data
    if method == "erm":
        model, _ = gd_train(data, replace(cfg.train, penalty_kind="none", penalty_weight=0.0))
        return model, data
    if method in ("irmv1", "vrex", "groupdro", "moment_match"):
        model, _ = gd_train(data, replace(cfg.train, penalty_kind=method))
        return model, data
    if method == "two_phase":
        return two_phase_learn(data.by_env(1), data.by_env(2),
                               rngmod.stream(seed, "two_phase", d)), data
    if method == "max_margin":
        return max_margin(data), data
    if method == "oracle_no_spurious":
        cleaned = _strip_spurious(data, mu_s, cfg.theta_1, cfg.theta_2)
        model, _ = gd_train(cleaned, replace(cfg.train, penalty_kind="none", penalty_weight=0.0))
        return model, cleaned
    raise TwoEnvError(f"unknown method {method!r}")


def run_cell(cfg: ExperimentConfig, d: int, seed: int) -> list[RunRecord]:
    """All requested methods on one sampled instance.

    The GD fits on the draw share their pre-anneal steps (see :func:`gd_train`),
    so a fit that resumes reports a ``wall_ms`` without those steps.
    Each method's fit and metrics run with numpy overflow, division by zero
    and invalid operations raising, so a NaN or inf they would produce
    becomes that method's error row instead of a value in the output.  A
    draw out of the float range at its scale (no entry a normal float, or
    the sum of its rows beyond the largest one) gives every method an error
    row that names the scale.
    """
    sigma = resolve_sigma(cfg.sigma_rule, d, cfg.n_1 + cfg.n_2, cfg.r_c)
    with np.errstate(over="ignore"):  # an entry that overflows is rejected below
        instance, data = sample_reduced(
            d, cfg.r_c, cfg.r_s, cfg.theta_1, cfg.theta_2, cfg.n_1, cfg.n_2, sigma, seed,
            rngmod.stream(seed, "data", d),
        )
    Z = data.signed()
    top = float(max(Z.max(), -Z.min()))  # the largest magnitude, nan if an entry is
    if not sys.float_info.min <= top <= sys.float_info.max / data.n:
        # no entry is a normal float, or a sum over the rows (the mean's) overflows
        reason = (f"the draw is out of range at this scale (sigma={sigma!r}, r_c={cfg.r_c!r}, "
                  f"r_s={cfg.r_s!r}): its largest entry is {top!r}")
        return [RunRecord(method, d, seed, 0.0, error=reason) for method in cfg.methods]
    mu_c, mu_s = instance.mu_c, instance.mu_s
    envs = (data.by_env(1), data.by_env(2))  # views of the draw's rows

    records = []
    for method in cfg.methods:
        start = time.perf_counter()
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                model, train_data = _fit(method, data, cfg, mu_s, seed, d)
                train_acc = train_accuracy(model, train_data)
                margin = normalized_margin(model, train_data, sigma)
                rob = robust_error(model, mu_c, mu_s, sigma)
                try:
                    ratio = spurious_core_ratio(model, mu_c, mu_s)
                except TwoEnvError:
                    ratio = math.nan
                values = dict(
                    train_acc=train_acc, robust_acc=1.0 - rob, margin=margin, ratio=ratio,
                    eopp_gap=invariance_gaps(model, *envs),
                    interpolating=margin > 0.0,
                )
        except (TwoEnvError, np.linalg.LinAlgError, FloatingPointError) as exc:
            # a numerical failure costs its own row, never the sweep
            values = dict(error=str(exc) if isinstance(exc, TwoEnvError)
                          else f"{type(exc).__name__}: {exc}")
        wall = (time.perf_counter() - start) * 1e3
        records.append(RunRecord(method, d, seed, wall, **values))
    return records


def _worker_count() -> int:
    """Worker processes from ``TWOENV_WORKERS``: a positive integer, default 1."""
    raw = os.environ.get("TWOENV_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"TWOENV_WORKERS must be a positive integer, got {raw!r}")
    return workers


def run_sweep(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run every (d, seed) cell; records come back sorted by (method, d, seed)."""
    workers = _worker_count()
    ds, seeds = zip(*[(d, cfg.seed_base + rep) for d in cfg.d_grid for rep in range(cfg.seeds)])
    cells = ([cfg] * len(ds), ds, seeds)
    if workers > 1:
        # imported here: a serial command would pay ~16 ms of start-up for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_cell, *cells))
    else:
        batches = list(map(run_cell, *cells))
    return sorted((r for batch in batches for r in batch), key=lambda r: (r.method, r.d, r.seed))


def _cells(r: RunRecord, timings: bool) -> list[str]:
    """One record's CSV cells, in ``CSV_HEADER`` order."""
    floats = (r.train_acc, r.robust_acc, r.margin, r.ratio, r.eopp_gap)
    return [r.method, str(r.d), str(r.seed), *("%.9g" % x for x in floats),
            "true" if r.interpolating else "false", "%.9g" % (r.wall_ms if timings else 0.0)]


# how the JSON mirror reads a CSV cell back: these columns by their parser,
# every other one as a float, and nan as null
_JSON_CELL = {"method": str, "d": int, "seed": int, "interpolating": lambda cell: cell == "true"}


def emit(records: list[RunRecord], fmt: str, path, timings: bool = False):
    """Write records as CSV or JSON.

    ``timings`` controls whether measured wall times appear in the output;
    by default the column is written as 0 so two runs of the same config
    produce byte-identical files.  Error rows keep their (method, d, seed)
    key with nan metrics; the verbatim failure reasons, when any exist, go
    to a ``<path>.errors.txt`` sidecar, which is removed when none do.
    """
    if not records:
        raise TwoEnvError("refusing to emit an empty record list")
    if fmt not in ("csv", "json"):
        raise TwoEnvError(f"unknown output format {fmt!r}")
    path = Path(path)
    columns = CSV_HEADER.split(",")
    rows = [_cells(r, timings) for r in records]
    if fmt == "csv":
        path.write_text("".join(",".join(cells) + "\n" for cells in [columns] + rows))
    else:
        payload = [{col: None if cell == "nan" else _JSON_CELL.get(col, float)(cell)
                    for col, cell in zip(columns, cells)} for cells in rows]
        path.write_text(json.dumps(payload, indent=2) + "\n")

    reasons = [r for r in records if r.error is not None]
    side = path.with_name(path.name + ".errors.txt")
    if reasons:
        side.write_text(
            "".join(f"{r.method},{r.d},{r.seed}: {r.error}\n" for r in reasons)
        )
    else:
        side.unlink(missing_ok=True)  # an earlier run's reasons would describe rows not here
    return path


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _names(text))


def _names(text: str) -> tuple[str, ...]:
    """The comma-separated tokens of ``text``, stripped; an inner space stays."""
    return tuple(tok for tok in (part.strip() for part in text.split(",")) if tok)


# config key -> (ExperimentConfig field, parser of its string value, help of
# its sweep flag "--" + key with "_" as "-", or None for a file-only key); a
# "train." field belongs to the TrainConfig, and sigma/kappa each set the
# whole noise rule.  Every default lives on the dataclasses.
_CONFIG_KEYS = {
    "d_grid": ("d_grid", _ints, "comma-separated dimensions"),
    "seeds": ("seeds", int, "number of repetitions"),
    "n1": ("n_1", int, "environment-1 sample size"),
    "n2": ("n_2", int, "environment-2 sample size"),
    "theta1": ("theta_1", float, "environment-1 spurious coefficient"),
    "theta2": ("theta_2", float, "environment-2 spurious coefficient"),
    "rc": ("r_c", float, "core mean norm"),
    "rs": ("r_s", float, "spurious mean norm"),
    "kappa": ("sigma_rule", lambda text: SigmaRule("scaling", float(text)),
              "noise scaling constant"),
    "sigma": ("sigma_rule", lambda text: SigmaRule("fixed", float(text)),
              "fixed noise level (overrides scaling rule)"),
    "methods": ("methods", _names, "comma-separated method names"),
    "out": ("output_path", str, "output CSV path"),
    "seed_base": ("seed_base", int, "first seed value"),
    "learning_rate": ("train.learning_rate", float, None),
    "max_iters": ("train.max_iters", int, "gradient-descent iteration cap"),
    "penalty_weight": ("train.penalty_weight", float, "invariance penalty weight"),
    "l2_weight": ("train.l2_weight", float, None),
    "tolerance": ("train.tolerance", float, None),
    "anneal_schedule": ("train.anneal_schedule", int, None),
}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:  # missing, a directory, or not readable
        raise ConfigError(f"config file {path}: cannot read it ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: not UTF-8 text ({exc})") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict) -> ExperimentConfig:
    """Turn a flat string mapping (file and/or CLI overrides) into a config."""
    for key in ("d_grid", "seeds"):
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    if "sigma" in raw and "kappa" in raw:
        raise ConfigError("give either 'sigma' (fixed rule) or 'kappa' (scaling rule), not both")
    fields, train = {}, {}
    for key, text in raw.items():
        name, parse, _ = _CONFIG_KEYS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
        if name.startswith("train."):
            train[name.removeprefix("train.")] = value
        else:
            fields[name] = value
    config = ExperimentConfig(**fields)
    train_config = config.train
    for key, value in train.items():  # a TrainConfig field has the name of its key
        try:
            train_config = replace(train_config, **{key: value})
        except TwoEnvError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    return replace(config, train=train_config)
