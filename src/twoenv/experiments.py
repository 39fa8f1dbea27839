"""Configuration-driven sweeps over dimension and seed, with CSV/JSON output.

Each (d, seed) cell samples one problem instance and one dataset; every
requested method is then fit on that same draw so methods are compared on
identical data.  Cells are independent, execute in any order (optionally
in parallel, ``TWOENV_WORKERS``), and the records are sorted before
emission, so output content never depends on scheduling.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import rng as rngmod
from .errors import ConfigError, TwoEnvError
from .estimators import mean_estimator, two_phase_learn
from .metrics import invariance_gaps, normalized_margin, robust_error, spurious_core_ratio
from .model import LabeledDataset, LinearModel, ProblemInstance, sample_dataset, sample_orthogonal_means
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
        if self.value <= 0:
            raise ConfigError("sigma rule parameter must be positive")


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
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(penalty_weight=100.0, anneal_schedule=500)
    )
    output_path: str = "sweep.csv"
    seed_base: int = 0
    svm_tol: float = 1e-8

    def __post_init__(self):
        if not self.d_grid:
            raise ConfigError("d_grid must be nonempty")
        if list(self.d_grid) != sorted(set(self.d_grid)):
            raise ConfigError("d_grid must be strictly increasing")
        if self.seeds < 1:
            raise ConfigError("seeds must be at least 1")
        if self.n_1 < 1 or self.n_2 < 1:
            raise ConfigError("sample sizes must be positive")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {unknown}")


@dataclass(frozen=True)
class RunRecord:
    method: str
    d: int
    seed: int
    train_acc: float
    robust_acc: float
    margin: float
    ratio: float
    eopp_gap: float
    interpolating: bool
    wall_ms: float
    error: Optional[str] = None

    def sort_key(self):
        return (self.method, self.d, self.seed)


def _strip_spurious(data: LabeledDataset, mu_s, theta_1, theta_2) -> LabeledDataset:
    theta = np.where(data.env == 1, theta_1, theta_2)
    X = data.X - (data.y * theta)[:, None] * np.asarray(mu_s)[None, :]
    return LabeledDataset(X, data.y, data.env)


def _fit(method: str, data: LabeledDataset, cfg: ExperimentConfig, sigma: float,
         mu_s, seed: int, d: int, gram=None,
         env_views=None) -> tuple[LinearModel, LabeledDataset]:
    """Fit one method; returns the model and the dataset its train metrics use."""
    if method == "mean":
        return mean_estimator(data), data
    if method == "erm":
        model, _ = gd_train(data, replace(cfg.train, penalty_kind="none", penalty_weight=0.0),
                            sigma=sigma, gram=gram)
        return model, data
    if method in ("irmv1", "vrex", "groupdro", "moment_match"):
        model, _ = gd_train(data, replace(cfg.train, penalty_kind=method), sigma=sigma,
                            gram=gram)
        return model, data
    if method == "two_phase":
        s_1, s_2 = env_views if env_views else (data.by_env(1), data.by_env(2))
        model, _ = two_phase_learn(s_1, s_2, rngmod.stream(seed, "two_phase", d))
        return model, data
    if method == "max_margin":
        return max_margin(data, tol=cfg.svm_tol), data
    if method == "oracle_no_spurious":
        cleaned = _strip_spurious(data, mu_s, cfg.theta_1, cfg.theta_2)
        model, _ = gd_train(cleaned, replace(cfg.train, penalty_kind="none", penalty_weight=0.0),
                            sigma=sigma)
        return model, cleaned
    raise TwoEnvError(f"unknown method {method!r}")


def run_cell(cfg: ExperimentConfig, d: int, seed: int) -> list[RunRecord]:
    """All requested methods on one sampled instance."""
    n = cfg.n_1 + cfg.n_2
    mu_c, mu_s = sample_orthogonal_means(d, cfg.r_c, cfg.r_s, rngmod.stream(seed, "means", d))
    sigma = resolve_sigma(cfg.sigma_rule, d, n, cfg.r_c)
    instance = ProblemInstance(
        mu_c, mu_s, cfg.theta_1, cfg.theta_2, cfg.n_1, cfg.n_2, sigma, seed
    )
    data = sample_dataset(instance, rngmod.stream(seed, "data", d))
    env_views = (data.by_env(1), data.by_env(2))

    # gradient methods on the pooled data share one Gram product
    gd_methods = {"erm", "irmv1", "vrex", "groupdro", "moment_match"}
    shared_gram = None
    if d > 2 * data.n and gd_methods.intersection(cfg.methods):
        Z = data.signed()
        shared_gram = Z @ Z.T

    records = []
    for method in cfg.methods:
        start = time.perf_counter()
        try:
            model, train_data = _fit(method, data, cfg, sigma, mu_s, seed, d,
                                     gram=shared_gram if method in gd_methods else None,
                                     env_views=env_views)
            margins = train_data.y * model.scores(train_data.X)
            train_acc = float((margins > 0).mean())
            margin = normalized_margin(model, train_data, sigma)
            rob = robust_error(model, mu_c, mu_s, sigma).error
            try:
                ratio = spurious_core_ratio(model, mu_c, mu_s)
            except TwoEnvError:
                ratio = math.nan
            gaps = invariance_gaps(model, env_views[0], env_views[1])
            wall = (time.perf_counter() - start) * 1e3
            records.append(
                RunRecord(
                    method=method,
                    d=d,
                    seed=seed,
                    train_acc=train_acc,
                    robust_acc=1.0 - rob,
                    margin=margin,
                    ratio=ratio,
                    eopp_gap=gaps.eopp_gap,
                    interpolating=bool(train_acc == 1.0 and margin > 0.0),
                    wall_ms=wall,
                )
            )
        except TwoEnvError as exc:
            wall = (time.perf_counter() - start) * 1e3
            records.append(
                RunRecord(
                    method=method,
                    d=d,
                    seed=seed,
                    train_acc=math.nan,
                    robust_acc=math.nan,
                    margin=math.nan,
                    ratio=math.nan,
                    eopp_gap=math.nan,
                    interpolating=False,
                    wall_ms=wall,
                    error=str(exc),
                )
            )
    return records


def _cell_args(cfg: ExperimentConfig):
    for d in cfg.d_grid:
        for rep in range(cfg.seeds):
            yield d, cfg.seed_base + rep


def run_sweep(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run every (d, seed) cell; records come back sorted by (method, d, seed)."""
    workers = int(os.environ.get("TWOENV_WORKERS", "1"))
    cells = list(_cell_args(cfg))
    records: list[RunRecord] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_run_cell_star, [(cfg, d, s) for d, s in cells]):
                records.extend(batch)
    else:
        for d, s in cells:
            records.extend(run_cell(cfg, d, s))
    records.sort(key=RunRecord.sort_key)
    return records


def _run_cell_star(args):
    return run_cell(*args)


def _fmt(x: float) -> str:
    return "%.9g" % x


def emit(records: list[RunRecord], fmt: str, path, timings: bool = False):
    """Write records as CSV or JSON.

    ``timings`` controls whether measured wall times appear in the output;
    by default the column is written as 0 so two runs of the same config
    produce byte-identical files.  Error rows keep their (method, d, seed)
    key with nan metrics; the verbatim failure reasons, when any exist, go
    to a ``<path>.errors.txt`` sidecar.
    """
    if not records:
        raise TwoEnvError("refusing to emit an empty record list")
    if fmt not in ("csv", "json"):
        raise TwoEnvError(f"unknown output format {fmt!r}")
    path = Path(path)

    def wall(rec: RunRecord) -> float:
        return rec.wall_ms if timings else 0.0

    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            lines.append(
                ",".join(
                    [
                        r.method,
                        str(r.d),
                        str(r.seed),
                        _fmt(r.train_acc),
                        _fmt(r.robust_acc),
                        _fmt(r.margin),
                        _fmt(r.ratio),
                        _fmt(r.eopp_gap),
                        "true" if r.interpolating else "false",
                        _fmt(wall(r)),
                    ]
                )
            )
        path.write_text("\n".join(lines) + "\n")
    else:
        import json

        def jf(x: float):
            return None if math.isnan(x) else float("%.9g" % x)

        payload = [
            {
                "method": r.method,
                "d": r.d,
                "seed": r.seed,
                "train_acc": jf(r.train_acc),
                "robust_acc": jf(r.robust_acc),
                "margin": jf(r.margin),
                "ratio": jf(r.ratio),
                "eopp_gap": jf(r.eopp_gap),
                "interpolating": r.interpolating,
                "wall_ms": jf(wall(r)),
            }
            for r in records
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n")

    reasons = [r for r in records if r.error is not None]
    if reasons:
        side = path.with_name(path.name + ".errors.txt")
        side.write_text(
            "".join(f"{r.method},{r.d},{r.seed}: {r.error}\n" for r in reasons)
        )
    return path


def parse_records_csv(path) -> list[RunRecord]:
    """Read back a CSV produced by :func:`emit` (used by tests and plotting)."""
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise TwoEnvError(f"{path}: unexpected header")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        out.append(
            RunRecord(
                method=parts[0],
                d=int(parts[1]),
                seed=int(parts[2]),
                train_acc=float(parts[3]),
                robust_acc=float(parts[4]),
                margin=float(parts[5]),
                ratio=float(parts[6]),
                eopp_gap=float(parts[7]),
                interpolating=parts[8] == "true",
                wall_ms=float(parts[9]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "d_grid", "seeds", "n1", "n2", "theta1", "theta2", "rc", "rs", "kappa", "sigma",
    "methods", "out", "seed_base", "learning_rate", "max_iters", "penalty_weight",
    "l2_weight", "tolerance", "anneal_schedule", "svm_tol",
}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().split("\n"), start=1):
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
    def need(key):
        if key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
        return raw[key]

    def parse_int(key, value):
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None

    def parse_float(key, value):
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None

    try:
        d_grid = tuple(int(tok) for tok in str(need("d_grid")).replace(" ", "").split(",") if tok)
    except ValueError:
        raise ConfigError(f"config key 'd_grid': expected comma-separated integers") from None

    if "sigma" in raw and "kappa" in raw:
        raise ConfigError("give either 'sigma' (fixed rule) or 'kappa' (scaling rule), not both")
    if "sigma" in raw:
        rule = SigmaRule("fixed", parse_float("sigma", raw["sigma"]))
    elif "kappa" in raw:
        rule = SigmaRule("scaling", parse_float("kappa", raw["kappa"]))
    else:
        rule = _default_sigma_rule()

    methods = tuple(
        tok for tok in str(raw.get("methods", "erm,two_phase,mean")).replace(" ", "").split(",")
        if tok
    )

    train_kwargs = {}
    for key, caster in (
        ("learning_rate", float), ("max_iters", int), ("penalty_weight", float),
        ("l2_weight", float), ("tolerance", float), ("anneal_schedule", int),
    ):
        if key in raw:
            try:
                train_kwargs[key] = caster(raw[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    train = TrainConfig(penalty_weight=100.0, anneal_schedule=500)
    if train_kwargs:
        train = replace(train, **train_kwargs)

    return ExperimentConfig(
        d_grid=d_grid,
        seeds=parse_int("seeds", need("seeds")),
        n_1=parse_int("n1", raw.get("n1", "800")),
        n_2=parse_int("n2", raw.get("n2", "100")),
        theta_1=parse_float("theta1", raw.get("theta1", "1.0")),
        theta_2=parse_float("theta2", raw.get("theta2", "0.0")),
        r_c=parse_float("rc", raw.get("rc", "1.0")),
        r_s=parse_float("rs", raw.get("rs", "2.0")),
        sigma_rule=rule,
        methods=methods,
        train=train,
        output_path=str(raw.get("out", "sweep.csv")),
        seed_base=parse_int("seed_base", raw.get("seed_base", "0")),
        svm_tol=parse_float("svm_tol", raw.get("svm_tol", "1e-8")),
    )
