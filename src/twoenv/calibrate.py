"""Reproduction-rate estimators, the bound-chain study, and calibration.

The preset constants are dimensionless multipliers the analysis leaves
unspecified; this module measures the empirical reproduction rates they
produce (interpolation margin of the mean estimator, indictment of the
max-margin classifier, robustness of the two-stage learner) and searches
for the cheapest constants at which the target rates hold at desk scale.
The winning values are frozen into the constants file that presets and
the acceptance suite read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rng as rngmod
from .duality import (
    canonical_lambda,
    check_spectral_events,
    closed_form_bound,
    dual_value,
    gram_from_dataset,
    min_weighted_beta,
)
from .errors import InfeasibleMarginError, TwoEnvError
from .estimators import mean_estimator, two_phase_learn
from .metrics import normalized_margin, robust_error, spurious_core_ratio
from .model import pool, sample_reduced
from .presets import PresetParams, theorem_preset
from .training import max_margin

# every rate here is measured on the sweep's default environments (theta_1 = 1,
# theta_2 = 0) and, in the kappa check, at its default mean norms
THETA_1, THETA_2 = 1.0, 0.0
R_C, R_S = 1.0, 2.0
EPSILON = 0.1  # robust-error target of the calibration presets
MAX_ROUNDS = 4  # dimension-constant bumps before calibration gives up


def preset_environments(preset: PresetParams, seed: int):
    """One exact reduced draw at the preset (:func:`sample_reduced`), split by environment.

    Returns ``(instance, s_1, s_2)`` in the reduced coordinates; pooling the
    parts gives back the draw byte for byte.
    """
    inst, data = sample_reduced(
        preset.d, preset.r_c, preset.r_s, THETA_1, THETA_2, preset.n_1, preset.n_2,
        preset.sigma, seed, rngmod.stream(seed, "preset-data"),
    )
    return inst, data.by_env(1), data.by_env(2)


def mean_margin_rate(preset: PresetParams, seeds: int) -> float:
    """Fraction of draws where the signed-mean margin clears 1/(4 sqrt(N))."""
    target = 1.0 / (4.0 * math.sqrt(preset.n_1 + preset.n_2))
    hits = 0
    for seed in range(seeds):
        inst, s_1, s_2 = preset_environments(preset, seed)
        data = pool(s_1, s_2)
        model = mean_estimator(data)
        if normalized_margin(model, data, preset.sigma) >= target:
            hits += 1
    return hits / seeds


def max_margin_indictment_rate(preset: PresetParams, seeds: int) -> float:
    """Fraction of draws where the hard-margin fit leans on the spurious mean."""
    hits = 0
    for seed in range(seeds):
        inst, s_1, s_2 = preset_environments(preset, seed)
        data = pool(s_1, s_2)
        model = max_margin(data)
        try:
            ratio = spurious_core_ratio(model, inst.mu_c, inst.mu_s)
        except TwoEnvError:
            continue
        rob = robust_error(model, inst.mu_c, inst.mu_s, preset.sigma).error
        if ratio >= 1.0 and rob >= 0.5:
            hits += 1
    return hits / seeds


def two_phase_rate(preset: PresetParams, seeds: int, epsilon: float) -> float:
    """Fraction of draws where the two-stage learner meets the robust target."""
    hits = 0
    for seed in range(seeds):
        inst, s_1, s_2 = preset_environments(preset, seed)
        model, _ = two_phase_learn(s_1, s_2, rngmod.stream(seed, "preset-two-phase"))
        if robust_error(model, inst.mu_c, inst.mu_s, preset.sigma).error <= epsilon:
            hits += 1
    return hits / seeds


# ---------------------------------------------------------------------------
# Bound-chain study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    seed: int
    n_1: int
    n_2: int
    d: int
    theta_2: float
    gamma: float
    events_pass: bool
    primal: float
    dual_canonical: float
    closed_form: float
    weak_duality_ok: bool
    closed_form_ok: bool
    attempts: int

    @property
    def chain_ok(self) -> bool:
        return self.weak_duality_ok and self.closed_form_ok

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_1": self.n_1,
            "n_2": self.n_2,
            "d": self.d,
            "theta_2": self.theta_2,
            "gamma": self.gamma,
            "events_pass": self.events_pass,
            "primal": self.primal,
            "dual_canonical": self.dual_canonical,
            "closed_form": self.closed_form,
            "weak_duality_ok": self.weak_duality_ok,
            "closed_form_ok": self.closed_form_ok,
            "verdict": "ok" if self.chain_ok else "violated",
        }


def _chain_instance(seed: int, t: float):
    """One random instance in the concentration regime, drawn exactly in
    reduced coordinates (:func:`sample_reduced`; ``data.ambient_d`` is its d).

    Sizes are drawn with N <= 60 and d >= 20 N; the mean norms spend half
    of the spectral budget ``1/2 - (sqrt(N)+t)/sqrt(d)`` so the half-floor
    on the Gram spectrum has headroom, and theta_2 <= 0 keeps the single
    canonical dual point applicable.
    """
    rng = rngmod.stream(seed, "chain-sizes")
    n_1 = int(rng.integers(8, 31))
    n_2 = int(rng.integers(8, 31))
    n = n_1 + n_2
    d = int(rng.integers(20 * n, 40 * n))
    sigma = 1.0 / math.sqrt(d)
    budget = 0.5 - (math.sqrt(n) + t) / math.sqrt(d)
    if budget <= 0:
        raise TwoEnvError("dimension too small for the concentration regime")
    total = 0.5 * budget / math.sqrt(n)
    r_s, r_c = 0.75 * total, 0.25 * total
    theta_2 = -0.5 * float(rng.random())
    return sample_reduced(
        d, r_c, r_s, 1.0, theta_2, n_1, n_2, sigma, seed, rngmod.stream(seed, "chain-data")
    )


def bound_chain_study(
    instances: int,
    t: float = 3.0,
    seed_base: int = 0,
    dual_tol: float = 1e-6,
    closed_form_tol: float = 1e-9,
) -> list[ChainReport]:
    """Sample instances passing the spectral events and check the chain

        closed_form <= dual(canonical lambda) <= primal optimum.

    Draws failing the events at the given ``t`` are resampled (the chain is
    only claimed conditional on the events)."""
    reports = []
    seed = seed_base
    for _ in range(instances):
        attempts = 0
        while True:
            attempts += 1
            inst, data = _chain_instance(seed, t)
            seed += 1
            events = check_spectral_events(
                data, inst.mu_c, inst.mu_s, inst.sigma, t, inst.theta_1, inst.theta_2
            )
            if events.all_pass:
                break
            if attempts > 50:
                raise TwoEnvError("could not find an instance passing the events")
        gamma = 1.0 / (4.0 * math.sqrt(inst.n))
        gd = gram_from_dataset(data, gamma, inst.theta_2)
        try:
            result = min_weighted_beta(gd)
        except InfeasibleMarginError:
            continue
        lam = canonical_lambda(gd, inst.r_c, inst.r_s)
        dual = dual_value(gd, lam)
        cf = closed_form_bound(
            inst.n_1, inst.n_2, gamma, inst.theta_2, inst.r_c, data.ambient_d, t
        )
        reports.append(
            ChainReport(
                seed=inst.seed,
                n_1=inst.n_1,
                n_2=inst.n_2,
                d=data.ambient_d,
                theta_2=inst.theta_2,
                gamma=gamma,
                events_pass=True,
                primal=result.optimum,
                dual_canonical=dual,
                closed_form=cf,
                weak_duality_ok=bool(dual <= result.optimum + dual_tol),
                closed_form_ok=bool(cf <= dual + closed_form_tol),
                attempts=attempts,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Constant calibration
# ---------------------------------------------------------------------------

TARGET_RATES = {"mean_margin": 0.95, "indictment": 0.90, "two_phase": 0.95}


def kappa_interpolation_rate(kappa: float, d_max: int, n_1: int, n_2: int, seeds: int) -> float:
    """Fraction of exact reduced draws where the signed mean interpolates at ``d_max``.

    The noise-scaling default is accepted only if this rate clears 0.95 at
    the top of the sweep grid (the benign-overfitting regime check)."""
    from .experiments import SigmaRule, resolve_sigma

    n = n_1 + n_2
    sigma = resolve_sigma(SigmaRule("scaling", kappa), d_max, n, R_C)
    hits = 0
    for seed in range(seeds):
        _, data = sample_reduced(
            d_max, R_C, R_S, THETA_1, THETA_2, n_1, n_2, sigma, seed,
            rngmod.stream(seed, "kappa-data"),
        )
        model = mean_estimator(data)
        margins = data.y * model.scores(data.X)
        if margins.min() > 0:
            hits += 1
    return hits / seeds


def measure_rates(constants: dict, n_e: int, seeds: int) -> dict:
    n = 2 * n_e
    gamma = 1.0 / (4.0 * math.sqrt(n))
    preset = theorem_preset(n_e, n_e, gamma, EPSILON, constants=constants, strict=False)
    return {
        "n_e": n_e,
        "d": preset.d,
        "mean_margin": mean_margin_rate(preset, seeds),
        "indictment": max_margin_indictment_rate(preset, seeds),
        "two_phase": two_phase_rate(preset, seeds, EPSILON),
    }


def calibrate_constants(
    base: dict, seeds: int = 50, sizes: tuple[int, ...] = (20, 40)
) -> tuple[dict, list[dict]]:
    """Verify the rates at the given constants; bump the dimension constants
    geometrically until every target rate holds at every size.

    Returns the accepted constants and the measurement log.  This is the
    documented search that produced the frozen defaults.
    """
    constants = dict(base)
    log = []
    for round_idx in range(MAX_ROUNDS):
        ok = True
        for n_e in sizes:
            rates = measure_rates(constants, n_e, seeds)
            rates["round"] = round_idx
            log.append(rates)
            if (
                rates["mean_margin"] < TARGET_RATES["mean_margin"]
                or rates["indictment"] < TARGET_RATES["indictment"]
                or rates["two_phase"] < TARGET_RATES["two_phase"]
            ):
                ok = False
        if ok:
            return constants, log
        for key in ("C_d", "C_s"):
            constants[key] = constants[key] * 1.5
    raise TwoEnvError("calibration failed to reach the target rates")
