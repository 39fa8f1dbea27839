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
from dataclasses import dataclass, fields

from . import rng as rngmod
from .duality import (
    canonical_lambda,
    check_spectral_events,
    closed_form_bound,
    dual_value,
    gram_from_dataset,
    min_weighted_beta,
)
from .errors import InfeasibleMarginError, TwoEnvError, finite_real, integer_in
from .estimators import mean_estimator, two_phase_learn
from .experiments import SigmaRule, resolve_sigma
from .metrics import normalized_margin, robust_error, spurious_core_ratio
from .model import sample_gram_row_sums, sample_reduced
from .presets import PresetParams, theorem_preset
from .training import max_margin

# every rate here is measured on the sweep's default environments (theta_1 = 1,
# theta_2 = 0) and, in the kappa check, at its default mean norms
THETA_1, THETA_2 = 1.0, 0.0
R_C, R_S = 1.0, 2.0
EPSILON = 0.1  # robust-error target of the calibration presets
MAX_ROUNDS = 4  # dimension-constant bumps before calibration gives up


def _seed_range(seeds) -> range:
    """``range(seeds)`` for a positive integer ``seeds``: a rate over no draw is 0/0."""
    if not integer_in(seeds, 1):
        raise TwoEnvError(f"seeds must be an integer in [1, 2**53], got {seeds!r}")
    return range(seeds)


def preset_environments(preset: PresetParams, seed: int):
    """One exact reduced draw at the preset: :func:`sample_reduced`'s ``(instance, data)``."""
    return sample_reduced(
        preset.d, preset.r_c, preset.r_s, THETA_1, THETA_2, preset.n_1, preset.n_2,
        preset.sigma, seed, rngmod.stream(seed, "preset-data"),
    )


def _mean_margin(preset, seed, inst, data, epsilon) -> bool:
    """The signed-mean margin clears 1/(4 sqrt(N))."""
    target = 1.0 / (4.0 * math.sqrt(preset.n_1 + preset.n_2))
    return normalized_margin(mean_estimator(data), data, preset.sigma) >= target


def _indictment(preset, seed, inst, data, epsilon) -> bool:
    """The hard-margin fit leans on the spurious mean: ratio at least 1 and
    robust error at least 1/2.  An undefined ratio is a miss."""
    model = max_margin(data)
    try:
        ratio = spurious_core_ratio(model, inst.mu_c, inst.mu_s)
    except TwoEnvError:
        return False
    return ratio >= 1.0 and robust_error(model, inst.mu_c, inst.mu_s, preset.sigma) >= 0.5


def _two_phase(preset, seed, inst, data, epsilon) -> bool:
    """The two-stage learner meets the robust target ``epsilon``.  A draw it
    cannot fit (at a few rows per environment, a held-out half may have no
    positive label) is a miss."""
    try:
        model = two_phase_learn(data.by_env(1), data.by_env(2),
                                rngmod.stream(seed, "preset-two-phase"))
    except TwoEnvError:
        return False
    return robust_error(model, inst.mu_c, inst.mu_s, preset.sigma) <= epsilon


# each outcome reads the draw and its own streams only, so scoring several on
# one draw gives each the bits it gets alone
_OUTCOMES = {"mean_margin": _mean_margin, "indictment": _indictment, "two_phase": _two_phase}


def _preset_rates(preset: PresetParams, seeds: int, outcomes=tuple(_OUTCOMES),
                 epsilon: float = EPSILON) -> dict[str, float]:
    """Fraction of the draws ``preset_environments(preset, seed)``, seed in
    ``range(seeds)``, on which each named outcome of :data:`_OUTCOMES` holds.
    Each draw is made once and scored for every outcome."""
    hits = dict.fromkeys(outcomes, 0)
    for seed in _seed_range(seeds):
        inst, data = preset_environments(preset, seed)
        for key in hits:
            hits[key] += _OUTCOMES[key](preset, seed, inst, data, epsilon)
    return {key: count / seeds for key, count in hits.items()}


def mean_margin_rate(preset: PresetParams, seeds: int) -> float:
    """Fraction of draws where the signed-mean margin clears 1/(4 sqrt(N))."""
    return _preset_rates(preset, seeds, ("mean_margin",))["mean_margin"]


def max_margin_indictment_rate(preset: PresetParams, seeds: int) -> float:
    """Fraction of draws where the hard-margin fit leans on the spurious mean."""
    return _preset_rates(preset, seeds, ("indictment",))["indictment"]


def two_phase_rate(preset: PresetParams, seeds: int, epsilon: float) -> float:
    """Fraction of draws where the two-stage learner meets the robust target;
    a draw it cannot fit counts as a miss."""
    return _preset_rates(preset, seeds, ("two_phase",), epsilon)["two_phase"]


# ---------------------------------------------------------------------------
# Bound-chain study
# ---------------------------------------------------------------------------


DUAL_TOL = 1e-6  # weak duality holds when dual(canonical lambda) <= primal + DUAL_TOL
CLOSED_FORM_TOL = 1e-9  # the closed form holds when closed_form <= dual + CLOSED_FORM_TOL


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

    @property
    def chain_ok(self) -> bool:
        return self.weak_duality_ok and self.closed_form_ok

    def as_dict(self) -> dict:
        """The report row: every field, then the verdict."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**row, "verdict": "ok" if self.chain_ok else "violated"}


def _chain_instance(seed: int, t: float):
    """One random instance in the concentration regime, drawn exactly in
    reduced coordinates (:func:`sample_reduced`; ``data.ambient_d`` is its d),
    or None when the drawn sizes leave no spectral budget at this ``t``.

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
        return None
    total = 0.5 * budget / math.sqrt(n)
    r_s, r_c = 0.75 * total, 0.25 * total
    theta_2 = -0.5 * float(rng.random())
    return sample_reduced(
        d, r_c, r_s, 1.0, theta_2, n_1, n_2, sigma, seed, rngmod.stream(seed, "chain-data")
    )


def bound_chain_study(instances: int, t: float = 3.0, seed_base: int = 0) -> list[ChainReport]:
    """Sample instances passing the spectral events and check the chain

        closed_form <= dual(canonical lambda) <= primal optimum.

    Draws failing the events at the given ``t``, or whose sizes leave no
    spectral budget, are resampled (the chain is only claimed conditional
    on the events), at most 50 times per instance.  ``instances`` is an
    integer in [1, 2**53] and ``t`` a positive finite real."""
    if not integer_in(instances, 1):
        raise TwoEnvError(f"instances must be an integer in [1, 2**53], got {instances!r}")
    if not (finite_real(t) and t > 0):
        raise TwoEnvError(f"t must be a positive finite real, got {t!r}")
    t = float(t)
    reports = []
    seed = seed_base
    for _ in range(instances):
        attempts = 0
        while True:
            attempts += 1
            drawn = _chain_instance(seed, t)
            seed += 1
            if drawn is not None and all(check_spectral_events(*drawn, t)):
                break
            if attempts > 50:
                raise TwoEnvError(f"could not find an instance passing the events at t = {t}")
        inst, data = drawn
        gamma = 1.0 / (4.0 * math.sqrt(inst.n))
        gd = gram_from_dataset(data, gamma, inst.theta_2)
        try:
            result = min_weighted_beta(gd)
        except InfeasibleMarginError:
            continue
        lam = canonical_lambda(data.env, inst.r_c, inst.r_s)
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
                weak_duality_ok=bool(dual <= result.optimum + DUAL_TOL),
                closed_form_ok=bool(cf <= dual + CLOSED_FORM_TOL),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Constant calibration
# ---------------------------------------------------------------------------

TARGET_RATES = {"mean_margin": 0.95, "indictment": 0.90, "two_phase": 0.95}


def kappa_interpolation_rate(kappa: float, d_max: int, n_1: int, n_2: int, seeds: int) -> float:
    """Fraction of exact draws where the signed mean interpolates at ``d_max``.

    The signed mean ``Z'1/N`` interpolates when every margin ``z_i'Z'1/N`` is
    positive, that is, when every row sum of the Gram ``Z Z'`` is; each
    draw takes those row sums alone (:func:`sample_gram_row_sums`).  The
    noise-scaling default is accepted only if this rate clears 0.95 at the
    top of the sweep grid (the benign-overfitting regime check)."""
    n = n_1 + n_2
    sigma = resolve_sigma(SigmaRule("scaling", kappa), d_max, n, R_C)
    hits = 0
    for seed in _seed_range(seeds):
        row_sums = sample_gram_row_sums(
            d_max, R_C, R_S, THETA_1, THETA_2, n_1, n_2, sigma,
            rngmod.stream(seed, "kappa-data"),
        )
        if row_sums.min() > 0:
            hits += 1
    return hits / seeds


def measure_rates(constants: dict, n_e: int, seeds: int) -> dict:
    n = 2 * n_e
    gamma = 1.0 / (4.0 * math.sqrt(n))
    preset = theorem_preset(n_e, n_e, gamma, EPSILON, constants=constants, strict=False)
    return {"n_e": n_e, "d": preset.d, **_preset_rates(preset, seeds)}


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
        measured = [{**measure_rates(constants, n_e, seeds), "round": round_idx} for n_e in sizes]
        log.extend(measured)
        if all(rates[key] >= target for rates in measured for key, target in TARGET_RATES.items()):
            return constants, log
        for key in ("C_d", "C_s"):
            constants[key] = constants[key] * 1.5
    raise TwoEnvError("calibration failed to reach the target rates")
