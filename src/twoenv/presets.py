"""Parameter presets that realize the regime where the phenomena appear.

With ``sigma^2 = 1/d`` the preset picks the mean norms as

    r_s^2 = min(c_r, c_r') / N
    r_c^2 = r_s^2 / (C_r (1 + sqrt(N_2) / (N_1 gamma)))

and then the smallest dimension that clears every concentration
requirement,

    d = log(1/delta) * max( C_d' N^2,
                            C_d N / (gamma^2 N_1^2 r_c^2),
                            C_s Qinv(eps)^2 / (N_min r_c^4),
                            C_c / (N_min^2 r_c^4) ).

The analysis never pins numeric values for the constants; the defaults
shipped in ``calibrated_constants.json`` were found by the calibration
routine (grid search for the cheapest constants at which the reproduction
rates hold at desk scale) and are frozen there.  Constants enter the
dimension formula linearly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import ConfigError, TwoEnvError, finite_real, integer_in
from .metrics import gaussian_tail_inv
from .model import _check_sizes

CONSTANT_NAMES = ("c_r", "c_r_prime", "C_r", "C_d", "C_d_prime", "C_s", "C_c")


def load_constants(path: Optional[str] = None) -> dict:
    """Read the frozen constants file (package default unless a path is given).

    The file is a JSON object in which the seven constants and ``kappa`` are
    positive finite numbers; otherwise :class:`ConfigError` names the file
    and the key.
    """
    if path is None:
        source = resources.files("twoenv").joinpath("calibrated_constants.json")
    else:
        source = Path(path)
    try:
        values = json.loads(source.read_text())
    except OSError as exc:  # missing, a directory, or not readable
        raise ConfigError(f"constants file {source}: cannot read it ({exc.strerror})") from None
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"constants file {source}: not JSON ({exc})") from None
    if not isinstance(values, dict):
        raise ConfigError(f"constants file {source}: expected a JSON object")
    for key in (*CONSTANT_NAMES, "kappa"):
        if key not in values:
            raise ConfigError(f"constants file {source}: missing {key!r}")
        value = values[key]
        if not (finite_real(value) and value > 0):
            raise ConfigError(f"constants file {source}: {key!r} must be a positive finite "
                              f"number, got {value!r}")
    return values


def save_constants(values: dict, path: str) -> None:
    Path(path).write_text(json.dumps(values, indent=2) + "\n")


@dataclass(frozen=True)
class PresetParams:
    r_c: float
    r_s: float
    d: int
    sigma: float
    n_1: int
    n_2: int
    invariant_margin_floor: float

    def __post_init__(self):
        for name, value in (("r_c", self.r_c), ("r_s", self.r_s), ("sigma", self.sigma)):
            if not (finite_real(value) and value > 0):
                raise TwoEnvError(f"{name} must be positive and finite, got {value!r}")
        _check_sizes(self.n_1, self.n_2)
        if not integer_in(self.d, self.n_1 + self.n_2 + 1, math.inf):  # d may pass 2**53
            raise TwoEnvError(f"preset d must be an integer above the sample size, got {self.d!r}")


def theorem_preset(
    n_1: int,
    n_2: int,
    gamma: float,
    epsilon: float,
    constants: Optional[dict] = None,
    delta: float = 0.01,
    strict: bool = True,
) -> PresetParams:
    """Emit ``(r_c, r_s, d, sigma)`` for the given sizes, margin and target error.

    ``strict`` enforces the stated sample-size hypothesis ``N_1, N_2 > 65``;
    the margin hypothesis ``gamma <= 1/(4 sqrt(N))`` is always enforced.
    Callers reproducing the desk-scale statistics pass ``strict=False`` to
    run at smaller N with the calibrated constants.
    """
    for name, value in (("gamma", gamma), ("epsilon", epsilon), ("delta", delta)):
        if not finite_real(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    _check_sizes(n_1, n_2)
    if constants is None:
        constants = load_constants()
    n = n_1 + n_2
    if gamma <= 0 or gamma > 1.0 / (4.0 * math.sqrt(n)):
        raise TwoEnvError(
            f"margin target must satisfy 0 < gamma <= 1/(4 sqrt(N)) = "
            f"{1.0 / (4.0 * math.sqrt(n)):.6g}, got {gamma}"
        )
    if strict and (n_1 <= 65 or n_2 <= 65):
        raise TwoEnvError("sample-size hypothesis requires N_1, N_2 > 65 (strict mode)")
    if not 0 < epsilon < 0.5:
        raise TwoEnvError("target robust error must lie in (0, 0.5)")
    if not 0 < delta < 1:
        raise TwoEnvError("failure probability must lie in (0, 1)")

    c = {k: float(constants[k]) for k in CONSTANT_NAMES}
    r_s_sq = min(c["c_r"], c["c_r_prime"]) / n
    r_c_sq = r_s_sq / (c["C_r"] * (1.0 + math.sqrt(n_2) / (n_1 * gamma)))
    n_min = min(n_1, n_2)
    q_eps = gaussian_tail_inv(epsilon)
    log_term = math.log(1.0 / delta)
    demands = (  # (numerator, denominator) of each lower bound on d
        (c["C_d_prime"] * n**2, 1.0),
        (c["C_d"] * n, gamma**2 * n_1**2 * r_c_sq),
        (c["C_s"] * q_eps**2, n_min * r_c_sq**2),
        (c["C_c"], n_min**2 * r_c_sq**2),
    )
    # at a tiny gamma a denominator underflows to 0 or a quotient overflows
    d_real = log_term * max(num / den if den else math.inf for num, den in demands)
    if not math.isfinite(d_real):
        raise TwoEnvError(f"gamma = {gamma!r} asks for a dimension beyond the largest float")
    d = int(math.ceil(d_real))
    sigma = 1.0 / math.sqrt(d)
    r_c = math.sqrt(r_c_sq)
    r_s = math.sqrt(r_s_sq)
    # high-probability floor on the normalized margin of the core-aligned
    # classifier: (r_c - sigma Qinv(delta/N)) / sqrt(sigma^2 d)
    floor = (r_c - sigma * gaussian_tail_inv(delta / n)) / math.sqrt(sigma**2 * d)
    return PresetParams(
        r_c=r_c,
        r_s=r_s,
        d=d,
        sigma=sigma,
        n_1=n_1,
        n_2=n_2,
        invariant_margin_floor=floor,
    )
