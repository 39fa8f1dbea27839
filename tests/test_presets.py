"""Preset parameter arithmetic and the constants file."""

import math

import pytest

from twoenv.errors import ConfigError, TwoEnvError
from twoenv.presets import load_constants, save_constants, theorem_preset


def _gamma(n):
    return 1.0 / (4.0 * math.sqrt(n))


class TestTheoremPreset:
    def test_sigma_matches_dimension(self):
        p = theorem_preset(100, 100, _gamma(200), 0.1)
        assert p.sigma == pytest.approx(1.0 / math.sqrt(p.d), rel=1e-12)
        assert p.d > p.n_1 + p.n_2

    def test_norm_ratio_identity_at_max_margin_target(self):
        # gamma = 1/(4 sqrt(N)), N_1 = N_2: the squared-norm ratio is
        # 1 / (C_r (1 + 4 sqrt(N_2) sqrt(N) / N_1))
        n_e = 100
        n = 2 * n_e
        p = theorem_preset(n_e, n_e, _gamma(n), 0.1)
        c_r_mult = load_constants()["C_r"]
        expected = 1.0 / (c_r_mult * (1.0 + 4.0 * math.sqrt(n_e) * math.sqrt(n) / n_e))
        assert (p.r_c**2 / p.r_s**2) == pytest.approx(expected, rel=1e-12)

    def test_doubling_norm_constants_scales_norms(self):
        base = load_constants()
        doubled = dict(base)
        doubled["c_r"] = 2 * base["c_r"]
        doubled["c_r_prime"] = 2 * base["c_r_prime"]
        p0 = theorem_preset(100, 100, _gamma(200), 0.1, constants=base)
        p1 = theorem_preset(100, 100, _gamma(200), 0.1, constants=doubled)
        assert p1.r_s**2 == pytest.approx(2 * p0.r_s**2, rel=1e-12)
        assert p1.r_c**2 == pytest.approx(2 * p0.r_c**2, rel=1e-12)
        # the dimension re-solves the same formula at the new norms
        assert p1.d != p0.d

    def test_margin_hypothesis_enforced(self):
        with pytest.raises(TwoEnvError):
            theorem_preset(100, 100, 1.0 / math.sqrt(200), 0.1)

    def test_strict_sample_size_hypothesis(self):
        with pytest.raises(TwoEnvError):
            theorem_preset(40, 40, _gamma(80), 0.1, strict=True)
        p = theorem_preset(40, 40, _gamma(80), 0.1, strict=False)
        assert p.d > 80

    def test_margin_floor_reported(self):
        p = theorem_preset(40, 40, _gamma(80), 0.1, strict=False)
        assert 0.0 < p.invariant_margin_floor < p.r_c

    def test_epsilon_range_checked(self):
        with pytest.raises(TwoEnvError):
            theorem_preset(100, 100, _gamma(200), 0.7)

    @pytest.mark.parametrize("name", ["gamma", "epsilon", "delta"])
    def test_integer_too_large_for_a_float_is_not_finite(self, name):
        # math.isfinite(10**400) raises OverflowError, which used to escape bare
        args = {"gamma": _gamma(200), "epsilon": 0.05, "delta": 0.01, name: 10**400}
        with pytest.raises(ConfigError, match=name):
            theorem_preset(100, 100, **args)


class TestConstantsFile:
    def test_roundtrip(self, tmp_path):
        values = load_constants()
        path = tmp_path / "constants.json"
        save_constants(values, path)
        assert load_constants(path) == values

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"c_r": 1.0}')
        with pytest.raises(TwoEnvError):
            load_constants(path)

    def test_packaged_defaults_complete(self):
        values = load_constants()
        assert values["kappa"] > 0
        for key in ("c_r", "c_r_prime", "C_r", "C_d", "C_d_prime", "C_s", "C_c"):
            assert values[key] > 0
