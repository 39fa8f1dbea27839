"""Command-line entry point: sweep, verify, preset, calibrate."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .calibrate import bound_chain_study, calibrate_constants, kappa_interpolation_rate
from .errors import ConfigError, TwoEnvError
from .experiments import build_config, emit, parse_config_file, run_sweep
from .presets import load_constants, save_constants, theorem_preset

# (config key, help): each key is also the flag "--" + key with "_" as "-"
_SWEEP_OVERRIDES = (
    ("d_grid", "comma-separated dimensions"),
    ("seeds", "number of repetitions"),
    ("n1", "environment-1 sample size"),
    ("n2", "environment-2 sample size"),
    ("theta1", "environment-1 spurious coefficient"),
    ("theta2", "environment-2 spurious coefficient"),
    ("rc", "core mean norm"),
    ("rs", "spurious mean norm"),
    ("kappa", "noise scaling constant"),
    ("sigma", "fixed noise level (overrides scaling rule)"),
    ("methods", "comma-separated method names"),
    ("out", "output CSV path"),
    ("seed_base", "first seed value"),
    ("max_iters", "gradient-descent iteration cap"),
    ("penalty_weight", "invariance penalty weight"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twoenv")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a (d, seed) sweep and write CSV/JSON")
    sweep.add_argument("--config", help="flat key=value config file")
    for key, help_text in _SWEEP_OVERRIDES:
        sweep.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
    sweep.add_argument("--json", help="also write a JSON mirror to this path")
    sweep.add_argument("--timings", action="store_true",
                       help="include measured wall times (breaks byte determinism)")

    verify = sub.add_parser("verify", help="run the duality bound-chain study")
    verify.add_argument("--instances", type=int, default=100)
    verify.add_argument("--t", type=float, default=3.0)
    verify.add_argument("--seed-base", type=int, default=0)
    verify.add_argument("--out", default="verify_report.json")

    preset = sub.add_parser("preset", help="print preset parameters")
    preset.add_argument("--n1", type=int, required=True)
    preset.add_argument("--n2", type=int, required=True)
    preset.add_argument("--gamma", type=float, required=True)
    preset.add_argument("--epsilon", type=float, required=True)
    preset.add_argument("--delta", type=float, default=0.01)
    preset.add_argument("--constants", help="constants file (default: packaged)")
    preset.add_argument("--strict", action="store_true",
                        help="enforce the N_1, N_2 > 65 hypothesis")

    cal = sub.add_parser("calibrate", help="measure rates and write a constants file")
    cal.add_argument("--out", default="calibrated_constants.json")
    cal.add_argument("--seeds", type=int, default=50)
    cal.add_argument("--sizes", default="20,40", help="per-environment sizes to test")
    cal.add_argument("--constants", help="starting constants file (default: packaged)")
    cal.add_argument("--kappa-dmax", type=int, default=24576,
                     help="sweep-top dimension for the noise-rule interpolation check")
    return parser


def _cmd_sweep(args) -> int:
    raw = parse_config_file(args.config) if args.config else {}
    for key, _ in _SWEEP_OVERRIDES:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    config = build_config(raw)
    records = run_sweep(config)
    emit(records, "csv", config.output_path, timings=args.timings)
    if args.json:
        emit(records, "json", args.json, timings=args.timings)
    failures = [r for r in records if r.error is not None]
    print(f"wrote {len(records)} records to {config.output_path}"
          + (f" ({len(failures)} error rows)" if failures else ""))
    return 2 if failures else 0


def _cmd_verify(args) -> int:
    if args.instances < 1:
        raise ConfigError("--instances must be at least 1")
    if not (math.isfinite(args.t) and args.t > 0):
        raise ConfigError(f"--t must be positive and finite, got {args.t}")
    reports = bound_chain_study(args.instances, t=args.t, seed_base=args.seed_base)
    payload = [r.as_dict() for r in reports]
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    bad = [r for r in reports if not r.chain_ok]
    print(f"{len(reports)} instances checked, {len(bad)} chain violations; report at {args.out}")
    return 2 if bad else 0


def _cmd_preset(args) -> int:
    constants = load_constants(args.constants) if args.constants else None
    params = theorem_preset(
        args.n1, args.n2, args.gamma, args.epsilon,
        constants=constants, delta=args.delta, strict=args.strict,
    )
    print(f"r_c = {params.r_c:.9g}")
    print(f"r_s = {params.r_s:.9g}")
    print(f"d = {params.d}")
    print(f"sigma = {params.sigma:.9g}")
    print(f"invariant_margin_floor = {params.invariant_margin_floor:.9g}")
    return 0


def _cmd_calibrate(args) -> int:
    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    try:
        sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok)
    except ValueError:
        raise ConfigError("--sizes: expected comma-separated integers") from None
    if not sizes:
        raise ConfigError("--sizes must name at least one size")
    base = load_constants(args.constants) if args.constants else load_constants()
    constants, log = calibrate_constants(base, seeds=args.seeds, sizes=sizes)
    for entry in log:
        print(
            "n_e=%d d=%d mean_margin=%.2f indictment=%.2f two_phase=%.2f"
            % (entry["n_e"], entry["d"], entry["mean_margin"], entry["indictment"],
               entry["two_phase"])
        )
    kappa = float(base["kappa"])
    interp = kappa_interpolation_rate(kappa, args.kappa_dmax, 800, 100,
                                      seeds=min(args.seeds, 20))
    print(f"kappa={kappa} mean-interpolation rate at d={args.kappa_dmax}: {interp:.2f}")
    if interp < 0.95:
        print("warning: noise rule misses the interpolation target; raise kappa down"
              " or d up", file=sys.stderr)
    save_constants(dict(constants), args.out)
    print(f"wrote constants to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "preset":
            return _cmd_preset(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TwoEnvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
