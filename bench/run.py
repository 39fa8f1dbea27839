#!/usr/bin/env python3
"""twoenv benchmark: real CLI commands in fresh processes, checked and timed.

    python3 bench/run.py --workload {sweep,calibrate,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from ``src/``.
Each command is a fresh single-process interpreter (``TWOENV_WORKERS=1``,
every BLAS thread pool pinned to one thread) and commands run one at a
time: a closed loop with one client.  With ``--trace 0`` the workload's
command repeats until the next one would end after S seconds (at least
once) and the end-to-end metrics are medians over the commands.  With
``--trace 1`` the workload's first command runs once untraced and once
traced, and the per-layer metrics come from the traced one.  Every output
is checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A results
file with the run record goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

from tracing import layer_metrics, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = ROOT / ".bench_out"
DIGESTS = OUT / "digests.json"

PINNED = {
    "TWOENV_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPS = 5  # at least this many timed set-ups per run
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within 180 s

# sweep: the acceptance sweep's C06/C07 configuration, one seed per d.
SWEEP_D_GRID = (20, 320, 5120, 24576)
SWEEP_METHODS = ("erm", "irmv1", "vrex", "two_phase", "oracle_no_spurious")
SWEEP_SEEDS = 1
# the CSV header contract, held here so that a changed header fails the check
CSV_HEADER = "method,d,seed,train_acc,robust_acc,margin,ratio,eopp_gap,interpolating,wall_ms"

# calibrate: the C02-C04 desk preset plus the kappa check; no seed input.
CALIBRATE_SEEDS = 3
CALIBRATE_TARGETS = {"mean_margin": 0.95, "indictment": 0.90, "two_phase": 0.95,
                     "kappa_interpolation": 0.95}
RATE_LINE = re.compile(
    r"^n_e=\d+ d=\d+ mean_margin=(\S+) indictment=(\S+) two_phase=(\S+)$", re.M)
KAPPA_LINE = re.compile(r"mean-interpolation rate at d=\d+: (\S+)$", re.M)

# verify: the bound-chain study; tolerances are bound_chain_study's defaults.
VERIFY_INSTANCES = 1000
VERIFY_DUAL_TOL = 1e-6
VERIFY_CLOSED_FORM_TOL = 1e-9


def sweep_args(seed: int, rep: int) -> list[str]:
    # every repeat runs the same cells, so repeats double as a determinism check
    return ["sweep", "--d-grid", ",".join(map(str, SWEEP_D_GRID)), "--n1", "800",
            "--n2", "100", "--methods", ",".join(SWEEP_METHODS), "--max-iters", "3000",
            "--penalty-weight", "100", "--seed-base", str(seed),
            "--seeds", str(SWEEP_SEEDS), "--out", "sweep.csv"]


def calibrate_args(seed: int, rep: int) -> list[str]:
    # the rate functions iterate range(seeds): the benchmark seed cannot reach them
    return ["calibrate", "--sizes", "40", "--seeds", str(CALIBRATE_SEEDS),
            "--out", "constants.json"]


def verify_args(seed: int, rep: int) -> list[str]:
    # one instance consumes at most 51 seeds, so the ranges never overlap
    base = seed * 10**7 + rep * 10**5
    return ["verify", "--instances", str(VERIFY_INSTANCES), "--seed-base", str(base),
            "--out", "report.json"]


def _flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def check_sweep(argv, workdir: Path, res: dict):
    """One operation per (method, d, seed) record."""
    seed = _flag(argv, "--seed-base")
    expected = {(m, d, seed + rep) for m in SWEEP_METHODS for d in SWEEP_D_GRID
                for rep in range(SWEEP_SEEDS)}
    csv = workdir / "sweep.csv"
    if res["exit"] not in (0, 2) or not csv.is_file():
        return len(expected), len(expected), [], b""
    text = csv.read_bytes()
    lines = text.decode().splitlines()
    problems = [] if lines and lines[0] == CSV_HEADER else ["header differs from CSV_HEADER"]
    seen, errors = set(), 0
    for line in lines[1:]:
        fields = line.split(",")
        try:
            key = (fields[0], int(fields[1]), int(fields[2]))
            values = [float(x) for x in fields[3:8]]
            wall = float(fields[9])
        except (IndexError, ValueError):
            problems.append(f"unparsable row {line!r}")
            continue
        if key in seen or key not in expected or len(fields) != 10:
            problems.append(f"unexpected or repeated row {line!r}")
            continue
        seen.add(key)
        if all(math.isnan(v) for v in values):
            errors += 1
        elif not (all(math.isfinite(v) for v in values)
                  and 0.0 <= values[0] <= 1.0 and 0.0 <= values[1] <= 1.0
                  and fields[8] in ("true", "false") and wall == 0.0):
            problems.append(f"bad values in row {line!r}")
    if (res["exit"] == 2) != (errors > 0):
        problems.append(f"exit code {res['exit']} disagrees with {errors} error rows")
    sidecar = workdir / "sweep.csv.errors.txt"
    output = text + (sidecar.read_bytes() if sidecar.is_file() else b"")
    return len(expected), errors + len(expected - seen), problems, output


def check_verify(argv, workdir: Path, res: dict):
    """One operation per requested instance; dropped instances count as failed."""
    requested = _flag(argv, "--instances")
    report = workdir / "report.json"
    if res["exit"] not in (0, 2) or not report.is_file():
        return requested, requested, [], b""
    text = report.read_bytes()
    try:
        entries = json.loads(text)
        bounds = [(e["dual_canonical"] <= e["primal"] + VERIFY_DUAL_TOL,
                   e["closed_form"] <= e["dual_canonical"] + VERIFY_CLOSED_FORM_TOL,
                   e["weak_duality_ok"], e["closed_form_ok"], e["verdict"])
                  for e in entries]
    except (ValueError, KeyError, TypeError):
        return requested, requested, ["malformed verify report"], text
    problems, violated = [], 0
    for weak, closed, weak_ok, closed_ok, verdict in bounds:
        if (weak, closed) != (weak_ok, closed_ok) or (verdict == "ok") != (weak and closed):
            problems.append("a verdict disagrees with the bounds it reports")
        violated += verdict != "ok"
    if len(entries) > requested:
        problems.append(f"{len(entries)} instances reported, {requested} requested")
    if (res["exit"] == 2) != (violated > 0):
        problems.append(f"exit code {res['exit']} disagrees with {violated} violations")
    return requested, max(requested - len(entries), 0) + violated, problems, text


def check_calibrate(argv, workdir: Path, res: dict):
    """One operation per printed rate, measured against its target."""
    attempted = len(CALIBRATE_TARGETS)
    if res["exit"] != 0:
        return attempted, attempted, [], b""
    out = res["stdout"]
    rates, kappa = RATE_LINE.search(out), KAPPA_LINE.search(out)
    constants = workdir / "constants.json"
    try:
        json.loads(constants.read_text())
        values = [float(x) for x in rates.groups()] + [float(kappa.group(1))]
    except (OSError, ValueError, AttributeError):
        return attempted, attempted, ["calibrate output incomplete"], out.encode()
    problems = [] if all(0.0 <= v <= 1.0 for v in values) else ["rate outside [0, 1]"]
    failed = sum(v < target for v, target in zip(values, CALIBRATE_TARGETS.values()))
    return attempted, failed, problems, out.encode() + constants.read_bytes()


WORKLOADS = {
    "sweep": (sweep_args, check_sweep),
    "calibrate": (calibrate_args, check_calibrate),
    "verify": (verify_args, check_verify),
}


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _git(*args: str):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "twoenv").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_record() -> dict:
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in PINNED},
    }


def _steal_ticks():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])  # cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def time_setup(workdir: Path) -> float:
    """Interpreter start to twoenv.cli imported and constants loaded."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), "--setup-only"], cwd=workdir,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
    return elapsed


def run_command(argv: list[str], workdir: Path, trace: bool, timeout: float) -> dict:
    """Run one CLI command in a fresh interpreter; returns its measurements."""
    workdir.mkdir()
    result_path = workdir.with_suffix(".json")
    cmd = [sys.executable, str(CHILD), str(result_path)] + (["--trace"] if trace else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--"] + argv, cwd=workdir, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:
        stdout, stderr, code = "", "timed out", None
    elapsed = time.perf_counter() - start
    if result_path.is_file():
        res = json.loads(result_path.read_text())
    else:
        # the child died before reporting: fall back to what the parent saw
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        res = {"exit": code, "wall_s": elapsed,
               "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
               "peak_rss_mb": after.ru_maxrss / 1024.0}
    res.update(argv=argv, stdout=stdout, stderr=stderr[-2000:], elapsed_s=elapsed)
    return res


def check(workload: str, res: dict, workdir: Path, digests: dict, src: str) -> dict:
    """Check one command's output; equal commands on equal code must agree byte for byte."""
    attempted, failed, problems, output = WORKLOADS[workload][1](res["argv"], workdir, res)
    if output:
        key = src + " " + " ".join(res["argv"])
        digest = hashlib.sha256(output).hexdigest()
        if digests.setdefault(key, digest) != digest:
            problems.append("output differs from an earlier run of the same command")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "twoenv" / "cli.py").is_file():
        print(f"error: no twoenv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    os.environ.update(PINNED)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    make_args = WORKLOADS[args.workload][0]
    record = run_record()
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    load_start, steal_start = os.getloadavg(), _steal_ticks()
    commands, setups = [], []
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp:
        tmp = Path(tmp)
        time_setup(tmp)  # warm-up: byte-compiles the sources and fills the file cache
        if args.trace:
            for traced in (False, True):
                workdir = tmp / f"cmd{len(commands)}"
                res = run_command(make_args(args.seed, 0), workdir, traced,
                                  deadline - time.monotonic())
                res.update(check(args.workload, res, workdir, digests, record["src_sha256"]))
                commands.append(res)
        else:
            # set-ups are spread over the run, so that their median spans
            # the same stretch of machine time as the commands
            start = time.monotonic()
            setups = [time_setup(tmp), time_setup(tmp)]
            while True:
                workdir = tmp / f"cmd{len(commands)}"
                res = run_command(make_args(args.seed, len(commands)), workdir, False,
                                  deadline - time.monotonic())
                res.update(check(args.workload, res, workdir, digests, record["src_sha256"]))
                commands.append(res)
                setups.append(time_setup(tmp))
                typical = statistics.median([c["elapsed_s"] for c in commands])
                if (time.monotonic() - start + typical > args.seconds
                        or time.monotonic() + max(c["elapsed_s"] for c in commands) > deadline):
                    break
            while len(setups) < SETUP_REPS:
                setups.append(time_setup(tmp))
    steal_end = _steal_ticks()

    attempted = sum(c["attempted"] for c in commands)
    failed = sum(c["failed"] for c in commands)
    problems = [p for c in commands for p in c["problems"]]
    if args.trace:
        plain, traced = commands
        spans = traced.get("spans", [])
        values = layer_metrics(spans, traced.get("counts", {}))
        values["setup.import_s"] = (traced.get("import_s", 0.0), "s")
        values["trace.wall_s"] = (traced["wall_s"], "s")
        values["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        values["trace.spans"] = (len(spans), "count")
    else:
        values = {
            "wall_s": (statistics.median([c["wall_s"] for c in commands]), "s"),
            "cpu_s": (statistics.median([c["cpu_s"] for c in commands]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median([c["peak_rss_mb"] for c in commands]), "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    tmp_digests = DIGESTS.with_suffix(".tmp")
    tmp_digests.write_text(json.dumps(digests, indent=1, sort_keys=True))
    tmp_digests.replace(DIGESTS)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    base = f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}"
    results_path = OUT / "results" / f"{base}.json"
    if args.trace:
        (OUT / "results" / f"{base}.spans.json").write_text(json.dumps({
            "fields": ["kind", "start", "end", "parent", "self_s", "note"],
            "spans": [span[:4] + [own, span[4]] for span, own in zip(spans, self_times(spans))],
        }) + "\n")
    tick = os.sysconf("SC_CLK_TCK")
    results_path.write_text(json.dumps({
        "record": record,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "contention": {
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "steal_s": None if None in (steal_start, steal_end)
            else (steal_end - steal_start) / tick,
        },
        "setup_s": setups,
        "commands": [{k: v for k, v in c.items() if k not in ("spans", "stdout")}
                     for c in commands],
        "problems": problems,
        **result,
    }, indent=1) + "\n")

    for problem in problems:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
