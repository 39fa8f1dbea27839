"""Golden outputs: the four commands at small sizes, pinned by SHA-256.

``golden.json`` holds each command's argv and input files, its exit code,
and the digest of its stdout and of every file it writes (an error sidecar
included), with the numpy and scipy versions that made them.
``test_golden.py`` reruns each command through ``cli.main`` and compares.

Run from the repository root:

    python tests/golden.py            # rerun every command and report mismatches
    python tests/golden.py sweep      # only the named commands
    python tests/golden.py --write    # regenerate golden.json, printing what moved

Regenerate only for a change that is meant to alter an output, and say
which output moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

GOLDEN = Path(__file__).with_name("golden.json")

_METHODS = ("erm,irmv1,vrex,groupdro,moment_match,two_phase,mean,max_margin,"
            "oracle_no_spurious")

# the sweep covers the draw's noise block at d - 2 < N and d - 2 >= N (N = 36)
# and its absence at d = 2, both GD products (d <= N and d > N), odd environment
# sizes, an anneal inside the run (so resumed GD prefixes) and max_margin error
# rows (at d = 2); the anneal iteration has no flag, so the settings come
# through --config
COMMANDS = {
    "sweep": {
        "argv": ["sweep", "--config", "sweep.cfg", "--d-grid", "2,8,40,400", "--seeds", "2",
                 "--n1", "25", "--n2", "11", "--methods", _METHODS, "--json", "sweep.json"],
        "inputs": {"sweep.cfg": "max_iters = 300\nanneal_schedule = 100\nout = sweep.csv\n"},
    },
    "verify": {"argv": ["verify", "--instances", "100", "--out", "report.json"]},
    "calibrate": {"argv": ["calibrate", "--sizes", "40", "--seeds", "3",
                           "--out", "constants.json"]},
    "preset": {"argv": ["preset", "--n1", "20", "--n2", "20", "--gamma", "0.0395",
                        "--epsilon", "0.1"]},
    "preset_strict": {"argv": ["preset", "--n1", "100", "--n2", "80", "--gamma", "0.015",
                               "--epsilon", "0.05", "--strict", "--delta", "0.05"]},
}


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(spec: dict, workdir: Path) -> dict:
    """Run one command in ``workdir`` (which must be empty) through ``cli.main``.

    Returns its exit code, the digest of its stdout, and the digest of each
    file it wrote, by name.
    """
    from twoenv import cli

    inputs = spec.get("inputs", {})
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # the argv names relative paths, and stdout echoes them
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(list(spec["argv"]))
    finally:
        os.chdir(cwd)
    files = {path.name: _sha256(path.read_bytes())
             for path in sorted(workdir.iterdir()) if path.name not in inputs}
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode()), "files": files}


def mismatches(name: str, golden: dict, got: dict) -> list[str]:
    """One line per output of command ``name`` whose result differs from ``golden``'s."""
    want = golden["commands"][name]
    lines = []
    if got["exit"] != want["exit"]:
        lines.append(f"{name}: exit code {got['exit']}, golden {want['exit']}")
    if got["stdout"] != want["stdout"]:
        lines.append(f"{name}: stdout digest {got['stdout']}, golden {want['stdout']}")
    for file in sorted(set(want["files"]) | set(got["files"])):
        have, expected = got["files"].get(file, "missing"), want["files"].get(file, "missing")
        if have != expected:
            lines.append(f"{name}: {file} digest {have}, golden {expected}")
    if lines and versions() != golden["versions"]:
        lines.append(f"versions differ: running {versions()}, golden made with "
                     f"{golden['versions']}")
    return lines


def report(old: dict, new: dict) -> list[str]:
    """What regenerating ``old`` as ``new`` moves: for each command of ``new``, a line
    if its argv or inputs changed, then its :func:`mismatches` lines, or one line
    saying it is unchanged."""
    lines = []
    for name, entry in new["commands"].items():
        if name not in old["commands"]:
            lines.append(f"{name}: new command")
            continue
        spec = [f"{name}: {key} {entry.get(key)}, golden {old['commands'][name].get(key)}"
                for key in ("argv", "inputs") if entry.get(key) != old["commands"][name].get(key)]
        lines += spec + mismatches(name, old, entry) or [f"{name}: unchanged"]
    return lines + [f"{name}: removed" for name in old["commands"] if name not in new["commands"]]


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def _main(argv: list[str]) -> int:
    write = "--write" in argv
    golden = None if write else load()
    names = list(COMMANDS) if write else argv or list(golden["commands"])
    results, problems = {}, []
    for name in names:
        spec = COMMANDS[name] if write else golden["commands"][name]
        with tempfile.TemporaryDirectory() as workdir:
            results[name] = run(spec, Path(workdir))
        if not write:
            problems += mismatches(name, golden, results[name])
    if write:
        commands = {name: {**COMMANDS[name], **results[name]} for name in COMMANDS}
        new = {"versions": versions(), "commands": commands}
        if GOLDEN.exists():
            print("\n".join(report(load(), new)))
        GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    print("\n".join(problems) or f"{len(names)} commands match {GOLDEN.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    # the checkout's package, ahead of any installed copy
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(_main(sys.argv[1:]))
