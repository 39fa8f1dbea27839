"""The four commands reproduce the digests pinned in ``golden.json``.

Any change to a byte a command writes fails here, naming the command, the
file and both digests; ``python tests/golden.py --write`` regenerates the
file for a change meant to alter an output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden

GOLDEN = golden.load()


def test_golden_file_pins_every_command():
    assert list(GOLDEN["commands"]) == list(golden.COMMANDS)
    for name, spec in golden.COMMANDS.items():
        entry = GOLDEN["commands"][name]
        assert entry["argv"] == spec["argv"] and entry.get("inputs") == spec.get("inputs")


@pytest.mark.parametrize("name", list(GOLDEN["commands"]))
def test_command_output_matches_golden(tmp_path, name):
    problems = golden.mismatches(name, GOLDEN, golden.run(GOLDEN["commands"][name], tmp_path))
    assert not problems, "\n".join(problems)


def test_sweep_matches_golden_in_a_fresh_process_with_two_blas_threads(tmp_path):
    # a fresh interpreter, whose BLAS runs two threads: the bytes depend on neither
    script = Path(golden.__file__)
    code = ("import json, sys; from pathlib import Path; "
            f"sys.path.insert(0, {str(script.parent)!r}); import golden; "
            "print(json.dumps(golden.run(golden.load()['commands']['sweep'], Path.cwd())))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": str(script.parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, cwd=tmp_path).stdout
    problems = golden.mismatches("sweep", GOLDEN, json.loads(out))
    assert not problems, "\n".join(problems)


def test_a_mismatch_names_the_command_the_file_both_digests_and_the_versions():
    want = GOLDEN["commands"]["verify"]
    got = {**want, "files": {"report.json": "0" * 64}}
    other = {**GOLDEN, "versions": {"numpy": "0.0", "scipy": "0.0"}}
    assert golden.mismatches("verify", other, got) == [
        f"verify: report.json digest {'0' * 64}, golden {want['files']['report.json']}",
        f"versions differ: running {golden.versions()}, golden made with "
        "{'numpy': '0.0', 'scipy': '0.0'}",
    ]
    assert golden.mismatches("verify", GOLDEN, want) == []


def test_write_reports_each_command_that_moved_and_each_that_did_not():
    old = {**GOLDEN, "versions": golden.versions()}  # no line for a version change
    new = json.loads(json.dumps(old))  # a deep copy
    sweep = new["commands"]["sweep"]
    sweep["argv"] = sweep["argv"] + ["--extra"]
    sweep["files"] = {**sweep["files"], "sweep.csv": "1" * 64}
    del new["commands"]["preset_strict"]
    new["commands"]["other"] = {"argv": ["other"], "exit": 0, "stdout": "2" * 64, "files": {}}
    old_sweep = GOLDEN["commands"]["sweep"]
    assert golden.report(old, new) == [
        f"sweep: argv {sweep['argv']}, golden {old_sweep['argv']}",
        f"sweep: sweep.csv digest {'1' * 64}, golden {old_sweep['files']['sweep.csv']}",
        "verify: unchanged", "calibrate: unchanged", "preset: unchanged",
        "other: new command", "preset_strict: removed"]
    assert golden.report(old, old) == [f"{name}: unchanged" for name in old["commands"]]
