"""The names the benchmark tracer reaches into must exist in the package.

``bench/tracing.py`` wraps ``twoenv`` functions by module and attribute
name and reads fields of their results, so renaming or deleting one of
them breaks ``bench/run.py --trace 1`` without failing any import.  This
loads the tracer from its path, unchanged, and checks its tables and the
GD note against the package.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from twoenv import stream
from twoenv.training import TrainConfig, gd_train

from helpers import random_dataset

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves(tracing):
    entries = [(mod, dotted) for mod, dotted, _, _ in tracing.TRACED]
    entries += [(mod, dotted) for mod, dotted, _ in tracing.COUNTED]
    for module_name, dotted in entries:
        importlib.import_module(module_name)
        owner, attr = tracing._resolve(module_name, dotted)
        assert callable(getattr(owner, attr)), f"{module_name}.{dotted}"


@pytest.mark.parametrize("max_iters, converged", [(5, False), (3000, True)])
def test_gd_note_reads_a_gd_result(tracing, max_iters, converged):
    data = random_dataset(stream(89), n=30, d=2)  # non-separable: converges
    out = gd_train(data, TrainConfig(tolerance=1e-6, max_iters=max_iters))
    note = tracing._gd_note((data, None), {}, out)
    model, trace = out
    assert trace.converged is converged
    assert note["cap"] is not converged
    assert note["steps"] == model.meta["iters"] + (0 if converged else 1)


def test_gd_note_reads_a_resumed_run(tracing):
    # a run that resumes from a stored pre-anneal iterate still reports its
    # iterations from zero, so the note counts the steps of a full run
    data = random_dataset(stream(89), n=12, d=30)
    cfg = TrainConfig(penalty_kind="vrex", penalty_weight=1.0, anneal_schedule=100,
                      max_iters=300)
    gd_train(data, replace(cfg, penalty_kind="none"))
    out = gd_train(data, cfg)
    note = tracing._gd_note((data, cfg), {}, out)
    model, trace = out
    assert len(data.gd_prefixes) == 1 and not trace.converged
    assert note["cap"] is True
    assert note["steps"] == model.meta["iters"] + 1 == cfg.max_iters
