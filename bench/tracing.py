"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The tracer wraps public functions of the ``twoenv`` modules from outside:
nothing under ``src/`` changes.  ``from .model import pool`` binds ``pool``
separately in every importing module, so each traced function is replaced
at every module attribute that holds it, not only in its home module.
Spans (kind, start, end, parent, note) are kept in memory and written out
once, when the command has finished.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _sample_note(args, kwargs, out):
    return {"normals": int(out.X.size)}


def _copy_note(args, kwargs, out):
    # pool and restrict return a dataset, signed returns the matrix itself
    return {"bytes": int(getattr(out, "X", out).nbytes)}


def _gd_note(args, kwargs, out):
    data = args[0] if args else kwargs["data"]
    model, trace = out
    it = int(model.meta["iters"])
    # a pass that stops on convergence or a stall takes no step; a capped
    # run steps on every one of its max_iters passes
    steps = it if trace.converged else it + 1
    return {"steps": steps, "wide": data.d > 2 * data.n, "cap": not trace.converged}


def _hm_note(args, kwargs, out):
    return {"iters": int(out[1]["iterations"])}


def _mwb_note(args, kwargs, out):
    return {"iters": int(out.iterations), "exact": bool(out.exact)}


def _chain_note(args, kwargs, out):
    requested = args[0] if args else kwargs["instances"]
    return {"requested": int(requested), "returned": len(out)}


# (home module, attribute, span kind, note).  A kind groups spans into one
# per-layer metric; the note records the work a call did, read from its
# arguments and result.
TRACED = (
    ("twoenv.model", "sample_environment", "model.sample", _sample_note),
    ("twoenv.model", "sample_orthogonal_means", "model.means", None),
    ("twoenv.model", "pool", "model.copy", _copy_note),
    ("twoenv.model", "LabeledDataset.signed", "model.copy", _copy_note),
    ("twoenv.model", "LabeledDataset.restrict", "model.copy", _copy_note),
    ("twoenv.training", "gd_train", "training.gd", _gd_note),
    ("twoenv.training", "hard_margin_dual", "training.hm", _hm_note),
    ("twoenv.duality", "min_weighted_beta", "duality.mwb", _mwb_note),
    ("twoenv.duality", "check_spectral_events", "duality.events", None),
    ("twoenv.duality", "gram_from_dataset", "duality.gram", None),
    ("twoenv.estimators", "two_phase_learn", "estimators.two_phase", None),
    ("twoenv.estimators", "mean_estimator", "estimators.mean", None),
    ("twoenv.estimators", "per_env_mean", "estimators.mean", None),
    ("twoenv.metrics", "error_at_theta", "metrics", None),
    ("twoenv.metrics", "robust_error", "metrics", None),
    ("twoenv.metrics", "normalized_margin", "metrics", None),
    ("twoenv.metrics", "spurious_core_ratio", "metrics", None),
    ("twoenv.metrics", "invariance_gaps", "metrics", None),
    ("twoenv.experiments", "run_cell", "experiments.cell", None),
    ("twoenv.experiments", "emit", "experiments.emit", None),
    ("twoenv.calibrate", "bound_chain_study", "calibrate.chain", _chain_note),
)

# Called thousands of times per GD run: counted only, never timed, so the
# trace does not inflate the loop it measures.
COUNTED = (("twoenv.training", "penalty_value_and_slope", "training.gd_evals"),)


def _resolve(module_name: str, dotted: str):
    owner = sys.modules[module_name]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans around calls into the twoenv layers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _timed(self, kind, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [kind, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, kind, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every traced function at each module attribute that binds it."""
        wrappers = {}

        def replace(module_name, dotted, make_wrapper):
            owner, attr = _resolve(module_name, dotted)
            fn = getattr(owner, attr)
            wrappers[id(fn)] = make_wrapper(fn)
            setattr(owner, attr, wrappers[id(fn)])

        for module_name, dotted, kind, note in TRACED:
            replace(module_name, dotted, lambda fn: self._timed(kind, fn, note))
        for module_name, dotted, kind in COUNTED:
            replace(module_name, dotted, lambda fn: self._counted(kind, fn))
        for name, module in list(sys.modules.items()):
            if name != "twoenv" and not name.startswith("twoenv."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [span[2] - span[1] - cover for span, cover in zip(spans, covered)]


def layer_metrics(spans: list, counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from one traced command.

    Every ``*_s`` value is self time (see :func:`self_times`), except
    ``experiments.cell_s``, which is the whole cell; ``experiments.cell_self_s``
    is the cell's own part.  A ratio whose base is zero reads 0.
    """
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    notes: dict[str, Counter] = defaultdict(Counter)
    gd_split = {True: [0.0, 0], False: [0.0, 0]}
    for (kind, start, end, _, note), own in zip(spans, self_times(spans)):
        self_s[kind] += own
        total_s[kind] += end - start
        calls[kind] += 1
        if note:
            notes[kind].update({k: int(v) for k, v in note.items()})
            if kind == "training.gd":
                gd_split[note["wide"]][0] += own
                gd_split[note["wide"]][1] += note["steps"]

    normals = notes["model.sample"]["normals"]
    gd_steps = notes["training.gd"]["steps"]
    hm_iters = notes["training.hm"]["iters"]
    gd_calls = calls["training.gd"]
    (narrow_s, narrow_steps), (wide_s, wide_steps) = gd_split[False], gd_split[True]
    chain = notes["calibrate.chain"]
    attempts = calls["duality.events"]  # each chain attempt checks the events once
    return {
        "model.sample_s": (self_s["model.sample"], "s"),
        "model.sample_calls": (calls["model.sample"], "count"),
        "model.normals_computed": (normals, "count"),
        "model.sample_ns_per_normal": (_ratio(self_s["model.sample"] * 1e9, normals), "ns"),
        "model.means_s": (self_s["model.means"], "s"),
        "model.copy_s": (self_s["model.copy"], "s"),
        "model.copy_bytes_computed": (notes["model.copy"]["bytes"], "B"),
        "training.gd_s": (self_s["training.gd"], "s"),
        "training.gd_calls": (gd_calls, "count"),
        "training.gd_iters": (gd_steps, "count"),
        "training.gd_ms_per_iter.narrow": (_ratio(narrow_s * 1e3, narrow_steps), "ms"),
        "training.gd_ms_per_iter.wide": (_ratio(wide_s * 1e3, wide_steps), "ms"),
        "training.gd_evals_per_iter": (_ratio(counts.get("training.gd_evals", 0), gd_steps),
                                       "ratio"),
        "training.gd_cap_frac": (_ratio(notes["training.gd"]["cap"], gd_calls), "frac"),
        "training.hm_s": (self_s["training.hm"], "s"),
        "training.hm_calls": (calls["training.hm"], "count"),
        "training.hm_iters": (hm_iters, "count"),
        "training.hm_ms_per_iter": (_ratio(self_s["training.hm"] * 1e3, hm_iters), "ms"),
        "duality.mwb_s": (self_s["duality.mwb"], "s"),
        "duality.mwb_calls": (calls["duality.mwb"], "count"),
        "duality.mwb_iters": (notes["duality.mwb"]["iters"], "count"),
        "duality.mwb_exact_frac": (_ratio(notes["duality.mwb"]["exact"], calls["duality.mwb"]),
                                   "frac"),
        "duality.events_s": (self_s["duality.events"], "s"),
        "duality.gram_s": (self_s["duality.gram"], "s"),
        "estimators.two_phase_s": (self_s["estimators.two_phase"], "s"),
        "estimators.mean_s": (self_s["estimators.mean"], "s"),
        "metrics.s": (self_s["metrics"], "s"),
        "metrics.calls": (calls["metrics"], "count"),
        "experiments.cell_s": (total_s["experiments.cell"], "s"),
        "experiments.cell_self_s": (self_s["experiments.cell"], "s"),
        "experiments.emit_s": (self_s["experiments.emit"], "s"),
        "calibrate.chain_attempts": (attempts, "count"),
        "calibrate.chain_attempts_per_report": (_ratio(attempts, chain["returned"]), "ratio"),
        "calibrate.chain_shortfall": (chain["requested"] - chain["returned"], "count"),
    }
