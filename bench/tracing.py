"""In-memory span tracing of the wail package, installed from outside it.

`Tracer` wraps every public function of every `wail.*` module, plus the
methods named in `METHODS`, and records one span per call: the qualified
name (`module.function`), start and end in perf_counter nanoseconds, the
enclosing span and the cell id current at the call.  Wrapping rebinds every
module attribute that *is* an original function, so names imported with
`from .mdp import ...` are traced as well as `module.attr` calls.  Leaving
the `with` block restores every original.

`layer_metrics` turns the spans of a run into the per-layer figures.  A
metric whose functions no longer exist is reported as absent, not as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types
from array import array

import numpy as np

# Methods traced on their class; plain functions are found by scanning.
METHODS = (("ot", "GroundMetric", "restrict"),)


def _step_accepted(args, kwargs, result):
    policy = kwargs["policy"] if "policy" in kwargs else args[1]
    return float(result is not policy)


def _metric_bytes(args, kwargs, result):
    return float(result.dist.nbytes)


def _count(args, kwargs, result):
    return float(len(result))


# Per-call values a metric needs beyond timing, keyed by traced name.
NOTES = {
    "trust_region.kl_constrained_step": _step_accepted,
    "ot.build_ground_metric": _metric_bytes,
    "mdp.sample_trajectories": _count,
}


def wail_modules() -> list:
    """The wail package and every submodule, imported."""
    pkg = importlib.import_module("wail")
    return [pkg] + [importlib.import_module(f"wail.{info.name}")
                    for info in pkgutil.iter_modules(pkg.__path__)]


class Spans:
    """Span columns; a span's id is its position.  Flat integer arrays keep
    a long run from filling the heap with objects the garbage collector
    would have to walk."""

    FIELDS = ("cell", "parent", "name", "start_ns", "end_ns", "child_ns")

    def __init__(self):
        for f in self.FIELDS:
            setattr(self, f, array("q"))
        self.notes: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self.start_ns)

    def duration(self, sid: int) -> int:
        return self.end_ns[sid] - self.start_ns[sid]

    def to_json(self) -> dict:
        return {f: getattr(self, f).tolist() for f in self.FIELDS} | {"notes": self.notes}


class Tracer:
    """Context manager that traces calls into the wail package.

    `methods` lists (module, class, method) triples to trace in addition to
    the public module functions; a triple that does not resolve is recorded
    in `missing` and skipped."""

    def __init__(self, methods=METHODS):
        self.methods = tuple(methods)
        self.names: list[str] = []
        self.spans = Spans()
        self.cell = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = wail_modules()
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for short, cls_name, meth in self.methods:
            mod = next((m for m in modules if m.__name__.rsplit(".", 1)[-1] == short), None)
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            qname = f"{short}.{cls_name}.{meth}"
            if isinstance(fn, types.FunctionType):
                self._patch(cls, meth, self._wrap(fn, qname))
            else:
                self.missing.add(qname)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, qname: str):
        idx = len(self.names)
        self.names.append(qname)
        note = NOTES.get(qname)
        sp, stack, clock = self.spans, self._stack, time.perf_counter_ns
        cells, parents, names, starts, ends, child = (
            sp.cell, sp.parent, sp.name, sp.start_ns, sp.end_ns, sp.child_ns)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            parent = stack[-1] if stack else -1
            cells.append(self.cell)
            parents.append(parent)
            names.append(idx)
            ends.append(0)
            child.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[sid] = end
                stack.pop()
                if parent >= 0:
                    child[parent] += end - starts[sid]
            if note is not None:
                sp.notes[sid] = note(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write the traced names and the span columns as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names} | self.spans.to_json(), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics.  Each entry: (unit, kind, traced names, base).
#   kind  total: inclusive time of the outermost spans in the name set
#         self:  span time minus the time covered by its child spans
#         calls: number of spans
#         note:  sum of the per-call note
#         p50 / p99: percentile of single span durations
#   base  the divisor: rounds, wail_rounds, gail_rounds, cells, or calls
LAYER_METRICS = {
    "mdp.occupancy_ms_per_round": ("ms", "total", ("mdp.occupancy_from_policy",), "rounds"),
    "mdp.occupancy_calls_per_round": ("count", "calls", ("mdp.occupancy_from_policy",), "rounds"),
    "mdp.sample_ms_per_round": ("ms", "total", ("mdp.sample_trajectories",), "rounds"),
    "mdp.trajectories_per_round": ("count", "note", ("mdp.sample_trajectories",), "rounds"),
    "mdp.soft_vi_ms": ("ms", "total", ("mdp.soft_value_iteration",), "cells"),
    "envs.build_ms": ("ms", "total", ("envs.build_environment",), "cells"),
    "envs.expert_ms": ("ms", "self", ("envs.make_expert", "envs.rollout_fixed"), "cells"),
    "envs.reference_ms": ("ms", "total", ("envs.reference_returns",), "cells"),
    "envs.evaluate_ms": ("ms", "total", ("envs.evaluate",), "cells"),
    "ot.ground_metric_ms": ("ms", "total", ("ot.build_ground_metric",), "calls"),
    "ot.ground_metric_mb": ("MB", "note", ("ot.build_ground_metric",), "calls"),
    "ot.fit_ms_per_round": ("ms", "total", ("ot.reg_ot_fit",), "wail_rounds"),
    "ot.restrict_ms_per_round": ("ms", "total", ("ot.GroundMetric.restrict",), "wail_rounds"),
    "rewards.ms_per_round": ("ms", "total", ("rewards.support_values", "rewards.reward_matrix",
                                             "rewards.clone_frozen"), "rounds"),
    "trust_region.pg_ms_per_round": ("ms", "total", ("trust_region.entropy_reg_policy_gradient",),
                                     "rounds"),
    "trust_region.step_ms_per_round": ("ms", "self", ("trust_region.kl_constrained_step",),
                                       "rounds"),
    "trust_region.kl_evals_per_round": ("count", "calls", ("trust_region.weighted_kl",), "rounds"),
    "trust_region.step_accept_ratio": ("ratio", "note", ("trust_region.kl_constrained_step",),
                                       "rounds"),
    "training.round_ms.p50": ("ms", "p50", ("training.wail_iteration",), "calls"),
    "training.round_ms.p99": ("ms", "p99", ("training.wail_iteration",), "calls"),
    "training.loop_self_ms_per_round": ("ms", "self", ("training.train_wail",), "wail_rounds"),
    "baselines.disc_ms_per_round": ("ms", "total", ("baselines.gail_discriminator_step",
                                                    "baselines.gail_objective",
                                                    "baselines.gail_reward_matrix"),
                                    "gail_rounds"),
    "baselines.loop_self_ms_per_round": ("ms", "self", ("baselines.train_gail",), "gail_rounds"),
    "experiments.cell_self_ms": ("ms", "self", ("experiments.run_single",), "cells"),
}

_NOTE_SCALE = {"MB": 1e-6}


def _outermost(spans: Spans, ids: set[int]) -> list[int]:
    """Spans in the name set that have no ancestor in the set, so nested
    calls within one set are not counted twice."""
    inside = bytearray(len(spans))
    out = []
    for sid, (parent, name) in enumerate(zip(spans.parent, spans.name)):
        if parent >= 0 and (spans.name[parent] in ids or inside[parent]):
            inside[sid] = 1
        elif name in ids:
            out.append(sid)
    return out


def layer_metrics(spans: Spans, names, bases: dict, specs=LAYER_METRICS) -> tuple[dict, list]:
    """Per-layer values from recorded spans.

    `names` maps a span's name index to its qualified name; `bases` holds
    the round and cell counts.  Returns ({metric: (value, unit)}, absent)
    where `absent` lists metrics whose traced names do not exist."""
    index = {n: i for i, n in enumerate(names)}
    by_name: dict[int, list[int]] = {}
    for sid, name in enumerate(spans.name):
        by_name.setdefault(name, []).append(sid)
    values, absent = {}, []
    for metric, (unit, kind, fns, base) in specs.items():
        if any(f not in index for f in fns):
            absent.append(metric)
            continue
        ids = {index[f] for f in fns}
        sel = sorted(s for i in ids for s in by_name.get(i, []))
        if kind == "total":
            sel = _outermost(spans, ids) if len(ids) > 1 else sel
            amount = sum(spans.duration(s) for s in sel) * 1e-6
        elif kind == "self":
            amount = sum(spans.duration(s) - spans.child_ns[s] for s in sel) * 1e-6
        elif kind == "calls":
            amount = float(len(sel))
        elif kind == "note":
            amount = sum(spans.notes[s] for s in sel) * _NOTE_SCALE.get(unit, 1.0)
        elif kind in ("p50", "p99"):
            durations = [spans.duration(s) * 1e-6 for s in sel]
            values[metric] = (float(np.percentile(durations, int(kind[1:]))) if sel else 0.0, unit)
            continue
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        denom = len(sel) if base == "calls" else bases[base]
        values[metric] = (amount / denom if denom else 0.0, unit)
    return values, absent
