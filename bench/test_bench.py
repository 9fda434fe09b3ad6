"""Tests of the benchmark's tracing: counts repeat, results are unchanged
by wrapping, and names that no longer exist are tolerated."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
import wail  # noqa: E402
import worker  # noqa: E402

COUNTS = ("mdp.occupancy_calls_per_round", "mdp.trajectories_per_round",
          "trust_region.kl_evals_per_round", "trust_region.step_accept_ratio")


def short_cell(workload: str, k_max: int):
    return dataclasses.replace(worker.cell_config(workload, 7, 0), k_max=k_max)


def traced_cell(cfg):
    with tracing.Tracer() as tracer:
        tracer.cell = 0
        _, art = wail.run_single(cfg)
    rounds = art["log"].meta["iterations_run"]
    values, absent = tracing.layer_metrics(
        tracer.spans, tracer.names,
        {"rounds": rounds, "wail_rounds": rounds, "gail_rounds": 0, "cells": 1})
    return art["policy"].logits, values, absent


@pytest.mark.parametrize("workload,k_max", [("desk-exact", 20), ("desk-sampled", 4)])
def test_traced_counts_repeat(workload, k_max):
    _, first, absent = traced_cell(short_cell(workload, k_max))
    _, second, _ = traced_cell(short_cell(workload, k_max))
    assert absent == []
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["mdp.occupancy_calls_per_round"][0] >= 2.0
    if workload == "desk-sampled":
        assert first["mdp.trajectories_per_round"][0] > 0


def test_wrapping_leaves_result_bit_identical():
    cfg = short_cell("desk-exact", 20)
    original = wail.mdp.occupancy_from_policy
    _, art = wail.run_single(cfg)
    logits, _, _ = traced_cell(cfg)
    assert logits.tobytes() == art["policy"].logits.tobytes()
    assert wail.mdp.occupancy_from_policy is original
    assert wail.trust_region.occupancy_from_policy is original
    assert "restrict" in vars(wail.ot.GroundMetric)
    assert not hasattr(wail.ot.GroundMetric.restrict, "__wrapped__")


def test_every_call_is_seen_through_name_imports():
    mdp = wail.make_gridworld(3)
    policy = wail.SoftmaxPolicy.uniform(mdp.n_states, mdp.n_actions)
    with tracing.Tracer() as tracer:
        wail.trust_region.weighted_kl(mdp, policy, policy)   # calls mdp's function by name
    called = [tracer.names[i] for i in tracer.spans.name]
    assert called[:2] == ["trust_region.weighted_kl", "mdp.occupancy_from_policy"]


def test_missing_names_are_absent_not_fatal():
    methods = tracing.METHODS + (("ot", "GroundMetric", "no_such_method"),
                                 ("no_such_module", "Cls", "meth"))
    specs = dict(tracing.LAYER_METRICS, **{"mdp.gone_ms": ("ms", "total", ("mdp.gone",), "rounds")})
    with tracing.Tracer(methods=methods) as tracer:
        wail.run_single(short_cell("desk-exact", 2))
    assert tracer.missing == {"ot.GroundMetric.no_such_method", "no_such_module.Cls.meth"}
    values, absent = tracing.layer_metrics(tracer.spans, tracer.names,
                                           {"rounds": 2, "wail_rounds": 2, "gail_rounds": 0,
                                            "cells": 1}, specs)
    assert absent == ["mdp.gone_ms"]
    assert "ot.restrict_ms_per_round" in values


def test_self_time_and_nested_totals():
    spans = tracing.Spans()
    # outer 0..100 holds a 10..30 and b 40..50; b nests another b 42..48
    for parent, name, start, end in [(-1, 0, 0, 100), (0, 1, 10, 30), (0, 2, 40, 50),
                                     (2, 2, 42, 48)]:
        for col, v in zip(tracing.Spans.FIELDS, (0, parent, name, start, end, 0)):
            getattr(spans, col).append(v)
        if parent >= 0:
            spans.child_ns[parent] += end - start
    specs = {"outer_self": ("ms", "self", ("outer",), "cells"),
             "ab_total": ("ms", "total", ("a", "b"), "cells"),
             "b_calls": ("count", "calls", ("b",), "cells")}
    values, _ = tracing.layer_metrics(spans, ["outer", "a", "b"], {"cells": 1}, specs)
    assert np.isclose(values["outer_self"][0], 70e-6)
    assert np.isclose(values["ab_total"][0], 30e-6)
    assert values["b_calls"][0] == 2.0
