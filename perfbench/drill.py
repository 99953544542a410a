"""Seeded-slowdown drill: the benchmark must catch a 2x slower layer.

Inside this test only, schedule-graph lowering
(``repro.graph.lower.build_forward_graph``) is wrapped so every call
takes twice as long.  The drill passes when

* ``model_stragglers`` — where lowering is most of the pass — loses more
  ``cold_ops_per_s`` than its bound in ``BENCHMARK.json`` allows;
* the traced pass puts the extra time in ``graph.lower.self_s``: it
  roughly doubles, and no other layer's self time grows as much;
* every other workload stays within its ``cold_ops_per_s`` bound.

It takes a few minutes, so it is not part of the tier-1 suite::

    python3 -m pytest -p no:cacheprovider perfbench/drill.py -q
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SLOWED = "graph.lower"
SLOWED_WORKLOAD = "model_stragglers"
SEED = 1
RUNS = 3
SECONDS = 4.0


def _modules():
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import harness
    import spans

    return harness, spans


def _doubled(original):
    """``original``, then a busy wait for the CPU time the call took."""

    @functools.wraps(original)
    def slow(*args, **kwargs):
        start = time.process_time()
        result = original(*args, **kwargs)
        deadline = 2 * time.process_time() - start
        while time.process_time() < deadline:
            pass
        return result

    return slow


def _bound(metric: str) -> float:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in doc["end_to_end"] if m["name"] == metric)


def _cold_ops_per_s(harness, checker) -> float:
    medians = [
        checker.ops / statistics.median(harness.throughput(checker, SECONDS)[0])
        for _ in range(RUNS)
    ]
    return statistics.median(medians)


@pytest.fixture(scope="module")
def measured():
    """Cold throughput of every workload, and the traced layers of the
    slowed one, with and without the slowdown."""
    harness, spans = _modules()
    targets = spans.BOUNDARIES[SLOWED]
    out = {}
    for name, workload in harness.WORKLOADS.items():
        checker = harness.Checker(workload, workload.build(SEED), SEED)
        base = _cold_ops_per_s(harness, checker)
        with spans.patched(targets, _doubled):
            slow = _cold_ops_per_s(harness, checker)
        out[name] = {"base": base, "slow": slow, "failed": checker.failed}
        if name == SLOWED_WORKLOAD:
            setup = spans.SpanRecorder()
            out["layers_base"] = harness.per_layer(checker, SECONDS, setup)[0]
            with spans.patched(targets, _doubled):
                out["layers_slow"] = harness.per_layer(checker, SECONDS, setup)[0]
    return out


def test_slowed_workload_leaves_its_bound(measured):
    run = measured[SLOWED_WORKLOAD]
    assert run["failed"] == 0
    assert run["slow"] < run["base"] * (1 - _bound("cold_ops_per_s")), run


@pytest.mark.parametrize(
    "workload", ["layer_sweep", "serve_overload", "fleet_faults"]
)
def test_other_workloads_stay_within_bounds(measured, workload):
    run = measured[workload]
    assert run["failed"] == 0
    assert run["slow"] >= run["base"] * (1 - _bound("cold_ops_per_s")), run


def test_trace_attributes_the_time_to_the_slowed_layer(measured):
    base, slow = measured["layers_base"], measured["layers_slow"]
    metric = f"{SLOWED}.self_s"
    assert slow[metric] > 1.6 * base[metric], (base[metric], slow[metric])
    growth = {
        name: slow[name] - base[name]
        for name in base
        if name.endswith(".self_s")
    }
    assert max(growth, key=growth.get) == metric, growth
