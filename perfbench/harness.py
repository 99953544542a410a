"""Measurement and correctness checks behind ``perfbench/run.py``.

End-to-end metrics come from untraced passes (``trace=False``):

* ``setup_s`` — median over fresh interpreters of importing ``repro``
  and building the workload's inputs (``setup_probe.py``);
* ``cold_ops_per_s`` — operations per host second in a pass that starts
  right after ``perf.clear_caches()``, median over the run;
* ``warm_ops_per_s`` — the same pass again in the same process;
* ``peak_mem_mb`` — peak traced allocation of one cold pass, measured in
  a pass of its own because ``tracemalloc`` slows the pass severalfold.

Per-layer metrics come from a traced run (``trace=True``) whose rounds
are an untraced cold pass, then a traced cold and a traced warm pass;
see :mod:`spans`.

Host time is CPU time of the benchmark process (``time.process_time``),
so other tenants of a shared machine do not count.  The simulator is
single-threaded, so uncontended it equals wall time.

Every pass is checked.  Its output (the exports without their
provenance manifest, which carries the package version and a hash of
the specs) is hashed with the ``repro.obs`` canonicaliser and must
equal the committed digest at :data:`DEFAULT_SEED` (``digests.json``),
and on any seed every pass of the run must give the same digest.
Requests must be conserved, and on ``serve_overload`` (no timeouts, no
shedding) every one must complete.  An operation fails when its pass
raised, its digest is wrong, or it was lost or duplicated.
``layer_sweep`` also runs the paper-claim validation untimed and needs
every claim to pass.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from typing import Any, Callable

from spans import BOUNDARIES, SpanRecorder
from workloads import PAPER_LAYER_SPEEDUP, WORKLOADS, PassResult, Workload

from repro import perf
from repro.obs import fingerprint_obj

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
DIGESTS_PATH = HERE / "digests.json"
#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 9
#: Cold+warm rounds a run makes even when ``seconds`` is spent sooner.
MIN_ROUNDS = 2
CACHES = ("timing", "workload", "graph", "graph_batch", "step-cost")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_ops_per_s": "1/s",
    "warm_ops_per_s": "1/s",
    "peak_mem_mb": "MB",
}
SIM_UNITS = {
    "sim.comet_layer_speedup": "x",
    "sim.ttft_p99_ms": "sim_ms",
    "sim.goodput_rps": "sim_req/s",
    "sim.engine_steps": "count",
    "sim.retries": "count",
    "sim.shed": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for name in BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.warm_self_s"] = "s"
    units["graph.lower.nodes"] = "count"
    units["serve.steps"] = "count"
    units["obs.trace_events"] = "count"
    units["serve.scaling_exp"] = "log2"
    for cache in CACHES:
        units[f"perf.{cache}.hit_rate"] = "ratio"
        units[f"perf.{cache}.evictions"] = "count"
    units["perf.time_layer_calls"] = "count"
    units["bench.trace_overhead_pct"] = "%"
    units.update(SIM_UNITS)
    return units


def digest(export: Any) -> str:
    """sha256 of the canonical form of one pass's export."""
    return fingerprint_obj(export, digits=64)


def committed_digest(workload: str) -> str | None:
    return json.loads(DIGESTS_PATH.read_text()).get(workload)


class Checker:
    """Counts operations attempted and failed across a run's passes."""

    def __init__(self, workload: Workload, inputs: Any, seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        self.ops = workload.ops(inputs)
        self.reference = (
            committed_digest(workload.name) if seed == DEFAULT_SEED else None
        )
        self.attempted = 0
        self.failed = 0
        self.sim: dict[str, float] = {}
        self.peak_mb = 0.0

    def timed_pass(
        self, trace_memory: bool = False
    ) -> tuple[float, PassResult | None]:
        """Run, time and check one pass; its host time and result (None if
        it raised, which fails all its operations).  With
        ``trace_memory`` the pass runs under ``tracemalloc`` and its peak
        lands in :attr:`peak_mb`."""
        gc.collect()
        self.attempted += self.ops
        if trace_memory:
            tracemalloc.start()
        start = time.process_time()
        try:
            output = self.workload.run(self.inputs)
            elapsed = time.process_time() - start
            if trace_memory:
                self.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            result = self.workload.inspect(self.inputs, output)
        except Exception:  # a failed pass is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += self.ops
            return time.process_time() - start, None
        finally:
            if trace_memory:
                tracemalloc.stop()
        self.check(result)
        return elapsed, result

    def check(self, result: PassResult) -> None:
        found = digest(result.export)
        if self.reference is None:
            self.reference = found
        if found != self.reference:
            print(
                f"{self.workload.name}: export digest {found} != {self.reference}",
                file=sys.stderr,
            )
            self.failed += self.ops
        else:
            self.failed += min(result.lost, self.ops)
        self.sim = result.sim

    def validate_claims(self) -> None:
        """Paper-claim ranges (untimed); each claim is one operation."""
        from repro.bench.validation import validate_all

        claims = validate_all(quick=False)
        self.attempted += len(claims)
        for claim in claims:
            if not claim.passed:
                print(f"claim failed: {claim}", file=sys.stderr)
                self.failed += 1


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rounds(seconds: float, body: Callable[[], None]) -> int:
    """Repeat ``body`` until ``seconds`` have passed (at least MIN_ROUNDS)."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        body()
        rounds += 1
    return rounds


def measure_setup(workload: str, seed: int) -> list[float]:
    """``setup_s`` samples, one fresh interpreter each."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def throughput(checker: Checker, seconds: float) -> tuple[list[float], list[float]]:
    """Cold and warm pass times, one pair per round."""
    cold: list[float] = []
    warm: list[float] = []

    def round_() -> None:
        perf.clear_caches()
        cold.append(checker.timed_pass()[0])
        warm.append(checker.timed_pass()[0])

    _rounds(seconds, round_)
    return cold, warm


def peak_memory_mb(checker: Checker) -> float:
    """Peak traced allocation of one cold pass."""
    perf.clear_caches()
    checker.timed_pass(trace_memory=True)
    return checker.peak_mb


def end_to_end(
    checker: Checker, seconds: float, setup_samples: list[float]
) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics and the sample count behind each median."""
    cold, warm = throughput(checker, seconds)
    metrics = {
        "setup_s": _median(setup_samples),
        "cold_ops_per_s": checker.ops / _median(cold),
        "warm_ops_per_s": checker.ops / _median(warm),
        "peak_mem_mb": peak_memory_mb(checker),
    }
    samples = {
        "setup_s": len(setup_samples),
        "cold_ops_per_s": len(cold),
        "warm_ops_per_s": len(warm),
        "peak_mem_mb": 1,
    }
    return metrics, samples


def _cache_delta(before: dict, after: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for cache in CACHES:
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        out[f"perf.{cache}.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"perf.{cache}.evictions"] = (
            after[cache]["evictions"] - before[cache]["evictions"]
        )
    out["perf.time_layer_calls"] = (
        after["timing"]["time_layer_calls"] - before["timing"]["time_layer_calls"]
    )
    return out


def per_layer(
    checker: Checker, seconds: float, setup: SpanRecorder
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from rounds of an untraced cold pass followed by
    a traced cold and a traced warm pass; ``setup`` holds the spans
    recorded while building inputs.  Cache statistics are read over the
    traced warm pass: the wrappers call through, so tracing does not
    change what the caches see."""
    overhead: list[float] = []
    cold_spans: list[SpanRecorder] = []
    warm_spans: list[SpanRecorder] = []
    caches: dict[str, float] = {}
    counts: dict[str, int] = {}

    def traced_pass(
        recorders: list[SpanRecorder],
    ) -> tuple[float, PassResult | None]:
        recorder = SpanRecorder()
        with recorder.recording():
            elapsed, result = checker.timed_pass()
        recorders.append(recorder)
        return elapsed, result

    def round_() -> None:
        perf.clear_caches()
        plain = checker.timed_pass()[0]
        perf.clear_caches()
        traced = traced_pass(cold_spans)[0]
        overhead.append(100.0 * (traced / plain - 1.0))
        before = perf.cache_stats()
        _, result = traced_pass(warm_spans)
        caches.update(_cache_delta(before, perf.cache_stats()))
        if result is not None:
            counts.update(result.counts)

    rounds = _rounds(seconds, round_)
    metrics: dict[str, float] = {name: 0.0 for name in per_layer_units()}
    cold = [recorder.summary() for recorder in cold_spans]
    warm = [recorder.summary() for recorder in warm_spans]
    for name in BOUNDARIES:
        metrics[f"{name}.calls"] = cold[0][name]["calls"]
        metrics[f"{name}.self_s"] = _median([s[name]["self_s"] for s in cold])
        metrics[f"{name}.warm_self_s"] = _median([s[name]["self_s"] for s in warm])
    # Request traces are generated in set-up, once per run.
    built = setup.summary()["serve.traffic"]
    metrics["serve.traffic.calls"] = built["calls"]
    metrics["serve.traffic.self_s"] = built["self_s"]
    metrics.update(cold_spans[0].counts)
    metrics.update(counts)
    metrics.update(caches)
    scaling = []
    for recorder in warm_spans:
        times = recorder.self_times("serve.scheduler")
        if len(times) == 2 and times[0] > 0:
            scaling.append(math.log2(times[1] / times[0]))
    metrics["serve.scaling_exp"] = _median(scaling)
    # Median of per-round ratios of adjacent cold passes, so drift
    # between rounds cancels; the rounds are printed to show the spread.
    metrics["bench.trace_overhead_pct"] = _median(overhead)
    rounded = [round(value, 2) for value in overhead]
    print(f"{checker.workload.name:18s} trace_overhead_pct rounds {rounded}")
    metrics.update(checker.sim)
    samples = {"cold": rounds, "warm": rounds}
    return metrics, samples


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    workload = WORKLOADS[workload_name]
    if trace:
        setup = SpanRecorder()
        with setup.recording():
            inputs = workload.build(seed)
        checker = Checker(workload, inputs, seed)
        values, samples = per_layer(checker, seconds, setup)
        units = per_layer_units()
    else:
        checker = Checker(workload, workload.build(seed), seed)
        setup_samples = measure_setup(workload_name, seed)
        values, samples = end_to_end(checker, seconds, setup_samples)
        units = END_TO_END_UNITS
    if workload_name == "layer_sweep":
        checker.validate_claims()
    for name, value in {**values, **checker.sim}.items():
        note = ""
        if name == "sim.comet_layer_speedup":
            note = (
                f"  (paper {PAPER_LAYER_SPEEDUP}x; the model is checked only "
                "against the paper's published figures, not hardware)"
            )
        unit = units.get(name, SIM_UNITS.get(name, ""))
        print(f"{workload_name:18s} {name:42s} {value:14.6g} {unit}{note}")
    fail_rate = checker.failed / checker.attempted
    print(f"{workload_name:18s} {'fail_rate':42s} {fail_rate:14.6g} ratio")
    print(f"{workload_name:18s} samples {json.dumps(samples)}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
