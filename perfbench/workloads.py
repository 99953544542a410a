"""The benchmark's four workloads.

Each workload turns ``--seed`` into inputs (specs and request traces) in
``build``; the simulator receives only those inputs.  One call of
``run`` is one pass: everything a user of that entry point pays for,
export included.  ``inspect`` reads the pass's output outside the timed
region.

Why these four (each stresses layers the others leave idle):

* ``layer_sweep`` — a cold layer-level grid over every registry model,
  both single-node clusters, every TP x EP split and all five systems:
  routing synthesis and the per-system layer timers (kernels, tensor
  rescheduling) do the work.  It has more grid points than the workload
  cache holds, so its warm pass shows the cache policy.
* ``model_stragglers`` — a model-level grid of Qwen2-MoE (64 experts,
  EP=64) on a 64-GPU pod with stragglers and every overlap policy:
  schedule-graph lowering and graph scheduling do the work.
* ``serve_overload`` — one COMET engine at several times its capacity,
  at trace length T and 2T: the admission path of the serving
  scheduler, with a long queue.
* ``fleet_faults`` — eight replicas behind a state-dependent router on a
  bursty trace with a crash, a degrade window, deadlines, shedding and
  KV migration, then the Chrome-trace export and its validation: the
  fleet engine, the router, faults and trace building, with short
  per-replica queues.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import (
    SYSTEM_REGISTRY,
    DegradeEvent,
    ExperimentSpec,
    FailureEvent,
    FaultPlan,
    FleetResultSet,
    FleetScenario,
    MigrationSpec,
    ParallelStrategy,
    ResilienceSpec,
    ServeScenario,
    TraceSpec,
    obs,
)
from repro.api.registry import resolve_cluster, resolve_model
from repro.fleet.spec import ReplicaSpec
from repro.hw.multinode import h800_pod
from repro.serve.metrics import ServeResultSet


@dataclass
class PassResult:
    """What the benchmark reads off one pass, outside the timed region.

    ``export`` is what the digest covers: the program's output, with
    JSON exports parsed and their provenance manifest (package version,
    spec hash) left out.  ``lost`` counts operations whose outcome is
    missing or duplicated (for requests: not ended exactly once as
    completed, timed out, shed or unserved); ``sim``
    holds simulated-time statistics and ``counts`` host-side work
    counts.
    """

    export: Any
    lost: int = 0
    sim: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """``run`` is the timed pass: the program's work on the inputs,
    export included.  ``inspect`` turns its output into a
    :class:`PassResult`; ``ops`` counts the operations one pass attempts."""

    name: str
    build: Callable[[int], Any]
    run: Callable[[Any], Any]
    inspect: Callable[[Any, Any], PassResult]
    ops: Callable[[Any], int]


def _unconserved(trace, completed, terminal) -> int:
    """Requests that broke conservation: an offered request ends at most
    once (completed, timed out or shed; otherwise it is unserved), and
    nothing ends that was not offered."""
    offered = {request.rid for request in trace}
    ended = [r.rid for r in completed] + [o.rid for o in terminal]
    duplicates = len(ended) - len(set(ended))
    strangers = len(set(ended) - offered)
    return duplicates + strangers + (len(offered) != len(trace))


def _unfinished(trace, completed) -> int:
    """Offered requests that did not complete (for engines that neither
    time out nor shed, every request must)."""
    return len({request.rid for request in trace} - {r.rid for r in completed})


def _output(json_text: str) -> dict:
    """A JSON export without its ``manifest``: the manifest records what
    ran (package version, spec hash), not what the program computed."""
    doc = json.loads(json_text)
    doc.pop("manifest", None)
    return doc


# -- grids ----------------------------------------------------------------------
def _grid_ops(spec: ExperimentSpec) -> int:
    """One operation per (scenario, system) pair, skips included."""
    return len(dict.fromkeys(spec.scenarios)) * len(spec.system_names())


def _run_grid(spec: ExperimentSpec, level: str) -> tuple:
    results = spec.run(level=level)
    return results, results.to_json(), results.to_csv()


def _inspect_grid(spec: ExperimentSpec, output: tuple) -> PassResult:
    results, json_text, csv_text = output
    return PassResult(
        export={"json": _output(json_text), "csv": csv_text},
        lost=abs(_grid_ops(spec) - len(results) - len(results.skips)),
    )


#: Paper's single-layer speedup (Fig. 10) for ``sim.comet_layer_speedup``.
PAPER_LAYER_SPEEDUP = 1.96


def build_layer_sweep(seed: int) -> ExperimentSpec:
    rng = random.Random(seed)
    return ExperimentSpec.grid(
        models=("mixtral", "qwen2", "phi3.5"),
        clusters=("h800", "l20"),
        strategies="sweep",
        tokens=(2048, 4096),
        imbalance_stds=(0.0, 0.05, 0.1),
        seeds=tuple(rng.sample(range(1000), 2)),
    )


def inspect_layer_sweep(spec: ExperimentSpec, output: tuple) -> PassResult:
    result = _inspect_grid(spec, output)
    results = output[0]
    speedups = [
        value
        for baseline in results.systems()
        if baseline != "Comet"
        for value in results.speedup_over(baseline).values()
    ]
    result.sim["sim.comet_layer_speedup"] = sum(speedups) / len(speedups)
    return result


def build_model_stragglers(seed: int) -> ExperimentSpec:
    return ExperimentSpec.grid(
        models="qwen2",
        clusters=h800_pod(8).effective_cluster(),
        strategies=(1, 64),
        tokens=16384,
        seeds=random.Random(seed).randrange(1000),
        overlap_policies=("per_layer", "cross_layer", "shortcut"),
        stragglers=(None, 1.3, 2.0),
    )


# -- serve_overload -----------------------------------------------------------
#: Trace length T in seconds; the pass serves T and 2T.
SERVE_T_S = 5.0


def build_serve_overload(seed: int) -> list[tuple[ServeScenario, tuple]]:
    inputs = []
    for duration_s in (SERVE_T_S, 2 * SERVE_T_S):
        scenario = ServeScenario(
            config=resolve_model("mixtral"),
            cluster=resolve_cluster("h800"),
            strategy=ParallelStrategy(1, 8),
            trace=TraceSpec(
                kind="poisson", rps=600.0, duration_s=duration_s, seed=seed
            ),
        )
        inputs.append((scenario, scenario.build_trace()))
    return inputs


def run_serve_overload(inputs: list[tuple[ServeScenario, tuple]]) -> tuple:
    reports = tuple(
        scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)
        for scenario, trace in inputs
    )
    results = ServeResultSet(
        reports=reports,
        manifest=obs.capture("serve", [s for s, _ in inputs], ("comet",)),
    )
    return reports, results.to_json()


def inspect_serve_overload(inputs: list, output: tuple) -> PassResult:
    reports, json_text = output
    longest = reports[-1]
    return PassResult(
        export={
            "json": _output(json_text),
            "records": [r.records for r in reports],
        },
        lost=sum(
            _unconserved(trace, report.records, ())
            + _unfinished(trace, report.records)
            for (_, trace), report in zip(inputs, reports)
        ),
        sim={
            "sim.ttft_p99_ms": longest.ttft_percentiles()["p99"],
            "sim.goodput_rps": longest.goodput_rps,
            "sim.engine_steps": len(longest.timeline),
        },
        counts={"serve.steps": sum(len(r.timeline) for r in reports)},
    )


# -- fleet_faults -------------------------------------------------------------
FLEET_DURATION_S = 12.0


def build_fleet_faults(seed: int) -> tuple[FleetScenario, tuple]:
    horizon_ms = FLEET_DURATION_S * 1000.0
    scenario = FleetScenario(
        config=resolve_model("mixtral"),
        replicas=(
            ReplicaSpec(resolve_cluster("h800"), ParallelStrategy(1, 8), count=8),
        ),
        trace=TraceSpec(
            kind="bursty",
            rps=600.0,
            duration_s=FLEET_DURATION_S,
            seed=seed,
            burst_factor=2.0,
            burst_fraction=0.2,
            burst_dwell_s=0.05,
        ),
        router="least_queue",
        router_seed=seed,
        faults=FaultPlan(
            crashes=(
                FailureEvent(
                    replica=0, fail_ms=0.2 * horizon_ms, recover_ms=0.5 * horizon_ms
                ),
            ),
            degrades=(
                DegradeEvent(
                    replica=1,
                    t0_ms=0.3 * horizon_ms,
                    t1_ms=0.7 * horizon_ms,
                    compute_mult=2.0,
                    comm_mult=2.0,
                ),
            ),
        ),
        resilience=ResilienceSpec(
            timeout_ms=1500.0, max_retries=1, shed_factor=1.5, seed=seed
        ),
        migration=MigrationSpec(),
    )
    return scenario, scenario.build_trace()


def run_fleet_faults(inputs: tuple[FleetScenario, tuple]) -> tuple:
    scenario, trace = inputs
    report = scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)
    results = FleetResultSet(
        reports=(report,), manifest=obs.capture("fleet", (scenario,), ("comet",))
    )
    chrome = obs.trace_fleet_report(report).to_chrome_trace()
    phases = obs.validate_chrome_trace(chrome)
    return report, results.to_json(), chrome, json.dumps(chrome), phases


def inspect_fleet_faults(inputs: tuple, output: tuple) -> PassResult:
    _, trace = inputs
    report, json_text, chrome, chrome_text, phases = output
    lost = _unconserved(trace, report.records, report.outcomes)
    steps = sum(s.steps for s in report.replica_stats)
    return PassResult(
        export={
            "json": _output(json_text),
            "records": report.records,
            "chrome": chrome_text,
            "phases": phases,
        },
        lost=lost + (report.offered != len(trace)),
        sim={
            "sim.ttft_p99_ms": report.ttft_percentiles()["p99"],
            "sim.goodput_rps": report.goodput_rps,
            "sim.engine_steps": steps,
            "sim.retries": report.retries,
            "sim.shed": report.shed,
        },
        counts={"serve.steps": steps, "obs.trace_events": len(chrome["traceEvents"])},
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "layer_sweep",
            build_layer_sweep,
            lambda spec: _run_grid(spec, "layer"),
            inspect_layer_sweep,
            _grid_ops,
        ),
        Workload(
            "model_stragglers",
            build_model_stragglers,
            lambda spec: _run_grid(spec, "model"),
            _inspect_grid,
            _grid_ops,
        ),
        Workload(
            "serve_overload",
            build_serve_overload,
            run_serve_overload,
            inspect_serve_overload,
            lambda inputs: sum(len(trace) for _, trace in inputs),
        ),
        Workload(
            "fleet_faults",
            build_fleet_faults,
            run_fleet_faults,
            inspect_fleet_faults,
            lambda inputs: len(inputs[1]),
        ),
    )
}
