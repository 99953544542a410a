"""Spans around the simulator's layer boundaries, recorded from outside.

The benchmark never edits the program.  :func:`patched` swaps a layer's
public entry point (a module-level function or a class method) for a
wrapper and puts the original back on exit; :class:`SpanRecorder` uses
it to record one span per call.  A function is swapped in every loaded
``repro`` module that holds a reference to it (``from x import f``
binds a second name), and a method in its class and every subclass that
overrides it.

Spans stay in memory as ``(name, start, end, parent)`` rows and are
reduced when the pass ends.  Self time is a span's duration minus the
time covered by its child spans.  A call into a boundary from inside a
span of the same boundary (``step_ms_at`` delegating to ``step_ms``)
is part of the outer span, so ``calls`` counts entries into the layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator

#: Layer boundaries: metric prefix -> entry points ("module:attr" or
#: "module:Class.method").  The layers follow the simulator's tiers:
#: routing synthesis, per-system layer timing, tile kernels, the tensor
#: rescheduler, schedule graphs, serving, the fleet, faults, trace
#: building and result export.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "moe.make_workload": ("repro.runtime.workload:make_workload",),
    "systems.time_layer.comet": ("repro.systems.comet:Comet.time_layer",),
    "systems.time_layer.tutel": ("repro.systems.tutel:Tutel.time_layer",),
    "systems.time_layer.fastermoe": (
        "repro.systems.fastermoe:FasterMoE.time_layer",
    ),
    "systems.time_layer.megatron-cutlass": (
        "repro.systems.megatron:MegatronCutlass.time_layer",
    ),
    "systems.time_layer.megatron-te": (
        "repro.systems.megatron:MegatronTE.time_layer",
    ),
    "kernels.layer0": ("repro.kernels.fused:simulate_layer0_fused",),
    "kernels.profile_nc": ("repro.kernels.assignment:profile_division_points",),
    "tensor.layer0_schedule": ("repro.tensor.reschedule:build_layer0_schedule",),
    "graph.lower": ("repro.graph.lower:build_forward_graph",),
    "graph.schedule": ("repro.perf:cached_graph_schedule",),
    "runtime.run_model": ("repro.runtime.model_runner:run_model",),
    "serve.step_cost": (
        "repro.serve.engine_adapter:StepCostModel.step_ms_at",
        "repro.serve.engine_adapter:StepCostModel.step_ms",
        "repro.faults.plan:TimeVaryingStepCost.step_ms_at",
    ),
    "serve.scheduler": ("repro.serve.scheduler:ContinuousBatchingScheduler.run",),
    "serve.traffic": ("repro.serve.traffic:build_trace",),
    "fleet.engine": ("repro.fleet.simulator:FleetEngine.run",),
    "fleet.router": ("repro.fleet.router:Router.choose",),
    "faults.migration": ("repro.faults.migration:MigrationSpec.transfer_ms",),
    "obs.trace_build": (
        "repro.obs.timeline:trace_fleet_report",
        "repro.sim.trace:Tracer.to_chrome_trace",
    ),
    "obs.validate": ("repro.obs.schema:validate_chrome_trace",),
    "api.export": (
        "repro.api.results:ResultSet.to_json",
        "repro.api.results:ResultSet.to_csv",
        "repro.serve.metrics:ServeResultSet.to_json",
        "repro.serve.metrics:ServeResultSet.to_csv",
        "repro.fleet.metrics:FleetResultSet.to_json",
        "repro.fleet.metrics:FleetResultSet.to_csv",
    ),
}


def _resolve(target: str) -> tuple[Any, str, Any]:
    module_name, _, attr = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _bindings(target: str) -> list[tuple[Any, str, Any]]:
    """Every (owner, name, original) a call to ``target`` can go through."""
    owner, name, original = _resolve(target)
    if isinstance(owner, type):
        found = [(owner, name, original)]
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if name in cls.__dict__:
                found.append((cls, name, cls.__dict__[name]))
        return found
    return [
        (module, key, value)
        for module_name, module in sorted(sys.modules.items())
        if module_name.split(".")[0] == "repro" and module is not None
        for key, value in list(vars(module).items())
        if value is original
    ]


@contextmanager
def patched(
    targets: tuple[str, ...], make_wrapper: Callable[[Callable], Callable]
) -> Iterator[None]:
    """Replace each target with ``make_wrapper(original)``; restore on exit."""
    swapped: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            for owner, name, original in _bindings(target):
                setattr(owner, name, make_wrapper(original))
                swapped.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(swapped):
            setattr(owner, name, original)


class SpanRecorder:
    """In-memory spans for every boundary in :data:`BOUNDARIES`, and the
    number of nodes in every graph lowered (``graph.lower.nodes``)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {"graph.lower.nodes": 0}
        self._stack: list[int] = []

    def _wrapper(self, name: str, original: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.process_time
        counts_nodes = name == "graph.lower"

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and spans[stack[-1]][0] == name:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counts_nodes:
                self.counts["graph.lower.nodes"] += len(result)
            return result

        return traced

    @contextmanager
    def recording(self) -> Iterator["SpanRecorder"]:
        """Trace every boundary inside the block."""
        with ExitStack() as stack:
            for name, targets in BOUNDARIES.items():
                stack.enter_context(
                    patched(targets, functools.partial(self._wrapper, name))
                )
            yield self

    def _self_s(self) -> list[float]:
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child_s)]

    def summary(self) -> dict[str, dict[str, float]]:
        """``{boundary: {"calls": n, "self_s": s}}`` for every boundary."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in BOUNDARIES}
        for span, self_s in zip(self.spans, self._self_s()):
            out[span[0]]["calls"] += 1
            out[span[0]]["self_s"] += self_s
        return out

    def self_times(self, name: str) -> list[float]:
        """Self time of each span of ``name``, in call order."""
        return [
            self_s
            for span, self_s in zip(self.spans, self._self_s())
            if span[0] == name
        ]
