"""Declarative online-serving experiments: ServeScenario and ServeSpec.

Mirrors :mod:`repro.api.scenario` for the serving workload class: a
:class:`ServeScenario` is one grid point (model x cluster x parallelism
x traffic x scheduler policy x SLO), :class:`ServeSpec.grid` expands
cartesian sweeps, and :meth:`ServeSpec.run` serves every registered
system on each point, returning a
:class:`~repro.serve.metrics.ServeResultSet`.

The request trace is built exactly once per scenario and replayed
verbatim for every system (the serving analogue of the one-workload-
per-grid-point sharing in the offline API), so goodput differences are
attributable to the execution mechanism alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.api.registry import (
    SYSTEM_REGISTRY,
    SystemRegistry,
    resolve_cluster,
    resolve_model,
)
from repro.api.validate import check_positive
from repro.graph.straggler import StragglerSpec
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.parallel.strategy import ParallelStrategy
from repro.serve.engine_adapter import StepCostModel
from repro.serve.metrics import ServeReport, ServeResultSet, ServeSkip
from repro.serve.scheduler import POLICY_REGISTRY, ContinuousBatchingScheduler
from repro.serve.traffic import Request, TraceSpec
from repro.systems.base import MoESystem, UnsupportedWorkload

__all__ = ["ServeScenario", "ServeSpec"]


@dataclass(frozen=True)
class ServeScenario:
    """One serving grid point: traffic, replica shape, policy, and SLOs."""

    config: MoEConfig
    cluster: ClusterSpec
    strategy: ParallelStrategy
    trace: TraceSpec = TraceSpec()
    max_batch_tokens: int = 8192
    max_batch_size: int = 256
    policy: str = "fcfs"
    slo_ttft_ms: float = 500.0
    slo_tpot_ms: float = 75.0
    bucket_tokens: int = 256
    overlap_policy: str = "per_layer"
    stragglers: StragglerSpec | None = None

    def __post_init__(self) -> None:
        from repro.graph.lower import check_policy

        if self.strategy.world_size != self.cluster.world_size:
            raise ValueError(
                f"strategy {self.strategy} needs world size "
                f"{self.strategy.world_size}, cluster {self.cluster.name} "
                f"has {self.cluster.world_size}"
            )
        self.strategy.validate_model(self.config.num_experts, self.config.ffn_size)
        if self.policy not in POLICY_REGISTRY:
            raise ValueError(
                f"unknown policy {self.policy!r}; valid policies: "
                f"{', '.join(POLICY_REGISTRY.names())}"
            )
        for name in (
            "max_batch_tokens", "max_batch_size", "slo_ttft_ms", "slo_tpot_ms"
        ):
            check_positive(name, getattr(self, name))
        check_policy(self.overlap_policy)
        if (
            self.stragglers is not None
            and self.stragglers.num_ranks != self.cluster.world_size
        ):
            raise ValueError(
                f"straggler spec covers {self.stragglers.num_ranks} ranks, "
                f"cluster {self.cluster.name} has {self.cluster.world_size}"
            )

    @property
    def label(self) -> str:
        parts = [
            self.config.name,
            self.cluster.name,
            str(self.strategy),
            self.trace.label,
            self.policy,
        ]
        if self.overlap_policy != "per_layer":
            parts.append(self.overlap_policy)
        if self.stragglers is not None and not self.stragglers.is_uniform:
            parts.append(self.stragglers.label)
        return "/".join(parts)

    def build_trace(self) -> tuple[Request, ...]:
        return self.trace.build()

    def run_system(
        self,
        system: MoESystem,
        trace: tuple[Request, ...] | None = None,
    ) -> ServeReport:
        """Serve the trace on one system instance.

        Raises :class:`~repro.systems.base.UnsupportedWorkload` if the
        system cannot run this replica shape at all.
        """
        cost_model = StepCostModel(
            system,
            self.config,
            self.cluster,
            self.strategy,
            bucket_tokens=self.bucket_tokens,
            overlap_policy=self.overlap_policy,
            stragglers=self.stragglers,
        )
        scheduler = ContinuousBatchingScheduler(
            cost_model=cost_model,
            trace=trace if trace is not None else self.build_trace(),
            max_batch_tokens=self.max_batch_tokens,
            max_batch_size=self.max_batch_size,
            policy=self.policy,
            slo_ttft_ms=self.slo_ttft_ms,
        )
        records, timeline = scheduler.run()
        return ServeReport(
            system=system.name,
            scenario_label=self.label,
            records=records,
            timeline=timeline,
            slo_ttft_ms=self.slo_ttft_ms,
            slo_tpot_ms=self.slo_tpot_ms,
            horizon_ms=self.trace.horizon_ms,
            max_batch_tokens=self.max_batch_tokens,
        )


@dataclass(frozen=True)
class ServeSpec:
    """A set of serving scenarios plus the systems to serve on each."""

    scenarios: tuple[ServeScenario, ...]
    systems: tuple[str, ...] = ()
    registry: SystemRegistry | None = None

    @classmethod
    def grid(
        cls,
        models: Any = "mixtral",
        clusters: Any = "h800",
        strategies: Any = None,
        traces: Any = None,
        policies: Any = "fcfs",
        slo_ttft_ms: Any = 500.0,
        slo_tpot_ms: Any = 75.0,
        max_batch_tokens: Any = 8192,
        overlap_policies: Any = "per_layer",
        stragglers: Any = None,
        systems: Any = None,
        registry: SystemRegistry | None = None,
    ) -> "ServeSpec":
        """Expand a cartesian serving sweep.

        ``strategies`` defaults to pure expert parallelism (TP=1,
        EP=world) on each cluster and otherwise accepts everything
        :meth:`repro.api.scenario.ExperimentSpec.grid` does (``"sweep"``,
        one strategy, a ``(tp, ep)`` pair, or a sequence); ``traces``
        defaults to one Poisson :class:`TraceSpec`; ``overlap_policies``
        sweeps the cross-layer scheduling model of the step cost
        (``"per_layer"`` | ``"cross_layer"`` | ``"shortcut"``);
        ``stragglers`` sweeps per-rank straggler scenarios (same kwarg
        name and entry forms as :meth:`ExperimentSpec.grid`) — each
        entry is ``None`` (the baseline), a
        :class:`~repro.graph.straggler.StragglerSpec`, or a float
        shorthand for a rank-0 slow-rank preset at that compute
        multiplier (built against each cluster's world size; ``1.0``
        means no spec).  Every axis accepts a single value or a
        sequence.
        """
        from repro.api.scenario import (
            _as_sequence,
            _as_straggler_axis,
            _as_strategies,
        )

        reg = registry if registry is not None else SYSTEM_REGISTRY
        model_list = [
            resolve_model(m) for m in _as_sequence(models, (MoEConfig, str))
        ]
        cluster_list = [
            resolve_cluster(c) for c in _as_sequence(clusters, (ClusterSpec, str))
        ]
        trace_list = list(_as_sequence(
            traces if traces is not None else TraceSpec(), (TraceSpec,)
        ))
        policy_list = list(_as_sequence(policies, (str,)))
        ttft_list = [float(v) for v in _as_sequence(slo_ttft_ms, (int, float))]
        tpot_list = [float(v) for v in _as_sequence(slo_tpot_ms, (int, float))]
        budget_list = [int(v) for v in _as_sequence(max_batch_tokens, (int,))]
        overlap_list = list(_as_sequence(overlap_policies, (str,)))

        scenarios: list[ServeScenario] = []
        for config in model_list:
            for cluster in cluster_list:
                if strategies is None:
                    strategy_list = (
                        ParallelStrategy(tp_size=1, ep_size=cluster.world_size),
                    )
                else:
                    strategy_list = _as_strategies(
                        strategies, cluster.world_size
                    )
                straggler_list = _as_straggler_axis(
                    stragglers, cluster.world_size
                )
                for strategy in strategy_list:
                    for trace in trace_list:
                        for policy in policy_list:
                            for ttft in ttft_list:
                                for tpot in tpot_list:
                                    for budget in budget_list:
                                        for overlap in overlap_list:
                                            for spec in straggler_list:
                                                scenarios.append(
                                                    ServeScenario(
                                                        config=config,
                                                        cluster=cluster,
                                                        strategy=strategy,
                                                        trace=trace,
                                                        policy=policy,
                                                        slo_ttft_ms=ttft,
                                                        slo_tpot_ms=tpot,
                                                        max_batch_tokens=budget,
                                                        overlap_policy=overlap,
                                                        stragglers=spec,
                                                    )
                                                )
        if systems is None:
            names: tuple[str, ...] = ()
        else:
            names = tuple(reg.resolve(n) for n in _as_sequence(systems, (str,)))
        return cls(scenarios=tuple(scenarios), systems=names, registry=registry)

    def system_names(self) -> tuple[str, ...]:
        """Requested systems, deduplicated, defaulting to all built-ins."""
        if self.systems:
            return tuple(dict.fromkeys(self.systems))
        from repro.api.scenario import default_system_names

        return default_system_names()

    def traces(self) -> Iterator[tuple[ServeScenario, tuple[Request, ...]]]:
        """One (scenario, trace) pair per unique grid point."""
        for scenario in dict.fromkeys(self.scenarios):
            yield scenario, scenario.build_trace()

    def _serve_one(
        self, scenario: ServeScenario, trace: tuple[Request, ...], name: str
    ) -> ServeReport | ServeSkip:
        """Serve one (scenario, system) pair — self-contained per thread."""
        registry = self.registry if self.registry is not None else SYSTEM_REGISTRY
        system = registry.create(name)
        try:
            return scenario.run_system(system, trace=trace)
        except UnsupportedWorkload as exc:
            return ServeSkip(
                scenario_label=scenario.label,
                system=system.name,
                reason=str(exc),
            )

    def run(
        self, workers: int | None = None, executor: str = "thread"
    ) -> ServeResultSet:
        """Serve every (scenario, system) pair and collect the reports.

        ``workers`` > 1 serves pairs on that many workers — threads by
        default, or worker processes with ``executor="process"`` (the
        traces are rebuilt deterministically inside each worker, and
        worker cache counters merge into :func:`repro.perf.cache_stats`);
        report and skip ordering is reassembled to match the serial run
        exactly, so every export is byte-identical either way.  Process
        mode requires the default registry.
        """
        from repro.api.scenario import _check_executor

        _check_executor(executor)
        parallel = workers is not None and workers > 1
        if parallel and executor == "process":
            if self.registry is not None:
                raise ValueError(
                    "executor='process' requires the default registry "
                    "(a custom registry exists only in this process)"
                )
            from concurrent.futures import ProcessPoolExecutor

            from repro import perf

            payloads = [
                (scenario, name)
                for scenario in dict.fromkeys(self.scenarios)
                for name in self.system_names()
            ]
            if len(payloads) > 1:
                outcomes = []
                with ProcessPoolExecutor(
                    max_workers=workers, initializer=perf.process_worker_init
                ) as pool:
                    for outcome, pid, stats in pool.map(
                        _serve_one_task, payloads
                    ):
                        perf.record_worker_stats(pid, stats)
                        outcomes.append(outcome)
            else:
                outcomes = [
                    self._serve_one(s, s.build_trace(), n) for s, n in payloads
                ]
            return self._collect(outcomes)
        tasks = [
            (scenario, trace, name)
            for scenario, trace in self.traces()
            for name in self.system_names()
        ]
        if parallel and len(tasks) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(lambda t: self._serve_one(*t), tasks))
        else:
            outcomes = [self._serve_one(*task) for task in tasks]
        return self._collect(outcomes)

    def _collect(
        self, outcomes: list[ServeReport | ServeSkip]
    ) -> ServeResultSet:
        reports = tuple(o for o in outcomes if isinstance(o, ServeReport))
        skips = tuple(o for o in outcomes if isinstance(o, ServeSkip))
        from repro.obs import capture

        return ServeResultSet(
            reports=reports,
            skips=skips,
            manifest=capture("serve", self.scenarios, self.system_names()),
        )


def _serve_one_task(payload):
    """Process-pool task: serve one (scenario, system) pair in a worker.

    Module-level (picklable by reference).  The trace is rebuilt inside
    the worker — :meth:`ServeScenario.build_trace` is seeded and pure,
    so the rebuilt trace equals the parent's — and the worker's own
    cache counters ride back for :func:`repro.perf.record_worker_stats`.
    """
    import os

    from repro import perf

    scenario, name = payload
    spec = ServeSpec(scenarios=(scenario,), systems=(name,))
    outcome = spec._serve_one(scenario, scenario.build_trace(), name)
    return outcome, os.getpid(), perf.cache_stats(include_workers=False)
