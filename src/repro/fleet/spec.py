"""Declarative fleet experiments: ReplicaSpec, FleetScenario, FleetSpec.

Mirrors :mod:`repro.serve.scenario` one level up: a
:class:`FleetScenario` is one grid point of a *cluster-scale* serving
experiment — N engine replicas (each a
:class:`~repro.serve.engine_adapter.StepCostModel`-backed
continuous-batching instance, optionally on heterogeneous clusters or
with distinct straggler specs), a front-door router from
:data:`~repro.fleet.router.ROUTER_REGISTRY`, optional queue-driven
autoscaling, optional replica failure/recovery injection, and optional
prefill/decode-disaggregated pools.  :meth:`FleetSpec.grid` expands
cartesian sweeps over every one of those axes and
:meth:`FleetSpec.run` serves each registered system on each point,
returning a :class:`~repro.fleet.metrics.FleetResultSet`.

The request trace is built once per scenario and replayed verbatim for
every system (the same one-trace-per-grid-point sharing as
:class:`~repro.serve.scenario.ServeSpec`), and identical replicas share
one step-cost model through :func:`repro.perf.shared_step_cost`, so an
8-replica homogeneous fleet prices its iterations exactly once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator

from repro.api.registry import (
    SYSTEM_REGISTRY,
    SystemRegistry,
    resolve_cluster,
    resolve_model,
)
from repro.api.validate import check_positive
from repro.faults.migration import MigrationSpec
from repro.faults.plan import FailureEvent, FaultPlan, TimeVaryingStepCost
from repro.faults.resilience import ResilienceSpec
from repro.fleet.metrics import FleetReport, FleetResultSet, FleetSkip
from repro.fleet.router import ROUTER_REGISTRY
from repro.graph.straggler import StragglerSpec
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.parallel.strategy import ParallelStrategy
from repro.serve.scheduler import POLICY_REGISTRY
from repro.serve.traffic import Request, TraceSpec
from repro.systems.base import MoESystem, UnsupportedWorkload

__all__ = [
    "AutoscalerSpec",
    "FailureEvent",
    "FleetScenario",
    "FleetSpec",
    "ReplicaSpec",
]

REPLICA_ROLES = ("unified", "prefill", "decode")

# "2p+2d" / "1p+3d": a prefill/decode-disaggregated replica-axis entry.
_DISAGG_RE = re.compile(r"^(\d+)p\+(\d+)d$")


@dataclass(frozen=True)
class ReplicaSpec:
    """``count`` identical engine replicas of one shape.

    ``role`` selects the pool: ``"unified"`` replicas run prefill and
    decode interleaved (the plain continuous-batching engine);
    ``"prefill"`` / ``"decode"`` replicas form disaggregated pools where
    a request prefills in one pool and migrates to the other for
    decoding.  The KV handoff is free only when the scenario carries no
    :class:`~repro.faults.migration.MigrationSpec`; with one, every
    handoff pays for its KV-cache bytes over the inter-replica link
    (cost model documented in :mod:`repro.fleet.simulator`).
    """

    cluster: ClusterSpec
    strategy: ParallelStrategy
    count: int = 1
    role: str = "unified"
    stragglers: StragglerSpec | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"replica count must be >= 1, got {self.count}")
        if self.role not in REPLICA_ROLES:
            raise ValueError(
                f"unknown replica role {self.role!r}; valid roles: "
                f"{', '.join(REPLICA_ROLES)}"
            )
        if self.strategy.world_size != self.cluster.world_size:
            raise ValueError(
                f"strategy {self.strategy} needs world size "
                f"{self.strategy.world_size}, cluster {self.cluster.name} "
                f"has {self.cluster.world_size}"
            )
        if (
            self.stragglers is not None
            and self.stragglers.num_ranks != self.cluster.world_size
        ):
            raise ValueError(
                f"straggler spec covers {self.stragglers.num_ranks} ranks, "
                f"cluster {self.cluster.name} has {self.cluster.world_size}"
            )

    @property
    def gpus(self) -> int:
        """GPUs one replica of this shape occupies."""
        return self.strategy.world_size


@dataclass(frozen=True)
class AutoscalerSpec:
    """Queue-depth-driven replica autoscaling with warm-up delay.

    The controller ticks every ``interval_ms``: when the waiting-request
    count per active replica exceeds ``scale_up_queue`` it activates one
    standby replica (routable only after ``warmup_ms`` — model load and
    cache warm-up), and when it falls below ``scale_down_queue`` it
    drains one active replica.  ``cooldown_ms`` spaces consecutive
    actions so one burst cannot flap the fleet.  The fleet's replica
    pool is the capacity ceiling; ``min_replicas`` is the floor.
    """

    min_replicas: int = 1
    scale_up_queue: float = 8.0
    scale_down_queue: float = 1.0
    interval_ms: float = 1000.0
    warmup_ms: float = 2000.0
    cooldown_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if not 0 <= self.scale_down_queue < self.scale_up_queue:
            raise ValueError(
                f"need 0 <= scale_down_queue < scale_up_queue, got "
                f"{self.scale_down_queue} / {self.scale_up_queue}"
            )
        if self.interval_ms <= 0:
            raise ValueError(
                f"interval_ms must be positive, got {self.interval_ms}"
            )
        if self.warmup_ms < 0 or self.cooldown_ms < 0:
            raise ValueError("warmup_ms and cooldown_ms must be >= 0")

    @property
    def label(self) -> str:
        return f"autoscale[min{self.min_replicas}]"


# FailureEvent moved to repro.faults.plan (it is one of FaultPlan's
# three event families); imported above and kept in __all__ so every
# existing ``from repro.fleet.spec import FailureEvent`` still works.


def _replica_summary(replicas: tuple[ReplicaSpec, ...]) -> str:
    """Compact replica-pool descriptor for scenario labels."""
    if all(r.role == "unified" for r in replicas):
        clusters = {(r.cluster.name, str(r.strategy)) for r in replicas}
        total = sum(r.count for r in replicas)
        if len(clusters) == 1:
            return f"x{total}"
        return "+".join(f"{r.count}x{r.cluster.name}" for r in replicas)
    prefill = sum(r.count for r in replicas if r.role == "prefill")
    decode = sum(r.count for r in replicas if r.role == "decode")
    return f"{prefill}p+{decode}d"


@dataclass(frozen=True)
class FleetScenario:
    """One fleet grid point: traffic, replica pool, router, and SLOs."""

    config: MoEConfig
    replicas: tuple[ReplicaSpec, ...]
    trace: TraceSpec = TraceSpec()
    router: str = "round_robin"
    router_seed: int = 0
    autoscaler: AutoscalerSpec | None = None
    failures: tuple[FailureEvent, ...] = ()
    max_batch_tokens: int = 8192
    max_batch_size: int = 256
    policy: str = "fcfs"
    slo_ttft_ms: float = 500.0
    slo_tpot_ms: float = 75.0
    bucket_tokens: int = 256
    overlap_policy: str = "per_layer"
    faults: FaultPlan | None = None
    resilience: ResilienceSpec | None = None
    migration: MigrationSpec | None = None

    def __post_init__(self) -> None:
        from repro.graph.lower import check_policy

        if not self.replicas:
            raise ValueError("a fleet needs at least one ReplicaSpec")
        object.__setattr__(self, "replicas", tuple(self.replicas))
        object.__setattr__(self, "failures", tuple(self.failures))
        roles = {r.role for r in self.replicas}
        if "unified" in roles and len(roles) > 1:
            raise ValueError(
                "replica roles must be all 'unified' or a disaggregated "
                f"prefill+decode mix, got {sorted(roles)}"
            )
        if roles != {"unified"} and roles != {"prefill", "decode"}:
            raise ValueError(
                "a disaggregated fleet needs at least one prefill and one "
                f"decode replica, got roles {sorted(roles)}"
            )
        if self.router not in ROUTER_REGISTRY:
            raise ValueError(
                f"unknown router {self.router!r}; valid routers: "
                f"{', '.join(ROUTER_REGISTRY.names())}"
            )
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
        if self.autoscaler is not None:
            if roles != {"unified"}:
                raise ValueError(
                    "autoscaling requires an all-unified fleet (disaggregated "
                    "pools scale per role, which this model does not support)"
                )
            shapes = {
                (r.cluster, r.strategy, r.stragglers) for r in self.replicas
            }
            if len(shapes) > 1:
                raise ValueError(
                    "autoscaling requires a homogeneous fleet (identical "
                    "cluster/strategy/stragglers on every replica)"
                )
            if self.autoscaler.min_replicas > self.num_replicas:
                raise ValueError(
                    f"autoscaler min_replicas {self.autoscaler.min_replicas} "
                    f"exceeds the fleet size {self.num_replicas}"
                )
        by_replica: dict[int, list[FailureEvent]] = {}
        for event in self.all_crashes:
            if event.replica >= self.num_replicas:
                raise ValueError(
                    f"failure event targets replica {event.replica}, fleet "
                    f"has {self.num_replicas}"
                )
            by_replica.setdefault(event.replica, []).append(event)
        for events in by_replica.values():
            events.sort(key=lambda e: e.fail_ms)
            for prev, nxt in zip(events, events[1:]):
                if prev.recover_ms is None or nxt.fail_ms < prev.recover_ms:
                    raise ValueError(
                        f"overlapping failure windows on replica "
                        f"{nxt.replica}: {prev} then {nxt}"
                    )
        if self.faults is not None:
            expanded = self.expand_replicas()
            for degrade in self.faults.degrades:
                if degrade.replica >= self.num_replicas:
                    raise ValueError(
                        f"degrade event targets replica {degrade.replica}, "
                        f"fleet has {self.num_replicas}"
                    )
                world = expanded[degrade.replica].cluster.world_size
                if (
                    degrade.stragglers is not None
                    and degrade.stragglers.num_ranks != world
                ):
                    raise ValueError(
                        f"degrade spec on replica {degrade.replica} covers "
                        f"{degrade.stragglers.num_ranks} ranks, the replica "
                        f"has {world}"
                    )

    @property
    def all_crashes(self) -> tuple[FailureEvent, ...]:
        """Legacy ``failures`` merged with the fault plan's crashes —
        the one list the engine and the overlap validation consume."""
        planned = self.faults.crashes if self.faults is not None else ()
        return self.failures + planned

    @property
    def num_replicas(self) -> int:
        return sum(r.count for r in self.replicas)

    def expand_replicas(self) -> tuple[ReplicaSpec, ...]:
        """One entry per engine instance (counts flattened), index-stable."""
        out: list[ReplicaSpec] = []
        for spec in self.replicas:
            out.extend([spec] * spec.count)
        return tuple(out)

    @property
    def label(self) -> str:
        first = self.replicas[0]
        parts = [
            self.config.name,
            first.cluster.name,
            str(first.strategy),
            self.trace.label,
            self.policy,
            f"{self.router}{_replica_summary(self.replicas)}",
        ]
        if self.overlap_policy != "per_layer":
            parts.append(self.overlap_policy)
        if any(
            r.stragglers is not None and not r.stragglers.is_uniform
            for r in self.replicas
        ):
            parts.append(
                "+".join(
                    r.stragglers.label
                    for r in self.replicas
                    if r.stragglers is not None and not r.stragglers.is_uniform
                )
            )
        if self.autoscaler is not None:
            parts.append(self.autoscaler.label)
        if self.failures:
            parts.append(f"fail:{len(self.failures)}")
        if self.faults is not None and self.faults:
            parts.append(f"faults:{self.faults.label}")
        if self.resilience is not None and self.resilience:
            parts.append(self.resilience.label)
        if self.migration is not None:
            parts.append(self.migration.label)
        return "/".join(parts)

    def build_trace(self) -> tuple[Request, ...]:
        return self.trace.build()

    def run_system(
        self,
        system: MoESystem,
        trace: tuple[Request, ...] | None = None,
    ) -> FleetReport:
        """Serve the trace on one system instance across the fleet.

        Raises :class:`~repro.systems.base.UnsupportedWorkload` if the
        system cannot run any replica shape at all (checked eagerly at
        cost-model construction, same as single-replica serving).

        A replica with :class:`~repro.faults.plan.DegradeEvent` windows
        gets a :class:`~repro.faults.plan.TimeVaryingStepCost`: one
        fingerprint-keyed :func:`~repro.perf.shared_step_cost` model per
        degradation window (identical windows share an instance through
        the cache; un-degraded windows share the base model object), so
        step costs re-price at event boundaries without any per-step
        recomputation.
        """
        from repro import perf
        from repro.fleet.simulator import FleetEngine

        def shared(spec: ReplicaSpec, stragglers):
            return perf.shared_step_cost(
                system,
                self.config,
                spec.cluster,
                spec.strategy,
                bucket_tokens=self.bucket_tokens,
                overlap_policy=self.overlap_policy,
                stragglers=stragglers,
            )

        cost_models = []
        for index, spec in enumerate(self.expand_replicas()):
            base = shared(spec, spec.stragglers)
            windows = (
                self.faults.boundaries(
                    index, spec.cluster.world_size, spec.stragglers
                )
                if self.faults is not None
                else ()
            )
            if windows:
                cost_models.append(
                    TimeVaryingStepCost(
                        starts=[start for start, _ in windows],
                        models=[
                            base if composed is None else shared(spec, composed)
                            for _, composed in windows
                        ],
                    )
                )
            else:
                cost_models.append(base)
        engine = FleetEngine(
            scenario=self,
            cost_models=cost_models,
            trace=trace if trace is not None else self.build_trace(),
        )
        return engine.run(system.name)


def _as_replica_axis(value: Any) -> tuple[Any, ...]:
    """Normalise the ``replicas`` grid axis into entry tuples.

    Each *entry* describes one fleet shape and may be an ``int`` (N
    unified replicas on the grid point's cluster), a ``"2p+2d"`` string
    (disaggregated pools), one :class:`ReplicaSpec`, or a sequence of
    :class:`ReplicaSpec` (a heterogeneous fleet).  A bare sequence of
    ReplicaSpecs is one entry, not an axis.
    """
    if value is None:
        return (1,)
    if isinstance(value, (int, str, ReplicaSpec)):
        return (value,)
    items = tuple(value)
    if items and all(isinstance(v, ReplicaSpec) for v in items):
        return (items,)
    return items


def _expand_replica_entry(
    entry: Any,
    cluster: ClusterSpec,
    strategy: ParallelStrategy,
    stragglers: StragglerSpec | None,
) -> tuple[ReplicaSpec, ...]:
    """Resolve one replica-axis entry against a grid point's shape."""
    if isinstance(entry, int):
        if entry < 1:
            raise ValueError(f"replica count must be >= 1, got {entry}")
        return (
            ReplicaSpec(
                cluster=cluster, strategy=strategy, count=entry,
                stragglers=stragglers,
            ),
        )
    if isinstance(entry, str):
        match = _DISAGG_RE.match(entry.strip().lower())
        if not match:
            raise ValueError(
                f"replica axis strings must look like '2p+2d' "
                f"(prefill+decode counts), got {entry!r}"
            )
        prefill, decode = int(match.group(1)), int(match.group(2))
        if prefill < 1 or decode < 1:
            raise ValueError(
                f"disaggregated fleets need >= 1 prefill and decode "
                f"replica, got {entry!r}"
            )
        return (
            ReplicaSpec(
                cluster=cluster, strategy=strategy, count=prefill,
                role="prefill", stragglers=stragglers,
            ),
            ReplicaSpec(
                cluster=cluster, strategy=strategy, count=decode,
                role="decode", stragglers=stragglers,
            ),
        )
    if isinstance(entry, ReplicaSpec):
        return (entry,)
    return tuple(entry)


def _as_optional_axis(value: Any, scalar: type) -> tuple[Any, ...]:
    """Axis of ``scalar`` instances where ``None`` is a valid entry."""
    if value is None or isinstance(value, scalar):
        return (value,)
    return tuple(value)


def _as_failure_axis(value: Any) -> tuple[tuple[FailureEvent, ...], ...]:
    """Normalise the ``failures`` axis: each entry is one failure plan.

    ``None`` is the no-failure plan; a :class:`FailureEvent` or a
    sequence of them is a single plan; a sequence of plans (containing
    ``None`` / events / event sequences) is an axis.
    """
    if value is None:
        return ((),)
    if isinstance(value, FailureEvent):
        return ((value,),)
    items = tuple(value)
    if not items:
        return ((),)  # an empty plan, not an empty axis
    if all(isinstance(v, FailureEvent) for v in items):
        return (items,)
    out: list[tuple[FailureEvent, ...]] = []
    for item in items:
        if item is None:
            out.append(())
        elif isinstance(item, FailureEvent):
            out.append((item,))
        else:
            out.append(tuple(item))
    return tuple(out)


@dataclass(frozen=True)
class FleetSpec:
    """A set of fleet scenarios plus the systems to serve on each."""

    scenarios: tuple[FleetScenario, ...]
    systems: tuple[str, ...] = ()
    registry: SystemRegistry | None = None

    @classmethod
    def grid(
        cls,
        models: Any = "mixtral",
        clusters: Any = "h800",
        strategies: Any = None,
        replicas: Any = 1,
        routers: Any = "round_robin",
        traces: Any = None,
        policies: Any = "fcfs",
        autoscalers: Any = None,
        failures: Any = None,
        slo_ttft_ms: Any = 500.0,
        slo_tpot_ms: Any = 75.0,
        max_batch_tokens: Any = 8192,
        overlap_policies: Any = "per_layer",
        stragglers: Any = None,
        faults: Any = None,
        resilience: Any = None,
        migrations: Any = None,
        router_seed: int = 0,
        systems: Any = None,
        registry: SystemRegistry | None = None,
    ) -> "FleetSpec":
        """Expand a cartesian fleet sweep.

        On top of the :meth:`~repro.serve.scenario.ServeSpec.grid` axes,
        ``replicas`` sweeps fleet shapes (an int, a ``"2p+2d"``
        disaggregation string, a :class:`ReplicaSpec`, or a sequence of
        ReplicaSpecs for heterogeneous fleets — each resolved against
        the grid point's cluster/strategy where applicable),
        ``routers`` sweeps :data:`~repro.fleet.router.ROUTER_REGISTRY`
        names, ``autoscalers`` sweeps :class:`AutoscalerSpec` entries
        (``None`` = static fleet), and ``failures`` sweeps failure
        plans (tuples of :class:`FailureEvent`; ``None`` = no
        failures).  ``stragglers`` applies its per-cluster axis entries
        to every replica of the scenario.

        The fault/resilience axes (PR 8) follow the ``autoscalers``
        convention — ``None`` is a valid entry meaning "off":
        ``faults`` sweeps :class:`~repro.faults.plan.FaultPlan`
        schedules (crashes + time-varying degradation + brownouts),
        ``resilience`` sweeps
        :class:`~repro.faults.resilience.ResilienceSpec` policies
        (detect→drain→recover, deadlines/retries, shedding), and
        ``migrations`` sweeps
        :class:`~repro.faults.migration.MigrationSpec` KV-transfer
        cost models.
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
        router_list = [
            ROUTER_REGISTRY.resolve(r) for r in _as_sequence(routers, (str,))
        ]
        replica_axis = _as_replica_axis(replicas)
        autoscaler_list = _as_optional_axis(autoscalers, AutoscalerSpec)
        failure_list = _as_failure_axis(failures)
        fault_list = _as_optional_axis(faults, FaultPlan)
        resilience_list = _as_optional_axis(resilience, ResilienceSpec)
        migration_list = _as_optional_axis(migrations, MigrationSpec)
        ttft_list = [float(v) for v in _as_sequence(slo_ttft_ms, (int, float))]
        tpot_list = [float(v) for v in _as_sequence(slo_tpot_ms, (int, float))]
        budget_list = [int(v) for v in _as_sequence(max_batch_tokens, (int,))]
        overlap_list = list(_as_sequence(overlap_policies, (str,)))

        scenarios: list[FleetScenario] = []
        for config in model_list:
            for cluster in cluster_list:
                if strategies is None:
                    strategy_list = (
                        ParallelStrategy(tp_size=1, ep_size=cluster.world_size),
                    )
                else:
                    strategy_list = _as_strategies(strategies, cluster.world_size)
                straggler_list = _as_straggler_axis(stragglers, cluster.world_size)
                for strategy in strategy_list:
                    for spec in straggler_list:
                        pools = [
                            _expand_replica_entry(entry, cluster, strategy, spec)
                            for entry in replica_axis
                        ]
                        for pool in pools:
                            for trace in trace_list:
                                for policy in policy_list:
                                    for router in router_list:
                                        for scaler in autoscaler_list:
                                            for plan in failure_list:
                                                for ttft in ttft_list:
                                                    for tpot in tpot_list:
                                                        for budget in budget_list:
                                                            for overlap in overlap_list:
                                                                for fault_plan in fault_list:
                                                                    for res in resilience_list:
                                                                        for migration in migration_list:
                                                                            scenarios.append(
                                                                                FleetScenario(
                                                                                    config=config,
                                                                                    replicas=pool,
                                                                                    trace=trace,
                                                                                    router=router,
                                                                                    router_seed=router_seed,
                                                                                    autoscaler=scaler,
                                                                                    failures=plan,
                                                                                    policy=policy,
                                                                                    slo_ttft_ms=ttft,
                                                                                    slo_tpot_ms=tpot,
                                                                                    max_batch_tokens=budget,
                                                                                    overlap_policy=overlap,
                                                                                    faults=fault_plan,
                                                                                    resilience=res,
                                                                                    migration=migration,
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

    def traces(self) -> Iterator[tuple[FleetScenario, tuple[Request, ...]]]:
        """One (scenario, trace) pair per unique grid point."""
        for scenario in dict.fromkeys(self.scenarios):
            yield scenario, scenario.build_trace()

    def _serve_one(
        self, scenario: FleetScenario, trace: tuple[Request, ...], name: str
    ) -> FleetReport | FleetSkip:
        """Serve one (scenario, system) pair — self-contained per thread."""
        registry = self.registry if self.registry is not None else SYSTEM_REGISTRY
        system = registry.create(name)
        try:
            return scenario.run_system(system, trace=trace)
        except UnsupportedWorkload as exc:
            return FleetSkip(
                scenario_label=scenario.label,
                system=system.name,
                reason=str(exc),
                router=scenario.router,
                num_replicas=scenario.num_replicas,
            )

    def run(
        self, workers: int | None = None, executor: str = "thread"
    ) -> FleetResultSet:
        """Serve every (scenario, system) pair and collect the reports.

        ``workers`` > 1 serves pairs on that many workers — threads by
        default, or worker processes with ``executor="process"`` (traces
        rebuilt deterministically per worker, worker cache counters
        merged into :func:`repro.perf.cache_stats`); report and skip
        ordering is reassembled to match the serial run exactly, so
        every export is byte-identical either way.  Process mode
        requires the default registry.
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
                        _fleet_one_task, payloads
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
        self, outcomes: list[FleetReport | FleetSkip]
    ) -> FleetResultSet:
        reports = tuple(o for o in outcomes if isinstance(o, FleetReport))
        skips = tuple(o for o in outcomes if isinstance(o, FleetSkip))
        from repro.obs import capture

        return FleetResultSet(
            reports=reports,
            skips=skips,
            manifest=capture("fleet", self.scenarios, self.system_names()),
        )


def _fleet_one_task(payload):
    """Process-pool task: serve one fleet (scenario, system) pair.

    Module-level (picklable by reference); the trace is rebuilt inside
    the worker from the seeded :class:`~repro.serve.traffic.TraceSpec`,
    and the worker's cache counters ride back for
    :func:`repro.perf.record_worker_stats`.
    """
    import os

    from repro import perf

    scenario, name = payload
    spec = FleetSpec(scenarios=(scenario,), systems=(name,))
    outcome = spec._serve_one(scenario, scenario.build_trace(), name)
    return outcome, os.getpid(), perf.cache_stats(include_workers=False)
