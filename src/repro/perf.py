"""Cross-stack performance layer: bounded caches and cached entry points.

Everything in this module is an *accelerator*, never a semantics change.
One switch, :attr:`PerfConfig.reference`, selects the reference paths
each tier keeps as its oracle; :func:`disabled` sets it.  Under the
switch:

* :mod:`repro.kernels.fused` runs the per-tile heapq loop instead of the
  vectorised wave scheduler;
* :class:`~repro.systems.comet.Comet` simulates every rank instead of
  each *distinct* per-rank schedule once;
* :mod:`repro.serve.scheduler` runs the discrete-event simulation
  instead of its sequential transcription;
* graphs schedule through :func:`repro.graph.scheduler.list_schedule`
  instead of :func:`repro.graph.batch.schedule`;
* every cache below is bypassed.

Each production path is verified bit-identical against its reference
(the test suite and committed golden digests enforce it), which is also
how ``benchmarks/bench_sim_speed.py`` measures the speedup honestly.

The caches are bounded LRU caches with hit/miss/eviction counters and
an explicit ``clear()``; :func:`cache_stats` aggregates them for the
CLI's ``--report`` flag:

* :data:`TIMING_CACHE` — ``LayerTiming`` results keyed by fingerprints,
  so the same (system, workload) pair is simulated once no matter which
  entry point (grid / training step / serving bucket) asks;
* :data:`WORKLOAD_CACHE` — one :class:`~repro.runtime.workload.MoELayerWorkload`
  per (config, cluster, strategy, tokens, imbalance, seed), shared by
  scenario grids and every serving token bucket;
* :data:`GRAPH_CACHE` — one schedule per (graph topology, duration bits);
* :data:`GRAPH_BATCH_CACHE` — the per-topology compiled structures of
  :mod:`repro.graph.batch`;
* :data:`STEP_COST_CACHE` — one serving step-cost model per system state
  and scenario shape.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.runtime.workload import MoELayerWorkload
    from repro.systems.base import LayerTiming, MoESystem

__all__ = [
    "CONFIG",
    "GRAPH_BATCH_CACHE",
    "GRAPH_CACHE",
    "STEP_COST_CACHE",
    "TIMING_CACHE",
    "WORKLOAD_CACHE",
    "BoundedCache",
    "PerfConfig",
    "TimingCache",
    "cache_stats",
    "cached_graph_schedule",
    "cached_time_layer",
    "clear_caches",
    "disabled",
    "process_worker_init",
    "record_worker_stats",
    "shared_step_cost",
    "shared_workload",
    "time_layer_calls",
    "worker_process_count",
]


@dataclass
class PerfConfig:
    """``reference`` selects every tier's reference path and bypasses the
    caches; it defaults off and :func:`disabled` turns it on."""

    reference: bool = False


CONFIG = PerfConfig()


@contextmanager
def disabled() -> Iterator[PerfConfig]:
    """Run the reference paths with no caches (restored on exit)."""
    previous = CONFIG.reference
    CONFIG.reference = True
    try:
        yield CONFIG
    finally:
        CONFIG.reference = previous


class BoundedCache:
    """Thread-safe LRU cache with hit/miss/eviction instrumentation.

    ``maxsize`` bounds the entry count; inserting beyond it evicts the
    least recently used entry, so long-running processes (sweep servers,
    notebook sessions) cannot grow caches without bound.

    Every operation — lookups, the insert-plus-eviction loop of
    :meth:`put`, counter resets, and the :meth:`stats` snapshot — runs
    under one lock, so ``workers=N`` grids can hammer a cache from many
    threads and still observe a coherent state: ``size`` never exceeds
    ``maxsize``, counters never go backwards or negative, and a
    :meth:`stats` snapshot is internally consistent (its ``hit_rate``
    is computed from the same locked reads as its ``hits``/``misses``)
    rather than a torn mix of before/after values.
    """

    def __init__(self, maxsize: int, name: str = "cache"):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` (which is never a stored value)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (evicting LRU entries past ``maxsize``); returns ``value``.

        The insert and the eviction loop are one atomic operation: no
        concurrent reader can observe the cache above ``maxsize`` or an
        eviction count mid-update.
        """
        if value is None:
            raise ValueError("BoundedCache cannot store None")
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        return value

    def _reset_locked(self) -> None:
        """Drop entries and counters; caller must hold ``_lock``."""
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        """Drop all entries and reset the counters (atomically)."""
        with self._lock:
            self._reset_locked()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def _stats_locked(self) -> dict[str, Any]:
        """Build the stats doc; caller must hold ``_lock``."""
        total = self.hits + self.misses
        return {
            "name": self.name,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }

    def stats(self) -> dict[str, Any]:
        """A consistent snapshot of size and counters (single lock hold)."""
        with self._lock:
            return self._stats_locked()


class TimingCache(BoundedCache):
    """``LayerTiming`` memo keyed by (system, workload) fingerprints.

    ``time_layer`` is the cached entry point; it also counts the
    *actual* ``MoESystem.time_layer`` invocations (cache misses plus
    every call made while the cache is disabled), which is the
    simulator-throughput metric the speed benchmark reports.
    """

    def __init__(self, maxsize: int = 4096, name: str = "timing"):
        super().__init__(maxsize, name=name)
        self.computed = 0  # real time_layer invocations (misses + bypasses)

    def time_layer(
        self, system: "MoESystem", workload: "MoELayerWorkload"
    ) -> "LayerTiming":
        if CONFIG.reference:
            with self._lock:
                self.computed += 1
            return system.time_layer(workload)
        # timing_key (not timing_state_token): systems whose timing is a
        # pure function of per-workload *resolved* state — e.g. COMET's
        # adaptive division points — return that state so equal-config
        # instances share entries across runs instead of cold-missing on
        # a per-instance epoch (any probe side effects run during key
        # resolution, exactly as an uncached call would run them).
        key = (
            system.fingerprint(),
            system.timing_key(workload),
            workload.fingerprint(),
        )
        timing = self.get(key)
        if timing is None:
            with self._lock:
                self.computed += 1
            timing = system.time_layer(workload)
            self.put(key, timing)
        return timing

    def clear(self) -> None:
        with self._lock:
            self._reset_locked()
            self.computed = 0

    def stats(self) -> dict[str, Any]:
        # One lock hold for the whole snapshot, so time_layer_calls is
        # read in the same critical section as the hit/miss counters.
        # (computed and misses are still bumped in *separate* critical
        # sections — a snapshot taken mid-miss can legitimately show
        # them one apart, so don't assert equality between them.)
        with self._lock:
            doc = self._stats_locked()
            doc["time_layer_calls"] = self.computed
        return doc


TIMING_CACHE = TimingCache(maxsize=4096, name="timing")
WORKLOAD_CACHE = BoundedCache(maxsize=256, name="workload")
GRAPH_CACHE = BoundedCache(maxsize=1024, name="graph")
GRAPH_BATCH_CACHE = BoundedCache(maxsize=256, name="graph_batch")
STEP_COST_CACHE = BoundedCache(maxsize=64, name="step-cost")


def cached_graph_schedule(graph: Any) -> Any:
    """Schedule a :class:`repro.graph.ir.ScheduleGraph` through the
    bounded :data:`GRAPH_CACHE`.

    Keyed by (:func:`repro.graph.batch.topology_key`, duration bits):
    the structural key covers node order, kinds, and streams (every
    node's per-rank stream tag, so a straggler spec's per-rank graph and
    the single-rank graph it degenerates to key separately), and the raw
    IEEE-754 byte dump of the duration vector covers the timings
    exactly.  A cache hit is byte-identical to rescheduling — grids with
    ``workers=N`` and warm-cache reruns produce the same floats.  A miss
    runs :func:`repro.graph.batch.schedule`; under :func:`disabled` the
    list scheduler runs instead.
    """
    from repro.graph import batch, scheduler

    if CONFIG.reference:
        return scheduler.list_schedule(graph)
    durations = np.asarray(graph.durations, dtype=np.float64)
    key = (batch.topology_key(graph), durations.tobytes())
    schedule = GRAPH_CACHE.get(key)
    if schedule is None:
        schedule = GRAPH_CACHE.put(key, batch.schedule(graph, durations))
    return schedule


def cached_time_layer(
    system: "MoESystem", workload: "MoELayerWorkload"
) -> "LayerTiming":
    """Time one layer through the global :data:`TIMING_CACHE`.

    Identical to ``system.time_layer(workload)`` — including raising
    :class:`~repro.systems.base.UnsupportedWorkload` — but repeated
    (system, workload) pairs are simulated once.  This is the timing
    entry point used by :meth:`repro.api.scenario.ExperimentSpec.run`,
    :func:`repro.runtime.training.run_training_step`, and
    :class:`repro.serve.engine_adapter.StepCostModel`.
    """
    return TIMING_CACHE.time_layer(system, workload)


def time_layer_calls() -> int:
    """Actual ``time_layer`` simulations performed since the last clear."""
    return TIMING_CACHE.computed


def shared_workload(
    config: Any,
    cluster: Any,
    strategy: Any,
    total_tokens: int,
    imbalance_std: float = 0.0,
    seed: int = 0,
) -> "MoELayerWorkload":
    """One workload object per grid point / token bucket, process-wide.

    ``make_workload`` is deterministic in its arguments, so sharing the
    object is observationally identical to rebuilding it — but the
    routing synthesis and the per-rank geometry caches attached to the
    workload are paid once per distinct key instead of once per caller.
    """
    from repro.runtime.workload import make_workload

    key = (config, cluster, strategy, total_tokens, imbalance_std, seed)
    workload = WORKLOAD_CACHE.get(key)
    if workload is None:
        workload = WORKLOAD_CACHE.put(
            key,
            make_workload(
                config, cluster, strategy, total_tokens, imbalance_std, seed
            ),
        )
    return workload


def shared_step_cost(
    system: "MoESystem",
    config: Any,
    cluster: Any,
    strategy: Any,
    bucket_tokens: int = 256,
    overlap_policy: str = "per_layer",
    stragglers: Any = None,
) -> Any:
    """One :class:`~repro.serve.engine_adapter.StepCostModel` per
    distinct (system state, scenario shape), process-wide.

    A homogeneous N-replica fleet prices iterations against N identical
    cost models; sharing one instance means the per-bucket timing work
    (and the model's internal step cache) is paid once for the whole
    fleet instead of once per replica.  The key includes the system's
    fingerprint *and* timing-state token, so a mutated system never hits
    a stale entry.  Construction failures
    (:class:`~repro.systems.base.UnsupportedWorkload` from the eager
    support check) propagate and are never cached.  Under
    :func:`disabled` every caller gets a fresh model.
    """
    from repro.serve.engine_adapter import StepCostModel

    def build() -> Any:
        return StepCostModel(
            system=system,
            config=config,
            cluster=cluster,
            strategy=strategy,
            bucket_tokens=bucket_tokens,
            overlap_policy=overlap_policy,
            stragglers=stragglers,
        )

    if CONFIG.reference:
        return build()
    key = (
        system.fingerprint(),
        system.timing_state_token(),
        config,
        cluster,
        strategy,
        bucket_tokens,
        overlap_policy,
        stragglers.fingerprint() if stragglers is not None else None,
    )
    model = STEP_COST_CACHE.get(key)
    if model is None:
        model = STEP_COST_CACHE.put(key, build())
    return model


# -- process-worker statistics -------------------------------------------------
#
# ``executor="process"`` grids run scenarios in forked workers whose
# caches are private; each task returns a ``cache_stats`` snapshot which
# the parent records here, so ``--report`` stays attributable.  Within
# one worker the counters are monotone (the pool initializer clears
# inherited state once, at fork), so snapshots from the same pid merge
# by elementwise max — results may be collected out of execution order,
# and the max is exactly the pid's latest state.

_WORKER_STATS: dict[int, dict[str, dict[str, Any]]] = {}
_WORKER_LOCK = threading.Lock()

_MERGED_COUNTERS = ("hits", "misses", "evictions", "time_layer_calls")


def process_worker_init() -> None:
    """Pool initializer for ``executor="process"`` workers.

    Forked children inherit the parent's cache *contents* (free warm
    starts) but also its counters; reset only the counters so the
    returned snapshots count the worker's own activity.
    """
    for cache in (
        TIMING_CACHE,
        WORKLOAD_CACHE,
        GRAPH_CACHE,
        GRAPH_BATCH_CACHE,
        STEP_COST_CACHE,
    ):
        with cache._lock:
            cache.hits = 0
            cache.misses = 0
            cache.evictions = 0
            if isinstance(cache, TimingCache):
                cache.computed = 0
    with _WORKER_LOCK:
        _WORKER_STATS.clear()


def record_worker_stats(pid: int, stats: dict[str, dict[str, Any]]) -> None:
    """Fold one worker's ``cache_stats`` snapshot into the parent's view."""
    with _WORKER_LOCK:
        previous = _WORKER_STATS.get(pid)
        if previous is None:
            _WORKER_STATS[pid] = stats
            return
        for name, doc in stats.items():
            merged = previous.get(name)
            if merged is None:
                previous[name] = doc
                continue
            for counter in _MERGED_COUNTERS + ("size",):
                if counter in doc:
                    merged[counter] = max(
                        merged.get(counter, 0), doc[counter]
                    )


def worker_process_count() -> int:
    """Distinct worker processes that have reported statistics."""
    with _WORKER_LOCK:
        return len(_WORKER_STATS)


def clear_caches() -> None:
    """Empty the global caches and reset their counters."""
    TIMING_CACHE.clear()
    WORKLOAD_CACHE.clear()
    GRAPH_CACHE.clear()
    GRAPH_BATCH_CACHE.clear()
    STEP_COST_CACHE.clear()
    with _WORKER_LOCK:
        _WORKER_STATS.clear()


def cache_stats(include_workers: bool = True) -> dict[str, dict[str, Any]]:
    """Per-cache statistics, keyed by cache name (for ``--report``).

    With ``include_workers`` (the default), counters reported back by
    ``executor="process"`` workers are summed into each cache's entry —
    ``hit_rate`` is recomputed over the merged totals, the per-worker
    contribution stays visible under ``worker_*`` keys, and every entry
    carries the distinct worker-``processes`` count.  Workers themselves
    snapshot with ``include_workers=False`` to return only their own
    counters.
    """
    stats = {
        TIMING_CACHE.name: TIMING_CACHE.stats(),
        WORKLOAD_CACHE.name: WORKLOAD_CACHE.stats(),
        GRAPH_CACHE.name: GRAPH_CACHE.stats(),
        GRAPH_BATCH_CACHE.name: GRAPH_BATCH_CACHE.stats(),
        STEP_COST_CACHE.name: STEP_COST_CACHE.stats(),
    }
    if not include_workers:
        return stats
    with _WORKER_LOCK:
        if not _WORKER_STATS:
            return stats
        processes = len(_WORKER_STATS)
        for snapshot in _WORKER_STATS.values():
            for name, doc in snapshot.items():
                entry = stats.get(name)
                if entry is None:
                    continue
                for counter in _MERGED_COUNTERS:
                    if counter in doc and counter in entry:
                        entry[counter] += doc[counter]
                        key = f"worker_{counter}"
                        entry[key] = entry.get(key, 0) + doc[counter]
    for entry in stats.values():
        entry["processes"] = processes
        total = entry["hits"] + entry["misses"]
        entry["hit_rate"] = entry["hits"] / total if total else 0.0
    return stats
