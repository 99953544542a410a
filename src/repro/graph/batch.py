"""Compiled graph scheduling: one topology, many duration vectors.

Grid sweeps schedule thousands of graphs that share a *topology* —
node kinds, streams, and dependency edges — and differ only in node
durations (one graph per system x scenario x straggler point).  The
list scheduler re-derives the dispatch order from scratch for each one;
this module compiles the order once per topology and replays it as a
pure max/add recurrence, the same generalisation step the wave
scheduler applied to the per-tile heapq loop in
:mod:`repro.kernels.fused`.

The compilation is sound only for *chain topologies*: every stream's
nodes form a transitive dependency chain (each node's immediately
preceding same-stream node is one of its dependency ancestors).  Then
the dispatch order on every stream is forced to node-id order for *any*
duration assignment, and — because finish times are monotone along
dependency paths — a node's stream is always free by the time its
dependencies resolve, so::

    begin[i]  = max(finish[d] for d in deps[i])   (0.0 with no deps)
    finish[i] = begin[i] + duration[i]

reproduces :func:`repro.graph.scheduler.list_schedule` exactly, float
bit for float bit (``max`` over the same floats, the same single
addition).  The per-layer lowering — including every per-rank straggler
graph, whose barrier unions contain each rank's own chain — and the
cross-layer forward lowering are chain topologies; the ``shortcut``
policy (gate and attention independently ready on one compute stream)
and cross-layer *training* graphs (the detached combine is not an
ancestor of the gradient chunk) are not, and fall back to the list
scheduler.  :func:`compile_topology` verifies the property exactly, per
topology, with a per-stream reachability pass — there is no heuristic
that could silently change results.

:func:`schedule` is the production entry point behind
:func:`repro.perf.cached_graph_schedule`.  Rank-blocked multi-rank
graphs first fold exchangeable ranks to one representative per class
(:func:`~repro.graph.scheduler.rank_classes`), schedule the reduced
graph, and expand the times back out
(:func:`~repro.graph.scheduler.expand_symmetry`).  Every
duration-independent artifact — the compiled topology, the block
structure, the compiled reduced topology — is cached in
:data:`repro.perf.GRAPH_BATCH_CACHE`, keyed by :func:`topology_key`, so
a sweep pays each compilation once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro import perf
from repro.graph.ir import ScheduleGraph
from repro.graph.scheduler import (
    GraphSchedule,
    block_structure,
    expand_symmetry,
    list_schedule,
    rank_classes,
    reduced_graph,
)

__all__ = [
    "CompiledTopology",
    "compile_topology",
    "compiled_topology",
    "fast_schedule",
    "schedule",
    "topology_key",
]


@dataclass(frozen=True)
class CompiledTopology:
    """One topology's verified dispatch structure, duration-free.

    ``chain_ok`` records whether the chain property holds; when it does
    not, the recurrence is unsound and every scheduler entry point falls
    back to :func:`~repro.graph.scheduler.list_schedule`.

    ``key`` is the topology identity used for caching — the cheap
    :func:`topology_key` when compiled through :func:`compiled_topology`,
    else the graph's topology fingerprint.
    """

    key: object
    num_nodes: int
    chain_ok: bool
    deps: tuple[tuple[int, ...], ...] = field(default=(), repr=False)


def compile_topology(
    graph: ScheduleGraph, key: object = None
) -> CompiledTopology:
    """Verify the chain property and capture the dependency structure.

    The verification is exact: for every node, a reachability pass
    computes the highest-id dependency *ancestor* per stream, and the
    chain property holds iff that ancestor is at least the node's
    immediately preceding same-stream node.  (Same-stream nodes with ids
    between the two are then ancestors too, by induction along the
    chain.)

    ``key`` overrides the stored topology identity; callers that already
    hold a cheap equivalent pass it to skip the sha1 fingerprint walk.
    """
    n = len(graph)
    if key is None:
        key = graph.topology_fingerprint()
    if n == 0:
        return CompiledTopology(key=key, num_nodes=0, chain_ok=True)

    stream_index = {stream: i for i, stream in enumerate(graph.streams())}
    num_streams = len(stream_index)
    sidx = [stream_index[node.stream] for node in graph.nodes]

    prev_on_stream = [-1] * n
    last_seen = [-1] * num_streams
    for i, s in enumerate(sidx):
        prev_on_stream[i] = last_seen[s]
        last_seen[s] = i

    # reach[i, s]: highest id among node i's dependency ancestors *or i
    # itself* on stream s (-1 if none).  Rows build in id order, so every
    # dependency's row is final when consumed.
    chain_ok = True
    reach = np.full((n, num_streams), -1, dtype=np.int32)
    empty = np.full(num_streams, -1, dtype=np.int32)
    for i in range(n):
        deps = graph.preds[i]
        if deps:
            row = reach[list(deps)].max(axis=0)
        else:
            row = empty.copy()
        prev = prev_on_stream[i]
        if prev >= 0 and row[sidx[i]] < prev:
            chain_ok = False
            break
        row[sidx[i]] = i
        reach[i] = row

    if not chain_ok:
        return CompiledTopology(key=key, num_nodes=n, chain_ok=False)
    return CompiledTopology(
        key=key,
        num_nodes=n,
        chain_ok=True,
        deps=tuple(graph.preds),
    )


def topology_key(graph: ScheduleGraph) -> tuple:
    """Cheap structural identity for the graph-level caches.

    The lowering builders stamp every graph with an O(1)
    ``topology_token`` covering everything node topology depends on
    (policy, layer count, rank count, per-position phase shape with its
    zero/nonzero activity pattern); hand-built graphs — and any graph
    mutated after building, which resets the token — fall back to the
    sha1 :meth:`~repro.graph.ir.ScheduleGraph.topology_fingerprint`.
    The two forms are prefix-tagged so they can never collide.
    """
    token = graph.topology_token
    if token is not None:
        return ("token", token)
    return ("sha1", graph.topology_fingerprint())


def _cached(key: tuple, build: Callable[[], Any]) -> Any:
    """``build()``, memoised in :data:`repro.perf.GRAPH_BATCH_CACHE`."""
    entry = perf.GRAPH_BATCH_CACHE.get(key)
    if entry is None:
        entry = perf.GRAPH_BATCH_CACHE.put(key, build())
    return entry


def compiled_topology(
    graph: ScheduleGraph, key: tuple | None = None
) -> CompiledTopology:
    """The :class:`CompiledTopology` for ``graph``, cached per
    :func:`topology_key` (durations excluded), so every graph a sweep
    produces for one (model, policy, straggler-shape) point reuses one
    compiled recurrence.  Pass ``key`` when it is already known."""
    if key is None:
        key = topology_key(graph)
    return _cached(("topo", key), lambda: compile_topology(graph, key))


def _recurrence(
    deps: Sequence[Sequence[int]], durations: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Start and finish times of a chain topology: the max/add recurrence."""
    n = len(deps)
    start = [0.0] * n
    finish = [0.0] * n
    for i, node_deps in enumerate(deps):
        begin = 0.0
        for d in node_deps:
            f = finish[d]
            if f > begin:
                begin = f
        start[i] = begin
        finish[i] = begin + durations[i]
    return start, finish


# parity: repro.graph.scheduler.list_schedule
def fast_schedule(
    graph: ScheduleGraph, topology: CompiledTopology | None = None
) -> GraphSchedule:
    """Schedule one graph through its compiled topology.

    Bit-identical to :func:`~repro.graph.scheduler.list_schedule` on
    chain topologies; delegates to it otherwise.  Pass a pre-compiled
    ``topology`` (e.g. from :func:`compiled_topology`) to amortise the
    verification across a sweep.
    """
    if topology is None:
        topology = compile_topology(graph)
    if not topology.chain_ok:
        return list_schedule(graph)
    if topology.num_nodes != len(graph):
        raise ValueError(
            f"compiled topology has {topology.num_nodes} nodes, "
            f"graph has {len(graph)}"
        )
    start, finish = _recurrence(topology.deps, graph.durations)
    return GraphSchedule(
        graph=graph, start_us=tuple(start), finish_us=tuple(finish)
    )


#: GRAPH_BATCH_CACHE sentinel (BoundedCache cannot store None).
_NOT_BLOCKED = "not-rank-blocked"


# parity: repro.graph.scheduler.list_schedule
def schedule(
    graph: ScheduleGraph, durations: np.ndarray | None = None
) -> GraphSchedule:
    """Schedule ``graph``, folding exchangeable ranks first.

    ``durations`` is the graph's float64 duration vector, when the
    caller already holds it.  Graphs that are not rank-blocked, and
    rank-blocked graphs whose ranks are all distinct, schedule whole
    through :func:`fast_schedule`.  Otherwise the reduced graph's
    compiled topology is cached per (topology, class count) — or per
    (topology, rank→class assignment) when the block structure does not
    make the reduced dependencies assignment-independent — and the
    reduced times come from the recurrence on chain topologies and from
    the list scheduler otherwise.  Every branch returns floats
    bit-identical to :func:`~repro.graph.scheduler.list_schedule` on
    the full graph.
    """
    if durations is None:
        durations = np.asarray(graph.durations, dtype=np.float64)
    key = topology_key(graph)
    structure = _cached(
        ("sym", key), lambda: block_structure(graph) or _NOT_BLOCKED
    )
    if structure is _NOT_BLOCKED:
        return fast_schedule(graph, compiled_topology(graph, key))
    reps, rep_index = rank_classes(durations, structure.world)
    k = len(reps)
    if k == structure.world:
        return fast_schedule(graph, compiled_topology(graph, key))
    reduced_key = ("reduced", key, k if structure.reusable_deps else rep_index)
    topology = _cached(
        reduced_key,
        lambda: compile_topology(
            reduced_graph(graph, structure, reps, rep_index), reduced_key
        ),
    )
    if topology.chain_ok:
        matrix = durations.reshape(structure.blocks, structure.world)
        start, finish = _recurrence(
            topology.deps, matrix[:, reps].reshape(-1).tolist()
        )
    else:
        reduced = list_schedule(reduced_graph(graph, structure, reps, rep_index))
        start, finish = reduced.start_us, reduced.finish_us
    return expand_symmetry(graph, rep_index, start, finish)
