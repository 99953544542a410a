"""Deterministic analytic list scheduler for :class:`ScheduleGraph`.

The scheduler assigns every node a start and finish time under the IR's
execution semantics:

* a node may start once all its dependency predecessors have finished;
* nodes sharing a :class:`~repro.graph.ir.Stream` execute serially;
* when a stream is free and several nodes are ready, the lowest node id
  runs first (ids are assigned in graph construction order).

This is the same analytic event-loop style as the PR 3 wave scheduler in
:mod:`repro.kernels.fused`: a heap of completion events, per-stream
ready queues, no per-tick stepping.  All completions sharing one
timestamp are drained before any stream dispatches again, which makes
the dispatch order — and therefore every start/finish float — exactly
equal to the discrete-event reference executor in
:mod:`repro.graph.des_ref` (the cross-check tests assert ``==``, not
approximate agreement).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.graph.ir import GraphNode, ScheduleGraph, Stream

__all__ = [
    "BlockStructure",
    "GraphSchedule",
    "SymmetryReduction",
    "block_structure",
    "expand_symmetry",
    "list_schedule",
    "rank_classes",
    "rank_makespans",
    "reduce_symmetry",
    "reduced_graph",
]


def rank_makespans(
    graph: ScheduleGraph, finish_us: tuple[float, ...]
) -> dict[int, float]:
    """Latest finish per rank, keyed by rank id (ascending).

    Shared by the analytic :class:`GraphSchedule` and the DES reference
    executor (which returns raw finish tuples), so both report per-rank
    makespans through one definition: the makespan of rank *r* is the
    latest finish over every node on one of *r*'s streams.
    """
    spans: dict[int, float] = {}
    for node, finish in zip(graph.nodes, finish_us):
        rank = node.stream.rank
        if rank not in spans or finish > spans[rank]:
            spans[rank] = finish
    return dict(sorted(spans.items()))


@dataclass(frozen=True)
class GraphSchedule:
    """The result of scheduling one graph: per-node times and makespan."""

    graph: ScheduleGraph = field(repr=False)
    start_us: tuple[float, ...]
    finish_us: tuple[float, ...]

    @property
    def makespan_us(self) -> float:
        """End-to-end wall clock of the scheduled graph."""
        return max(self.finish_us, default=0.0)

    @property
    def makespan_ms(self) -> float:
        return self.makespan_us / 1000.0

    def stream_busy_us(self) -> dict[Stream, float]:
        """Total occupied time per stream (utilisation numerator)."""
        busy: dict[Stream, float] = {}
        for node in self.graph.nodes:
            busy[node.stream] = busy.get(node.stream, 0.0) + node.duration_us
        return busy

    def overlap_saved_us(self) -> float:
        """Work hidden by overlap: total work minus the makespan."""
        return self.graph.total_work_us - self.makespan_us

    # -- per-rank accessors (straggler & skew reporting) ----------------------
    def rank_makespans(self) -> dict[int, float]:
        """Latest finish per rank (multi-rank graphs; ``{0: makespan}``
        for the single-rank graphs the default lowering emits)."""
        return rank_makespans(self.graph, self.finish_us)

    def imbalance_us(self) -> float:
        """Spread between the slowest and fastest rank's makespan.

        Zero for single-rank graphs and for uniform per-rank graphs
        (every rank's timeline is identical); positive exactly when a
        straggler or placement skew leaves fast ranks idle at the end of
        the step.
        """
        spans = self.rank_makespans()
        if not spans:
            return 0.0
        values = spans.values()
        return max(values) - min(values)

    def straggler_rank(self) -> int:
        """The rank pacing the makespan (lowest id on exact ties)."""
        spans = self.rank_makespans()
        if not spans:
            return 0
        return min(spans, key=lambda rank: (-spans[rank], rank))

    def critical_path(self) -> list[GraphNode]:
        """One chain of nodes that paces the makespan, source to sink.

        Each step walks from a node to the predecessor that determined
        its start time: a dependency predecessor whose finish equals the
        start, or the node that ran immediately before it on the same
        stream (a resource wait).  Ties break toward the lowest id, so
        the path is deterministic.
        """
        if not self.graph.nodes:
            return []
        stream_prev = _stream_predecessors(self.graph, self.start_us)
        # Sink: latest finish, lowest id on ties.
        sink = min(
            range(len(self.graph)),
            key=lambda i: (-self.finish_us[i], i),
        )
        path = [sink]
        current = sink
        while self.start_us[current] > 0.0:
            candidates = [
                p
                for p in self.graph.preds[current]
                if self.finish_us[p] == self.start_us[current]
            ]
            prev_on_stream = stream_prev[current]
            if (
                prev_on_stream is not None
                and self.finish_us[prev_on_stream] == self.start_us[current]
            ):
                candidates.append(prev_on_stream)
            if not candidates:  # start pinned by a zero-length wait chain
                break
            current = min(candidates)
            path.append(current)
        path.reverse()
        return [self.graph.nodes[i] for i in path]


def _stream_predecessors(
    graph: ScheduleGraph, start_us: tuple[float, ...]
) -> list[int | None]:
    """For each node, the node that ran just before it on its stream."""
    order: dict[Stream, list[int]] = {}
    for node in graph.nodes:
        order.setdefault(node.stream, []).append(node.id)
    for ids in order.values():
        ids.sort(key=lambda i: (start_us[i], i))
    prev: list[int | None] = [None] * len(graph)
    for ids in order.values():
        for before, after in zip(ids, ids[1:]):
            prev[after] = before
    return prev


class _StreamState:
    __slots__ = ("busy", "free_at", "ready")

    def __init__(self) -> None:
        self.busy = False
        self.free_at = 0.0
        self.ready: list[int] = []  # heap of ready node ids


def list_schedule(graph: ScheduleGraph) -> GraphSchedule:
    """Schedule ``graph`` and return every node's start/finish time.

    Raises :class:`ValueError` if the graph contains a dependency cycle
    (impossible via :meth:`ScheduleGraph.add`, which only accepts edges
    from earlier nodes, but hand-built graphs are validated anyway).
    """
    n = len(graph)
    start = [0.0] * n
    finish = [0.0] * n
    if n == 0:
        return GraphSchedule(graph=graph, start_us=(), finish_us=())

    indegree = [len(deps) for deps in graph.preds]
    ready_at = [0.0] * n
    succs = graph.successors()
    streams: dict[Stream, _StreamState] = {
        stream: _StreamState() for stream in graph.streams()
    }

    events: list[tuple[float, int, int]] = []  # (finish, dispatch seq, node)
    seq = 0
    scheduled = 0

    def make_ready(node_id: int) -> None:
        heapq.heappush(streams[graph.nodes[node_id].stream].ready, node_id)

    def dispatch(state: _StreamState) -> None:
        nonlocal seq, scheduled
        if state.busy or not state.ready:
            return
        node_id = heapq.heappop(state.ready)
        node = graph.nodes[node_id]
        begin = state.free_at if state.free_at > ready_at[node_id] else ready_at[node_id]
        start[node_id] = begin
        finish[node_id] = begin + node.duration_us
        state.busy = True
        seq += 1
        scheduled += 1
        heapq.heappush(events, (finish[node_id], seq, node_id))

    for node_id in range(n):
        if indegree[node_id] == 0:
            make_ready(node_id)
    for state in streams.values():
        dispatch(state)

    while events:
        now = events[0][0]
        touched: dict[Stream, _StreamState] = {}
        # Drain every completion at this timestamp before dispatching,
        # mirroring the event ordering of the DES reference executor.
        while events and events[0][0] == now:
            _, _, node_id = heapq.heappop(events)
            node = graph.nodes[node_id]
            state = streams[node.stream]
            state.busy = False
            state.free_at = finish[node_id]
            touched[node.stream] = state
            for succ in succs[node_id]:
                if finish[node_id] > ready_at[succ]:
                    ready_at[succ] = finish[node_id]
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    make_ready(succ)
                    touched[graph.nodes[succ].stream] = streams[
                        graph.nodes[succ].stream
                    ]
        for state in touched.values():
            dispatch(state)

    if scheduled != n:
        raise ValueError(
            f"schedule graph has a dependency cycle: scheduled {scheduled} "
            f"of {n} nodes"
        )
    return GraphSchedule(
        graph=graph, start_us=tuple(start), finish_us=tuple(finish)
    )


# -- graph-level symmetry reduction -------------------------------------------
#
# The per-rank lowering (graph/lower.py) emits *rank-blocked* graphs:
# every structural position of the model is a block of ``world`` nodes —
# one per rank, in rank order — whose dependency sets are either a
# barrier (one node-id tuple shared by all ranks) or rank-local (every
# dep lands on the same rank, with one dep *block* pattern shared by all
# ranks).  In such a graph, two ranks whose duration bits agree in every
# block are exchangeable: their streams see the same ready times and the
# same dispatch order, so the list scheduler assigns them identical
# start/finish floats.  ``reduce_symmetry`` detects this shape, folds
# each equivalence class of ranks down to its lowest-ranked
# representative, and ``expand_symmetry`` replicates the representative
# times back out — bit-identical to scheduling the full graph (the
# property suite cross-checks against ``list_schedule`` and the DES
# reference).  Uniform and k-distinct-straggler graphs collapse from
# O(world) to O(k) scheduled streams.


@dataclass(frozen=True)
class SymmetryReduction:
    """A rank-blocked graph folded to one representative rank per class."""

    reduced: ScheduleGraph = field(repr=False)
    reps: tuple[int, ...]  # representative rank per class, ascending
    rep_index: tuple[int, ...]  # rank -> class index (into ``reps``)
    world: int
    blocks: int


@dataclass(frozen=True)
class BlockStructure:
    """The duration-independent half of a symmetry reduction.

    Everything here is a function of the graph's *topology* alone, so
    :mod:`repro.graph.batch` caches it per topology key and re-runs only
    the (cheap) duration classification per graph.
    """

    world: int
    blocks: int
    #: Per block: ``None`` for a barrier (one dep tuple shared by all
    #: ranks), else the rank-local dep *block* pattern.
    local_pattern: tuple[tuple[int, ...] | None, ...]
    #: True when every barrier's deps cover each referenced block for
    #: *all* ranks.  Then the reduced dependency structure is determined
    #: by the class count alone — first-occurrence class labels ascend in
    #: rank order, so each fully-covered dep block maps to all of its
    #: class representatives regardless of which ranks form the classes —
    #: and :mod:`repro.graph.batch` may reuse one compiled reduced
    #: topology across graphs with different rank→class assignments.
    reusable_deps: bool


def block_structure(graph: ScheduleGraph) -> BlockStructure | None:
    """Detect the rank-blocked shape :func:`reduce_symmetry` folds.

    Returns ``None`` whenever the graph is not rank-blocked or a block's
    dependency sets are neither barriers nor rank-local.
    """
    n = len(graph)
    if n == 0:
        return None
    ranks = graph.ranks()
    world = len(ranks)
    if world <= 1 or ranks != tuple(range(world)) or n % world:
        return None
    blocks = n // world
    nodes = graph.nodes
    preds = graph.preds

    # Rank-blocked layout: block b holds ranks 0..world-1 in order, all
    # sharing kind/layer/tag and the compute-or-comm stream side.
    for b in range(blocks):
        base = b * world
        first = nodes[base]
        if first.stream.rank != 0:
            return None
        for r in range(1, world):
            node = nodes[base + r]
            if (
                node.stream.rank != r
                or node.stream.kind != first.stream.kind
                or node.kind is not first.kind
                or node.layer != first.layer
                or node.tag != first.tag
            ):
                return None

    # Classify each block's dependencies: a barrier (identical tuple for
    # every rank) or rank-local (all deps on the own rank, one shared
    # block pattern).  Deps must come from strictly earlier blocks so the
    # reduced graph can be emitted in the same block order.
    local_pattern: list[tuple[int, ...] | None] = []
    reusable = True
    for b in range(blocks):
        base = b * world
        deps0 = preds[base]
        if all(preds[base + r] == deps0 for r in range(1, world)):
            if any(d // world >= b for d in deps0):
                return None
            local_pattern.append(None)
            if reusable:
                covered: dict[int, set[int]] = {}
                for d in deps0:
                    covered.setdefault(d // world, set()).add(d % world)
                reusable = all(
                    len(members) == world for members in covered.values()
                )
        else:
            pattern = tuple(d // world for d in deps0)
            if any(p >= b for p in pattern):
                return None
            for r in range(world):
                deps = preds[base + r]
                if any(d % world != r for d in deps):
                    return None
                if tuple(d // world for d in deps) != pattern:
                    return None
            local_pattern.append(pattern)
    return BlockStructure(
        world=world,
        blocks=blocks,
        local_pattern=tuple(local_pattern),
        reusable_deps=reusable,
    )


def rank_classes(
    durations: np.ndarray, world: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Group the ranks of a rank-blocked graph by duration bit pattern.

    ``durations`` is the graph's float64 duration vector (block-major,
    ``world`` ranks per block).  Two ranks share a class exactly when
    their durations agree bit for bit in every block.  Returns the
    representative (lowest) rank per class, ascending, and each rank's
    class index; class labels are assigned in order of first occurrence.
    """
    signatures = np.ascontiguousarray(durations.reshape(-1, world).T).tobytes()
    stride = len(signatures) // world  # one rank's duration bits
    classes: dict[bytes, int] = {}
    reps: list[int] = []
    rep_index = [0] * world
    for rank in range(world):
        signature = signatures[rank * stride : (rank + 1) * stride]
        j = classes.get(signature)
        if j is None:
            j = classes[signature] = len(reps)
            reps.append(rank)
        rep_index[rank] = j
    return tuple(reps), tuple(rep_index)


def reduced_graph(
    graph: ScheduleGraph,
    structure: BlockStructure,
    reps: tuple[int, ...],
    rep_index: tuple[int, ...],
) -> ScheduleGraph:
    """``graph`` with each rank class folded to its representative."""
    world = structure.world
    k = len(reps)
    nodes = graph.nodes
    preds = graph.preds
    reduced = ScheduleGraph()
    for b, pattern in enumerate(structure.local_pattern):
        base = b * world
        if pattern is None:
            # Barrier: map every dep to its class representative.  Class
            # members finish at bit-equal times, so the max over the
            # deduplicated representative set is the same float.
            shared = tuple(
                dict.fromkeys(
                    (d // world) * k + rep_index[d % world]
                    for d in preds[base]
                )
            )
        for j, r in enumerate(reps):
            node = nodes[base + r]
            deps = (
                shared
                if pattern is None
                else tuple(pb * k + j for pb in pattern)
            )
            reduced.add(
                node.kind,
                node.duration_us,
                node.stream,
                deps=deps,
                layer=node.layer,
                tag=node.tag,
            )
    return reduced


# parity: repro.graph.scheduler.list_schedule
def reduce_symmetry(graph: ScheduleGraph) -> SymmetryReduction | None:
    """Fold exchangeable ranks of a rank-blocked multi-rank graph.

    Returns ``None`` whenever the graph is not rank-blocked, its
    dependency sets are neither barriers nor rank-local, or every rank
    is already distinct — callers then schedule the full graph.  When a
    reduction is returned, scheduling ``reduced`` and replicating via
    :func:`expand_symmetry` equals scheduling ``graph`` directly, float
    bit for float bit.
    """
    structure = block_structure(graph)
    if structure is None:
        return None
    world = structure.world
    reps, rep_index = rank_classes(
        np.asarray(graph.durations, dtype=np.float64), world
    )
    if len(reps) >= world:
        return None  # every rank distinct: nothing to fold
    return SymmetryReduction(
        reduced=reduced_graph(graph, structure, reps, rep_index),
        reps=reps,
        rep_index=rep_index,
        world=world,
        blocks=structure.blocks,
    )


# parity: repro.graph.scheduler.list_schedule
def expand_symmetry(
    graph: ScheduleGraph,
    rep_index: tuple[int, ...],
    start_us: tuple[float, ...] | list[float],
    finish_us: tuple[float, ...] | list[float],
) -> GraphSchedule:
    """Replicate representative start/finish times to all class members.

    ``start_us``/``finish_us`` are the reduced graph's times and
    ``rep_index`` maps each rank to its class.  Every class member gets
    its representative's float objects, not copies.  The returned
    :class:`GraphSchedule` wraps the *full* graph, so ``rank_makespans``
    / ``imbalance_us`` / ``critical_path`` report over every rank exactly
    as if the full graph had been scheduled.
    """
    k = max(rep_index) + 1
    index = [
        base + j for base in range(0, len(start_us), k) for j in rep_index
    ]
    return GraphSchedule(
        graph=graph,
        start_us=tuple(map(start_us.__getitem__, index)),
        finish_us=tuple(map(finish_us.__getitem__, index)),
    )
