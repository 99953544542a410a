"""Property suite: symmetry-reduced and batched schedules == list == DES.

Hypothesis-driven generators covering the graph scheduling production
path (:func:`repro.graph.batch.schedule`) and its parts:

* *chain graphs* — per-stream transitive chains with random extra edges,
  the shape :func:`repro.graph.batch.compile_topology` must verify and
  the compiled recurrence must reproduce exactly;
* *rank-blocked graphs* — random barrier / rank-local block structures
  over random straggler-class assignments (zero durations included),
  the shape :func:`repro.graph.scheduler.reduce_symmetry` folds;
* *arbitrary graphs* — no structure guaranteed; every entry point must
  agree with :func:`~repro.graph.scheduler.list_schedule` whether it
  takes a fast path or falls back;
* *builder graphs* — real :func:`~repro.graph.lower.build_forward_graph`
  lowerings over random straggler classes, scheduled through
  :func:`repro.perf.cached_graph_schedule`.

All assertions are exact ``==`` on floats — never approximate — and the
DES reference executor arbitrates.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.graph import (
    COMM,
    COMPUTE,
    LayerPhase,
    NodeKind,
    ScheduleGraph,
    StragglerSpec,
    Stream,
    build_forward_graph,
    compile_topology,
    des_schedule,
    expand_symmetry,
    fast_schedule,
    list_schedule,
    reduce_symmetry,
)
from repro.graph.batch import schedule

KINDS = tuple(NodeKind)

PHASES = (
    LayerPhase(NodeKind.GATE, 9.0),
    LayerPhase(NodeKind.DISPATCH, 31.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 44.0),
    LayerPhase(NodeKind.COMBINE, 27.0, comm=True),
    LayerPhase(NodeKind.HOST, 2.0),
)


def _duration(rng, zero_fraction):
    if rng.random() < zero_fraction:
        return 0.0
    return rng.choice((1.0, 1.0, 2.5, 7.0, rng.uniform(0.1, 30.0)))


def _chain_graph(seed, num_nodes, num_ranks, zero_fraction):
    """Random graph satisfying the chain property by construction:
    every node depends directly on its stream predecessor."""
    rng = random.Random(seed)
    graph = ScheduleGraph()
    last_on_stream: dict[Stream, int] = {}
    for node_id in range(num_nodes):
        rank = rng.randrange(num_ranks)
        stream = Stream(COMM if rng.random() < 0.4 else COMPUTE, rank)
        deps = set()
        prev = last_on_stream.get(stream)
        if prev is not None:
            deps.add(prev)
        extra = rng.randint(0, min(2, node_id))
        if extra:
            deps.update(rng.sample(range(node_id), extra))
        new_id = graph.add(
            rng.choice(KINDS),
            _duration(rng, zero_fraction),
            stream,
            deps=sorted(deps),
        )
        last_on_stream[stream] = new_id
    return graph


def _blocked_graph(seed, blocks, world, classes, zero_fraction):
    """Rank-blocked graph over random straggler classes.

    Block dependency structure alternates randomly between barriers
    (one dep tuple covering full earlier blocks, shared by every rank)
    and rank-local patterns; durations are drawn once per (block,
    class), so ranks of one class carry bit-equal duration vectors.
    """
    rng = random.Random(seed)
    class_of = [rng.randrange(classes) for _ in range(world)]
    graph = ScheduleGraph()
    for b in range(blocks):
        kind = rng.choice(KINDS)
        stream_kind = COMM if rng.random() < 0.4 else COMPUTE
        dep_blocks = (
            sorted(rng.sample(range(b), rng.randint(1, min(b, 2))))
            if b
            else []
        )
        barrier = bool(dep_blocks) and rng.random() < 0.5
        shared = tuple(
            pb * world + r for pb in dep_blocks for r in range(world)
        )
        class_durations = {
            c: _duration(rng, zero_fraction) for c in set(class_of)
        }
        for r in range(world):
            deps = (
                shared
                if barrier
                else tuple(pb * world + r for pb in dep_blocks)
            )
            graph.add(
                kind,
                class_durations[class_of[r]],
                Stream(stream_kind, r),
                deps=deps,
                layer=b % 3,
            )
    return graph, class_of


def _random_graph(seed, num_nodes, num_ranks, zero_fraction):
    """Arbitrary random DAG (no chain or block structure guaranteed)."""
    rng = random.Random(seed)
    graph = ScheduleGraph()
    for node_id in range(num_nodes):
        rank = rng.randrange(num_ranks)
        stream = Stream(COMM if rng.random() < 0.4 else COMPUTE, rank)
        num_deps = rng.randint(0, min(3, node_id))
        deps = rng.sample(range(node_id), num_deps) if num_deps else ()
        graph.add(
            rng.choice(KINDS),
            _duration(rng, zero_fraction),
            stream,
            deps=deps,
            layer=node_id % 4,
        )
    return graph


def _assert_trio(schedule, graph):
    """schedule == list_schedule == DES, starts included."""
    reference = list_schedule(graph)
    assert schedule.start_us == reference.start_us
    assert schedule.finish_us == reference.finish_us
    assert schedule.rank_makespans() == reference.rank_makespans()
    finish, makespan = des_schedule(graph)
    assert finish == reference.finish_us
    assert makespan == reference.makespan_us


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=1, max_value=60),
    num_ranks=st.sampled_from((1, 2, 4, 8)),
    zero_fraction=st.sampled_from((0.0, 0.25, 0.6)),
)
@settings(max_examples=100, deadline=None)
def test_chain_graphs_take_fast_path(seed, num_nodes, num_ranks, zero_fraction):
    graph = _chain_graph(seed, num_nodes, num_ranks, zero_fraction)
    topology = compile_topology(graph)
    assert topology.chain_ok  # by construction, and verified exactly
    _assert_trio(fast_schedule(graph, topology), graph)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    blocks=st.integers(min_value=1, max_value=12),
    world=st.sampled_from((2, 3, 4, 8)),
    classes=st.sampled_from((1, 2, 3)),
    zero_fraction=st.sampled_from((0.0, 0.3)),
)
@settings(max_examples=100, deadline=None)
def test_blocked_graphs_fold_and_expand_exactly(
    seed, blocks, world, classes, zero_fraction
):
    graph, class_of = _blocked_graph(seed, blocks, world, classes, zero_fraction)
    symmetry = reduce_symmetry(graph)
    if len(set(class_of)) < world:
        # Duration classes can only merge rank signatures further, so a
        # reduction must exist whenever the assignment repeats a class.
        assert symmetry is not None
    if symmetry is None:
        _assert_trio(fast_schedule(graph), graph)
        return
    assert len(symmetry.reps) < world
    assert len(symmetry.reduced) == graph.__len__() // world * len(symmetry.reps)
    reduced = list_schedule(symmetry.reduced)
    expanded = expand_symmetry(
        graph, symmetry.rep_index, reduced.start_us, reduced.finish_us
    )
    _assert_trio(expanded, graph)
    # The composed perf path (symmetry + compiled recurrence + cache).
    perf.clear_caches()
    _assert_trio(perf.cached_graph_schedule(graph), graph)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=0, max_value=50),
    num_ranks=st.sampled_from((1, 2, 3, 8)),
    zero_fraction=st.sampled_from((0.0, 0.25, 1.0)),
)
@settings(max_examples=100, deadline=None)
def test_arbitrary_graphs_never_diverge(seed, num_nodes, num_ranks, zero_fraction):
    graph = _random_graph(seed, num_nodes, num_ranks, zero_fraction)
    _assert_trio(fast_schedule(graph), graph)
    perf.clear_caches()
    _assert_trio(perf.cached_graph_schedule(graph), graph)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_schedule_with_warm_structures(seed, batch):
    """Graphs scheduled one after another share cached compiled
    structures whenever their topologies coincide; none may diverge."""
    rng = random.Random(seed)
    perf.clear_caches()
    for _ in range(batch):
        if rng.random() < 0.5:
            graph = _chain_graph(rng.randrange(10_000), 30, 2, 0.2)
        else:
            graph = _random_graph(rng.randrange(10_000), 30, 2, 0.2)
        fast = schedule(graph)
        assert fast.graph is graph
        _assert_trio(fast, graph)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    world=st.sampled_from((1, 2, 4, 8)),
    classes=st.sampled_from((1, 2, 3)),
    policy=st.sampled_from(("per_layer", "cross_layer", "shortcut")),
)
@settings(max_examples=60, deadline=None)
def test_builder_graphs_with_random_straggler_classes(seed, world, classes, policy):
    rng = random.Random(seed)
    multipliers = [round(rng.uniform(1.0, 3.0), 2) for _ in range(classes)]
    if world == 1:
        stragglers = None  # single-rank degenerate
    else:
        stragglers = StragglerSpec(
            compute_mult=tuple(
                multipliers[rng.randrange(classes)] for _ in range(world)
            ),
            comm_mult=(1.0,) * world,
            expert_mult=(1.0,) * world,
            name=f"random{seed}",
        )
    graph = build_forward_graph(PHASES, 20.0, 3, policy, stragglers)
    with perf.disabled():
        reference = list_schedule(graph)
    perf.clear_caches()
    fast = perf.cached_graph_schedule(graph)
    assert fast.start_us == reference.start_us
    assert fast.finish_us == reference.finish_us
    assert fast.rank_makespans() == reference.rank_makespans()
    finish, _ = des_schedule(graph)
    assert finish == reference.finish_us
