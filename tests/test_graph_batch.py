"""Unit tests: compiled-topology scheduling and graph symmetry reduction.

Every fast path introduced by the raw-speed round-2 work must be *bit*
identical (``==`` on every float, never approximate) to the retained
list scheduler:

* :func:`repro.graph.batch.fast_schedule` — the compiled max/add
  recurrence on chain topologies, with an exact-verification fallback;
* :func:`repro.graph.batch.schedule` — the production dispatch: the
  symmetry fold, then the recurrence, with cached compiled structures;
* :func:`repro.graph.scheduler.reduce_symmetry` /
  :func:`~repro.graph.scheduler.expand_symmetry` — the rank-equivalence
  fold for rank-blocked multi-rank graphs;
* :func:`repro.perf.cached_graph_schedule` — the cached entry point and
  its reference bypass.
"""

import pytest

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
    build_training_graph,
    compile_topology,
    des_schedule,
    expand_symmetry,
    fast_schedule,
    list_schedule,
    reduce_symmetry,
)
from repro.graph.batch import schedule

PHASES = (
    LayerPhase(NodeKind.GATE, 12.0),
    LayerPhase(NodeKind.DISPATCH, 40.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 55.0),
    LayerPhase(NodeKind.ACTIVATION, 6.0),
    LayerPhase(NodeKind.EXPERT, 48.0),
    LayerPhase(NodeKind.COMBINE, 33.0, comm=True),
    LayerPhase(NodeKind.HOST, 3.0),
)


def _forward(policy="per_layer", stragglers=None, num_layers=4):
    return build_forward_graph(PHASES, 25.0, num_layers, policy, stragglers)


def _assert_identical(schedule, reference):
    assert schedule.start_us == reference.start_us
    assert schedule.finish_us == reference.finish_us
    assert schedule.rank_makespans() == reference.rank_makespans()


class TestCompiledTopology:
    def test_empty_graph(self):
        graph = ScheduleGraph()
        topo = compile_topology(graph)
        assert topo.chain_ok and topo.num_nodes == 0
        assert fast_schedule(graph, topo).finish_us == ()

    def test_per_layer_forward_is_chain(self):
        topo = compile_topology(_forward("per_layer"))
        assert topo.chain_ok

    def test_cross_layer_forward_is_chain(self):
        topo = compile_topology(_forward("cross_layer"))
        assert topo.chain_ok

    def test_shortcut_is_not_chain(self):
        # Gate and attention are independently ready on one compute
        # stream under shortcut: dispatch order depends on durations, so
        # the recurrence is unsound and must be refused.
        topo = compile_topology(_forward("shortcut"))
        assert not topo.chain_ok

    def test_cross_layer_training_is_not_chain(self):
        graph = build_training_graph(
            PHASES, PHASES, 25.0, 50.0, 3, 80.0, 20.0, "cross_layer"
        )
        assert not compile_topology(graph).chain_ok

    def test_fallback_still_identical(self):
        graph = _forward("shortcut")
        _assert_identical(fast_schedule(graph), list_schedule(graph))

    def test_topology_fingerprint_ignores_durations(self):
        slow = StragglerSpec.slow_rank(4, rank=1, compute_mult=1.5)
        slower = StragglerSpec.slow_rank(4, rank=1, compute_mult=2.5)
        a = _forward(stragglers=slow)
        b = _forward(stragglers=slower)
        assert a.fingerprint() != b.fingerprint()
        assert a.topology_fingerprint() == b.topology_fingerprint()

    def test_node_count_mismatch_rejected(self):
        topo = compile_topology(_forward(num_layers=2))
        with pytest.raises(ValueError):
            fast_schedule(_forward(num_layers=3), topo)


class TestFastSchedule:
    @pytest.mark.parametrize("policy", ["per_layer", "cross_layer", "shortcut"])
    def test_single_rank_identical(self, policy):
        graph = _forward(policy)
        _assert_identical(fast_schedule(graph), list_schedule(graph))

    @pytest.mark.parametrize("policy", ["per_layer", "cross_layer"])
    def test_straggler_graph_identical(self, policy):
        spec = StragglerSpec.slow_rank(8, rank=3, compute_mult=1.7, comm_mult=1.2)
        graph = _forward(policy, stragglers=spec)
        assert compile_topology(graph).chain_ok
        reference = list_schedule(graph)
        _assert_identical(fast_schedule(graph), reference)
        finish, makespan = des_schedule(graph)
        assert finish == reference.finish_us
        assert makespan == reference.makespan_us

    def test_training_per_layer_identical(self):
        spec = StragglerSpec.slow_rank(4, rank=0, compute_mult=1.5)
        graph = build_training_graph(
            PHASES, PHASES, 25.0, 50.0, 3, 80.0, 20.0, "per_layer", spec
        )
        _assert_identical(fast_schedule(graph), list_schedule(graph))


class TestSchedule:
    def setup_method(self):
        perf.clear_caches()

    def teardown_method(self):
        perf.clear_caches()

    def test_same_topology_reuses_compiled_structures(self):
        # One topology, five duration vectors: the first graph compiles
        # the structures, the rest run on the cached ones.
        for m in (1.0, 1.3, 1.7, 2.2, 3.1):
            graph = _forward(
                stragglers=StragglerSpec.slow_rank(4, rank=2, compute_mult=m)
            )
            fast = schedule(graph)
            assert fast.graph is graph
            _assert_identical(fast, list_schedule(graph))

    def test_mixed_topologies(self):
        for graph in (
            _forward("per_layer"),
            _forward("shortcut"),  # non-chain: list-scheduler fallback
            _forward("per_layer", StragglerSpec.slow_rank(2, 0, 1.5)),
            _forward("cross_layer"),
            _forward("shortcut", StragglerSpec.slow_rank(4, 1, 2.5)),
        ):
            _assert_identical(schedule(graph), list_schedule(graph))

    def test_empty_graph(self):
        assert schedule(ScheduleGraph()).finish_us == ()

    def test_assignment_dependent_reduction(self):
        # A barrier on rank 1 alone makes the reduced deps depend on
        # which ranks share a class, so the reduced topology is cached
        # per assignment rather than per class count.
        for slow in (1, 2):
            graph = ScheduleGraph()
            heads = [
                graph.add(
                    NodeKind.EXPERT,
                    7.0 if rank == slow else 5.0,
                    Stream(COMPUTE, rank),
                )
                for rank in range(3)
            ]
            for rank in range(3):
                graph.add(
                    NodeKind.COMBINE, 3.0, Stream(COMM, rank), deps=(heads[1],)
                )
            _assert_identical(schedule(graph), list_schedule(graph))


class TestSymmetryReduction:
    def test_uniform_graph_collapses_to_one_rank(self):
        spec = StragglerSpec.uniform(8)
        graph = _forward(stragglers=spec)
        symmetry = reduce_symmetry(graph)
        assert symmetry is not None
        assert symmetry.reps == (0,)
        assert symmetry.world == 8
        assert len(symmetry.reduced) == len(graph) // 8

    def test_k_distinct_classes(self):
        # 8 ranks, 2 distinct multiplier classes -> 2 scheduled ranks.
        spec = StragglerSpec(
            compute_mult=(1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5),
            comm_mult=(1.0,) * 8,
            expert_mult=(1.0,) * 8,
            name="alternating",
        )
        graph = _forward(stragglers=spec)
        symmetry = reduce_symmetry(graph)
        assert symmetry is not None
        assert symmetry.reps == (0, 1)
        assert symmetry.rep_index == (0, 1, 0, 1, 0, 1, 0, 1)
        reduced = list_schedule(symmetry.reduced)
        expanded = expand_symmetry(
            graph, symmetry.rep_index, reduced.start_us, reduced.finish_us
        )
        _assert_identical(expanded, list_schedule(graph))

    @pytest.mark.parametrize("policy", ["per_layer", "cross_layer", "shortcut"])
    def test_expansion_identical_across_policies(self, policy):
        spec = StragglerSpec.slow_rank(6, rank=4, compute_mult=1.9)
        graph = _forward(policy, stragglers=spec)
        symmetry = reduce_symmetry(graph)
        assert symmetry is not None
        assert symmetry.reps == (0, 4)
        reduced = list_schedule(symmetry.reduced)
        expanded = expand_symmetry(
            graph, symmetry.rep_index, reduced.start_us, reduced.finish_us
        )
        reference = list_schedule(graph)
        _assert_identical(expanded, reference)
        finish, _ = des_schedule(graph)
        assert expanded.finish_us == finish

    def test_training_graph_reduces(self):
        spec = StragglerSpec.slow_rank(4, rank=1, compute_mult=1.4)
        graph = build_training_graph(
            PHASES, PHASES, 25.0, 50.0, 2, 80.0, 20.0, "per_layer", spec
        )
        symmetry = reduce_symmetry(graph)
        assert symmetry is not None
        reduced = list_schedule(symmetry.reduced)
        expanded = expand_symmetry(
            graph, symmetry.rep_index, reduced.start_us, reduced.finish_us
        )
        _assert_identical(expanded, list_schedule(graph))

    def test_all_distinct_ranks_returns_none(self):
        spec = StragglerSpec(
            compute_mult=(1.0, 1.25, 1.5, 1.75),
            comm_mult=(1.0,) * 4,
            expert_mult=(1.0,) * 4,
            name="staircase",
        )
        assert reduce_symmetry(_forward(stragglers=spec)) is None

    def test_single_rank_returns_none(self):
        assert reduce_symmetry(_forward()) is None

    def test_non_blocked_graph_returns_none(self):
        # Hand-built graph whose node order is not rank-blocked.
        graph = ScheduleGraph()
        a = graph.add(NodeKind.EXPERT, 5.0, Stream(COMPUTE, 0))
        b = graph.add(NodeKind.EXPERT, 5.0, Stream(COMPUTE, 1), deps=(a,))
        graph.add(NodeKind.COMBINE, 3.0, Stream(COMM, 0), deps=(a, b))
        assert reduce_symmetry(graph) is None


class TestPerfIntegration:
    def setup_method(self):
        perf.clear_caches()

    def teardown_method(self):
        perf.clear_caches()

    @pytest.mark.parametrize("policy", ["per_layer", "cross_layer", "shortcut"])
    def test_cached_graph_schedule_identical(self, policy):
        spec = StragglerSpec.slow_rank(8, rank=5, compute_mult=1.6)
        graph = _forward(policy, stragglers=spec)
        with perf.disabled():
            reference = list_schedule(graph)
        fast = perf.cached_graph_schedule(graph)
        _assert_identical(fast, reference)

    def test_graph_batch_cache_counts(self):
        spec_a = StragglerSpec.slow_rank(4, rank=0, compute_mult=1.5)
        spec_b = StragglerSpec.slow_rank(4, rank=0, compute_mult=2.0)
        perf.cached_graph_schedule(_forward(stragglers=spec_a))
        first = perf.cache_stats()["graph_batch"]
        # The cache holds the per-topology compiled artifacts (block
        # structure, reduced recurrence, ...): all cold on first use.
        assert first["misses"] > 0 and first["hits"] == 0 and first["size"] > 0
        # Same topology, different durations: every artifact is reused —
        # no new misses, no new entries.
        perf.cached_graph_schedule(_forward(stragglers=spec_b))
        second = perf.cache_stats()["graph_batch"]
        assert second["hits"] > 0
        assert second["misses"] == first["misses"]
        assert second["size"] == first["size"]

    def test_disabled_restores_list_schedule(self):
        graph = _forward(stragglers=StragglerSpec.slow_rank(4, 1, 1.5))
        with perf.disabled():
            schedule = perf.cached_graph_schedule(graph)
            assert len(perf.GRAPH_CACHE) == 0
            assert len(perf.GRAPH_BATCH_CACHE) == 0
        _assert_identical(schedule, list_schedule(graph))

    def test_cache_hit_identical(self):
        graph = _forward(stragglers=StragglerSpec.slow_rank(4, 1, 1.5))
        first = perf.cached_graph_schedule(graph)
        assert perf.cached_graph_schedule(graph) is first
        assert perf.GRAPH_CACHE.hits == 1
        _assert_identical(first, list_schedule(graph))
