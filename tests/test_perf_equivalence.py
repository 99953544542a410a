"""Equivalence contract of the perf layer (repro.perf fast paths).

Every fast path must be *bit-identical* to the slow path it replaces:

* the analytic wave scheduler vs the retained heapq reference
  (property-based over random shapes, nc values, and arrival functions);
* rank-deduplicated COMET layer timing vs the undeduplicated loop on
  imbalanced workloads;
* the vectorised geometry (baseline_dispatch_route,
  unique_tokens_per_rank) vs loop references;
* the fast serving loop vs the DES, and cached/parallel grid execution
  vs the serial slow path — byte-identical exports.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MIXTRAL_8X7B,
    QWEN2_MOE,
    SYSTEM_REGISTRY,
    ExperimentSpec,
    ParallelStrategy,
    h800_node,
    perf,
)
from repro.kernels.fused import (
    layer0_makespan_analytic,
    layer0_makespan_reference,
    simulate_layer0_fused,
)
from repro.runtime.workload import make_workload
from repro.serve import ServeScenario, ServeSpec, TraceSpec
from repro.systems import Comet
from repro.tensor import build_layer0_schedule

CLUSTER = h800_node()


# ---------------------------------------------------------------------------
# Analytic layer0 scheduler vs heapq reference
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    nc=st.integers(min_value=1, max_value=64),
    world=st.sampled_from([1, 2, 4, 8]),
    experts=st.integers(min_value=1, max_value=6),
    scale=st.integers(min_value=1, max_value=8),
    cols=st.sampled_from([128, 1024, 4096]),
    use_arrival_fn=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_analytic_scheduler_bit_identical(
    seed, nc, world, experts, scale, cols, use_arrival_fn
):
    """Random shapes, nc values, and arrival functions: the analytic
    scheduler's FusedKernelResult equals the heapq reference's exactly."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 150 * scale, size=(world, experts)).astype(np.int64)
    schedule = build_layer0_schedule(pairs, rank=0)
    arrival_fn = None
    if use_arrival_fn and schedule.num_remote:
        base = float(rng.uniform(1, 10))
        step = float(rng.uniform(0.001, 0.5))
        arrival_fn = lambda i: base + (i + 1) * step  # noqa: E731
    kwargs = dict(
        token_bytes=4096,
        k=2048,
        cols=cols,
        nc=nc if schedule.num_remote else 0,
        arrival_fn=arrival_fn,
    )
    with perf.disabled():
        slow = simulate_layer0_fused(CLUSTER.gpu, CLUSTER.link, schedule, **kwargs)
    fast = simulate_layer0_fused(CLUSTER.gpu, CLUSTER.link, schedule, **kwargs)
    assert slow == fast  # bit-identical, not approx


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    np_blocks=st.integers(min_value=1, max_value=140),
    col_tiles=st.integers(min_value=1, max_value=40),
    blocks=st.integers(min_value=0, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_wave_recurrence_bit_identical(seed, np_blocks, col_tiles, blocks):
    """The raw makespan functions agree on arbitrary ready vectors."""
    rng = np.random.default_rng(seed)
    ready = np.sort(rng.uniform(0.0, 50.0, size=blocks))
    per_tile = float(rng.uniform(0.01, 2.0))
    order = np.arange(blocks)
    reference = layer0_makespan_reference(
        ready, order, col_tiles, np_blocks, per_tile
    )
    analytic = layer0_makespan_analytic(ready, col_tiles, np_blocks, per_tile)
    assert reference == analytic


# ---------------------------------------------------------------------------
# Rank deduplication
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tp,ep", [(1, 8), (2, 4), (4, 2)])
@pytest.mark.parametrize("imbalance_std", [0.0, 0.02, 0.04])
def test_rank_dedup_identical_layer_timing(tp, ep, imbalance_std):
    """Deduplicated rank loops return the same LayerTiming as the full
    loop, including on imbalanced workloads where few ranks collapse."""
    workload = make_workload(
        MIXTRAL_8X7B,
        CLUSTER,
        ParallelStrategy(tp_size=tp, ep_size=ep),
        total_tokens=4096,
        imbalance_std=imbalance_std,
        seed=3,
    )
    with perf.disabled():
        slow = Comet().time_layer(workload)
    fast = Comet().time_layer(workload)
    assert slow == fast


def test_rank_dedup_fabric_mode_unaffected():
    """Fabric contention gives each rank its own arrival curve; dedup must
    leave that path alone."""
    workload = make_workload(
        MIXTRAL_8X7B, CLUSTER, ParallelStrategy(1, 8), total_tokens=2048
    )
    with perf.disabled():
        slow = Comet(fabric_contention=True).time_layer(workload)
    fast = Comet(fabric_contention=True).time_layer(workload)
    assert slow == fast


# ---------------------------------------------------------------------------
# Vectorised geometry vs loop references
# ---------------------------------------------------------------------------


def _reference_dispatch_route(workload):
    strategy = workload.strategy
    world = strategy.world_size
    plan = workload.plan
    src_expert = plan.counts_by_rank(workload.owner)
    if src_expert.shape[0] < world:
        padded = np.zeros((world, plan.num_experts), dtype=np.int64)
        padded[: src_expert.shape[0]] = src_expert
        src_expert = padded
    cross = np.zeros((world, world), dtype=np.int64)
    entered = np.zeros(world, dtype=np.int64)
    for expert in range(plan.num_experts):
        group = strategy.ep_group_of_expert(expert, plan.num_experts)
        for src in range(world):
            pairs = int(src_expert[src, expert])
            if pairs == 0:
                continue
            entry = strategy.rank_of(group, strategy.tp_rank(src))
            cross[src, entry] += pairs
            entered[entry] += pairs
    return cross, entered


def _reference_unique_tokens(workload):
    strategy = workload.strategy
    plan = workload.plan
    per_group = plan.num_experts // strategy.ep_size
    token_groups = plan.experts // per_group
    counts = np.zeros(strategy.world_size, dtype=np.int64)
    for group in range(strategy.ep_size):
        present = (token_groups == group).any(axis=1)
        for rank in strategy.ranks_in_ep_group(group):
            counts[rank] = int(present.sum())
    return counts


@pytest.mark.parametrize("config", [MIXTRAL_8X7B, QWEN2_MOE])
@pytest.mark.parametrize("tp,ep", [(1, 8), (2, 4), (8, 1)])
@pytest.mark.parametrize("imbalance_std", [0.0, 0.03])
def test_vectorized_geometry_matches_loops(config, tp, ep, imbalance_std):
    workload = make_workload(
        config,
        CLUSTER,
        ParallelStrategy(tp_size=tp, ep_size=ep),
        total_tokens=2048,
        imbalance_std=imbalance_std,
        seed=5,
    )
    geometry = workload.geometry
    cross, entered = geometry.baseline_dispatch_route
    ref_cross, ref_entered = _reference_dispatch_route(workload)
    np.testing.assert_array_equal(cross, ref_cross)
    np.testing.assert_array_equal(entered, ref_entered)
    assert cross.dtype == np.int64

    unique = geometry.unique_tokens_per_rank
    np.testing.assert_array_equal(unique, _reference_unique_tokens(workload))
    assert unique.dtype == np.int64


# ---------------------------------------------------------------------------
# Fast serving loop vs DES, grids vs serial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["fcfs", "spf", "slo"])
@pytest.mark.parametrize(
    "kind,rps,seed", [("poisson", 60, 0), ("bursty", 150, 1), ("diurnal", 90, 2)]
)
def test_fast_serve_loop_byte_identical(policy, kind, rps, seed):
    """Records and timeline from the sequential loop equal the DES's."""
    scenario = ServeScenario(
        config=MIXTRAL_8X7B,
        cluster=CLUSTER,
        strategy=ParallelStrategy(1, 8),
        trace=TraceSpec(kind=kind, rps=rps, duration_s=3, seed=seed),
        policy=policy,
    )
    trace = scenario.build_trace()
    with perf.disabled():
        slow = scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)
    fast = scenario.run_system(SYSTEM_REGISTRY.create("comet"), trace=trace)
    assert slow.records == fast.records
    assert slow.timeline == fast.timeline
    assert json.dumps(slow.summary(), sort_keys=True) == json.dumps(
        fast.summary(), sort_keys=True
    )


def test_serve_spec_workers_byte_identical():
    spec = ServeSpec.grid(
        models=MIXTRAL_8X7B,
        clusters=CLUSTER,
        traces=TraceSpec(kind="poisson", rps=40, duration_s=2, seed=0),
        systems=("comet", "tutel", "fastermoe"),
    )
    with perf.disabled():
        slow = spec.run()
    parallel = spec.run(workers=3)
    assert slow.to_json() == parallel.to_json()


def test_experiment_spec_workers_byte_identical():
    spec = ExperimentSpec.grid(
        models=(MIXTRAL_8X7B, QWEN2_MOE),
        clusters=CLUSTER,
        strategies="sweep",
        tokens=(2048,),
    )
    with perf.disabled():
        slow = spec.run()
    fast = spec.run()
    parallel = spec.run(workers=4)
    assert slow.to_json() == fast.to_json()
    assert slow.to_json() == parallel.to_json()
    # skip records (FasterMoE under TP) survive identically in parallel mode
    assert slow.skipped == parallel.skipped


def test_model_level_workers_byte_identical():
    spec = ExperimentSpec.grid(
        models=MIXTRAL_8X7B,
        clusters=CLUSTER,
        strategies=[(1, 8), (2, 4)],
        tokens=(2048,),
        systems=("comet", "megatron-cutlass"),
    )
    with perf.disabled():
        slow = spec.run(level="model")
    parallel = spec.run(level="model", workers=2)
    assert slow.to_json() == parallel.to_json()
