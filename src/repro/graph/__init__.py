"""Whole-model schedule graph: cross-layer overlap IR and schedulers.

The package lifts the per-layer timing substrate into a model-level
dependency graph so cross-layer computation–communication overlap —
Lancet's whole-graph overlapping and ScMoE's shortcut-connected expert
parallelism — becomes a first-class, sweepable policy axis on top of the
intra-layer overlapping the systems already model:

* :mod:`repro.graph.ir` — typed nodes, resource streams, the DAG;
* :mod:`repro.graph.scheduler` — deterministic analytic list scheduler;
* :mod:`repro.graph.des_ref` — discrete-event reference executor
  (cross-checked exactly equal to the analytic scheduler);
* :mod:`repro.graph.lower` — policy-aware lowering of
  ``MoESystem.lower_layer`` phase lists into model / training graphs,
  single-rank or per-rank;
* :mod:`repro.graph.straggler` — per-rank straggler/skew multiplier
  specs (slow ranks, degraded links, skewed expert placement) that turn
  the lowering per-rank, with cross-rank barrier edges at every
  dispatch/combine/grad-sync collective;
* :mod:`repro.graph.batch` — the production scheduling path: the
  rank-symmetry fold of :mod:`repro.graph.scheduler`, then the compiled
  chain-topology recurrence, with every compiled structure cached per
  topology.  It is bit-exact against the list scheduler, which
  :func:`repro.perf.disabled` restores.
"""

from repro.graph.batch import (
    CompiledTopology,
    compile_topology,
    fast_schedule,
)
from repro.graph.des_ref import des_schedule
from repro.graph.ir import (
    COMM,
    COMPUTE,
    GraphNode,
    LayerPhase,
    NodeKind,
    ScheduleGraph,
    Stream,
)
from repro.graph.lower import (
    OVERLAP_POLICIES,
    build_forward_graph,
    build_moe_chain,
    build_training_graph,
    check_policy,
    forward_makespan,
    forward_schedule,
    training_makespan,
    training_schedule,
)
from repro.graph.scheduler import (
    GraphSchedule,
    SymmetryReduction,
    expand_symmetry,
    list_schedule,
    rank_makespans,
    reduce_symmetry,
)
from repro.graph.straggler import StragglerSpec

__all__ = [
    "COMM",
    "COMPUTE",
    "CompiledTopology",
    "GraphNode",
    "GraphSchedule",
    "LayerPhase",
    "NodeKind",
    "OVERLAP_POLICIES",
    "ScheduleGraph",
    "StragglerSpec",
    "Stream",
    "SymmetryReduction",
    "build_forward_graph",
    "build_moe_chain",
    "build_training_graph",
    "check_policy",
    "compile_topology",
    "des_schedule",
    "expand_symmetry",
    "fast_schedule",
    "forward_makespan",
    "forward_schedule",
    "list_schedule",
    "rank_makespans",
    "reduce_symmetry",
    "training_makespan",
    "training_schedule",
]
