"""Committed golden digests for graph scheduling.

The other graph parity tests compare a fast path with the list scheduler
in one process, so a change to code both sides share would pass them
silently.  These digests pin the start/finish floats themselves, for one
graph per branch of the scheduling dispatch:

* a single-rank graph (not rank-blocked: the compiled recurrence);
* a uniform world-8 graph (every rank folds to one class);
* slow-rank ``per_layer`` and ``cross_layer`` graphs (the reusable
  vectorised fold);
* a slow-rank ``shortcut`` graph (the reduced graph is not a chain);
* a straggler training graph;
* an all-distinct-ranks graph (nothing to fold);

plus the model-level CSV of a small straggler grid over every overlap
policy.  Each graph's cached schedule must also equal the list
scheduler's and the discrete-event reference's.

The digests are sha256 over :func:`repro.obs.fingerprint_obj`'s
canonical form.  Re-blessing one is an explicit act: regenerate with
``PYTHONPATH=src python tests/test_graph_goldens.py`` and record the
reason in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro import ExperimentSpec, perf
from repro.graph import (
    LayerPhase,
    NodeKind,
    StragglerSpec,
    build_forward_graph,
    build_training_graph,
    des_schedule,
    list_schedule,
)
from repro.obs import fingerprint_obj

PHASES = (
    LayerPhase(NodeKind.GATE, 12.0),
    LayerPhase(NodeKind.DISPATCH, 40.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 55.0),
    LayerPhase(NodeKind.ACTIVATION, 6.0),
    LayerPhase(NodeKind.EXPERT, 48.0),
    LayerPhase(NodeKind.COMBINE, 33.0, comm=True),
    LayerPhase(NodeKind.HOST, 3.0),
)

SLOW = StragglerSpec.slow_rank(8, rank=3, compute_mult=1.7, comm_mult=1.2)


def _forward(policy="per_layer", stragglers=None):
    return build_forward_graph(PHASES, 25.0, 4, policy, stragglers)


GRAPHS = {
    "single-rank": lambda: _forward(),
    "uniform-world8": lambda: _forward(stragglers=StragglerSpec.uniform(8)),
    "slow-rank-per_layer": lambda: _forward("per_layer", SLOW),
    "slow-rank-cross_layer": lambda: _forward("cross_layer", SLOW),
    "slow-rank-shortcut": lambda: _forward("shortcut", SLOW),
    "straggler-training": lambda: build_training_graph(
        PHASES,
        PHASES,
        25.0,
        50.0,
        3,
        80.0,
        20.0,
        "per_layer",
        StragglerSpec.slow_rank(4, rank=1, compute_mult=1.4),
    ),
    "all-distinct-ranks": lambda: _forward(
        stragglers=StragglerSpec(
            compute_mult=(1.0, 1.25, 1.5, 1.75),
            comm_mult=(1.0,) * 4,
            expert_mult=(1.0,) * 4,
            name="staircase",
        )
    ),
}


def _schedule_digest(name: str) -> str:
    perf.clear_caches()
    schedule = perf.cached_graph_schedule(GRAPHS[name]())
    return fingerprint_obj((schedule.start_us, schedule.finish_us), digits=64)


def _grid_digest() -> str:
    spec = ExperimentSpec.grid(
        models="mixtral",
        clusters="h800",
        strategies=(1, 8),
        tokens=4096,
        overlap_policies=("per_layer", "cross_layer", "shortcut"),
        stragglers=(None, 1.5),
    )
    perf.clear_caches()
    return fingerprint_obj(spec.run(level="model").to_csv(), digits=64)


CASES = {
    **{f"graph-{name}": (lambda name=name: _schedule_digest(name)) for name in GRAPHS},
    "model-grid-csv": _grid_digest,
}

#: Blessed on the commit before graph scheduling moved out of repro.perf.
GOLDEN = {
    "graph-all-distinct-ranks": "62af99468a307f354084e4733a50b1066d996c92e7b280c43049eedaa89c3954",
    "graph-single-rank": "c415f658bbe5d637f441cbc6c4a3a7604701c429ecfe163a8c370c4d6aa18a34",
    "graph-slow-rank-cross_layer": "309540838d61071c5f64b64069fc4f029b2ebef43102db1b192797a2b3d4bf3d",
    "graph-slow-rank-per_layer": "7eaabeed1c495048b974320b51f234cac23670d4d532baf841fa5d1fd510375d",
    "graph-slow-rank-shortcut": "21eab53d24593ebc8c257da990fa8f50e1e61b0c8493a71968a2ae7adfcfa326",
    "graph-straggler-training": "0f7e656caabce244758e177773050b7402b1de16e26b0a6ce7855e0530964f5e",
    "graph-uniform-world8": "9e23ee10bd8bd135bd1b553063c2b5881b51723de660f9568610676b8a4266f5",
    "model-grid-csv": "901757c78b27578bf37c62255f98ca47c623cc464a26b3602b17d52c18d5c574",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert CASES[name]() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_matches_golden(name):
    """The reference paths under ``perf.disabled()`` give the same digest."""
    with perf.disabled():
        assert CASES[name]() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_cached_schedule_matches_references(name):
    graph = GRAPHS[name]()
    perf.clear_caches()
    schedule = perf.cached_graph_schedule(graph)
    reference = list_schedule(graph)
    assert schedule.start_us == reference.start_us
    assert schedule.finish_us == reference.finish_us
    finish, makespan = des_schedule(graph)
    assert schedule.finish_us == finish
    assert schedule.makespan_us == makespan


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
