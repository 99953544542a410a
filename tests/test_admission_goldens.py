"""Committed golden digests for serve and fleet admission.

Every other serve parity test compares the fast loop with the DES in one
process, so a change to the admission code that both paths share would
pass them silently.  These digests pin the outputs themselves: records
and timeline for small overloaded serve runs (one per policy, plus a
user-passed trace whose tuple order is not arrival order) and records,
timelines and dispatches for two fleet co-simulations (a least_queue
fleet and a ``"1p+1d"`` disaggregated one, which covers the decode-role
admission rule).

The digests are sha256 over :func:`repro.obs.fingerprint_obj`'s
canonical form.  Re-blessing one is an explicit act: regenerate with
``PYTHONPATH=src python tests/test_admission_goldens.py`` and record the
reason in CHANGES.md.
"""

from __future__ import annotations

import random

import pytest

from repro import perf
from repro.api.registry import resolve_cluster, resolve_model
from repro.fleet import FailureEvent, FleetScenario, ReplicaSpec
from repro.obs import fingerprint_obj
from repro.parallel.strategy import ParallelStrategy
from repro.serve import ServeScenario, TraceSpec
from repro.serve.traffic import Request
from repro.systems import Comet

#: Poisson traffic well above one COMET replica's capacity, so the
#: waiting queue grows for the whole trace.
OVERLOAD = TraceSpec(kind="poisson", rps=600.0, duration_s=1.5, seed=0)


def _serve_scenario(policy: str, **kwargs) -> ServeScenario:
    return ServeScenario(
        config=resolve_model("mixtral"),
        cluster=resolve_cluster("h800"),
        strategy=ParallelStrategy(1, 8),
        trace=OVERLOAD,
        policy=policy,
        **{"max_batch_size": 64, **kwargs},
    )


def _shuffled_trace() -> tuple[Request, ...]:
    """An overloaded trace handed over out of arrival order.

    Some prompts exceed the scenario's 1024-token budget, so the
    oversize-prompt rule fires too.
    """
    rng = random.Random(7)
    requests = [
        Request(
            rid=i,
            arrival_ms=round(rng.uniform(0.0, 400.0), 3),
            prompt_tokens=rng.choice((16, 200, 700, 1500)),
            output_tokens=rng.randint(1, 40),
        )
        for i in range(300)
    ]
    rng.shuffle(requests)
    return tuple(requests)


def _serve_digest(scenario: ServeScenario, trace=None) -> str:
    report = scenario.run_system(Comet(), trace=trace)
    return fingerprint_obj((report.records, report.timeline), digits=64)


def _fleet_digest(scenario: FleetScenario) -> str:
    report = scenario.run_system(Comet())
    return fingerprint_obj(
        (report.records, report.replica_timelines, report.dispatches),
        digits=64,
    )


def _fleet_scenario(
    replicas: tuple[ReplicaSpec, ...], router: str, **kwargs
) -> FleetScenario:
    return FleetScenario(
        config=resolve_model("mixtral"),
        replicas=replicas,
        trace=TraceSpec(kind="poisson", rps=1200.0, duration_s=1.0, seed=3),
        router=router,
        max_batch_size=16,
        **kwargs,
    )


def _replica(count: int, role: str = "unified") -> ReplicaSpec:
    return ReplicaSpec(
        resolve_cluster("h800"), ParallelStrategy(1, 8), count=count, role=role
    )


CASES = {
    "serve-fcfs": lambda: _serve_digest(_serve_scenario("fcfs")),
    "serve-spf": lambda: _serve_digest(_serve_scenario("spf")),
    "serve-slo": lambda: _serve_digest(_serve_scenario("slo")),
    "serve-shuffled-fcfs": lambda: _serve_digest(
        _serve_scenario("fcfs", max_batch_tokens=1024, max_batch_size=32),
        trace=_shuffled_trace(),
    ),
    # A crash re-dispatches the failed replica's queue out of arrival
    # order onto the survivors.
    "fleet-least-queue-spf": lambda: _fleet_digest(
        _fleet_scenario(
            (_replica(3),),
            "least_queue",
            policy="spf",
            failures=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=600.0),),
        )
    ),
    "fleet-1p+1d": lambda: _fleet_digest(
        _fleet_scenario((_replica(1, "prefill"), _replica(1, "decode")), "round_robin")
    ),
}

#: Blessed on the commit before the shared admission core landed.
GOLDEN = {
    "fleet-1p+1d": "d18ccd0e239ac5f0c1064b9eca82f7b83c75dc5008188a0d0d4903c0597ffd8f",
    "fleet-least-queue-spf": "4d511a5e6ac1cf3d5f5579f6c2cb74730218271fc91cc0ce727a7c2689a9f718",
    "serve-fcfs": "405c7dd8d6e191ef71177827cca88516cce1cf4130ff9a227522737f0e340910",
    "serve-shuffled-fcfs": "e7872201424c6eab849e71568da0a83e21d4033b7123c5548b58ea1c57ae04ef",
    "serve-slo": "c332548ea1e41ba23bfb3c4decd2882ea3cbef7557868d63e5bec43883723b59",
    "serve-spf": "c3e14616391e2a4b774dec058018522f2c6cbb2de9c496436a260a89ab6fdd17",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert CASES[name]() == GOLDEN[name]


@pytest.mark.parametrize(
    "name", sorted(name for name in CASES if name.startswith("serve-"))
)
def test_serve_des_matches_golden(name):
    """The retained DES reference reproduces the same committed digest."""
    with perf.disabled():
        assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
