"""The shared admission core against the sort-and-walk it replaced.

:func:`reference_admit` is the admission algorithm the serving scheduler
and the fleet replicas each carried before they shared
:class:`~repro.serve.admission.WaitingQueue`: re-sort the whole waiting
list by ``(priority, rid)`` on every step, then walk all of it.  It is
kept here as the oracle only.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetSpec
from repro.fleet.simulator import _Replica
from repro.fleet.spec import ReplicaSpec
from repro.hw.presets import h800_node
from repro.parallel.strategy import ParallelStrategy
from repro.serve import ServeSpec
from repro.serve.admission import WaitingQueue
from repro.serve.scheduler import (
    POLICY_REGISTRY,
    ContinuousBatchingScheduler,
    _Sequence,
)
from repro.serve.traffic import Request, TraceSpec

SLO_MS = 300.0


class LinearCostModel:
    """step = 1 ms + 0.01 ms per batch token; prefill estimate to match."""

    def step_ms(self, prefill_tokens, decode_tokens):
        return 1.0 + 0.01 * (prefill_tokens + decode_tokens)

    def prefill_ms(self, prompt_tokens):
        return self.step_ms(prompt_tokens, 0)


COST = LinearCostModel()


def reference_admit(
    waiting, now, running_count, policy, max_batch_size, budget, decode_role
):
    """The pre-core admission step; returns (admitted, remaining)."""
    waiting = sorted(
        waiting, key=lambda seq: (policy(seq, now, COST, SLO_MS), seq.request.rid)
    )
    admitted = []
    used = running_count
    slots = max_batch_size - running_count
    remaining = []
    for index, seq in enumerate(waiting):
        cost = 1 if decode_role else seq.request.prompt_tokens
        if not decode_role and not admitted and not running_count and cost > budget:
            admitted.append(seq)
            remaining.extend(waiting[index + 1:])
            break
        if len(admitted) < slots and used + cost <= budget:
            admitted.append(seq)
            used += cost
        else:
            remaining.append(seq)
    return admitted, remaining


# Small enough that slot caps, the token budget and oversize prompts
# all bind in generated examples.
BUDGET = 16
MAX_BATCH = 24

requests = st.builds(
    Request,
    rid=st.integers(0, 10**6),
    arrival_ms=st.floats(0.0, 500.0, allow_nan=False),
    prompt_tokens=st.integers(1, 3 * BUDGET),
    output_tokens=st.just(1),
)
# One round: requests pushed, then an admission at a later instant.
rounds = st.lists(
    st.tuples(
        st.lists(requests, max_size=8),
        st.floats(0.0, 200.0, allow_nan=False),  # time advance
        st.integers(0, MAX_BATCH),  # running count, capped at max_batch
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    rounds=rounds,
    max_batch=st.integers(1, MAX_BATCH),
    policy_name=st.sampled_from(("fcfs", "spf", "slo")),
    decode_role=st.booleans(),
)
def test_queue_matches_sort_and_walk(rounds, max_batch, policy_name, decode_role):
    policy = POLICY_REGISTRY.get(policy_name)
    queue = WaitingQueue(policy, COST, SLO_MS)
    oracle: list[_Sequence] = []
    seen: set[int] = set()
    now = 500.0
    for pushed, advance, running in rounds:
        for request in pushed:
            if request.rid in seen:  # request ids are unique within a trace
                continue
            seen.add(request.rid)
            seq = _Sequence(request)
            queue.push(seq, now)
            oracle.append(seq)
        now += advance
        running = min(running, max_batch)
        admitted = queue.admit(now, running, max_batch, BUDGET, decode_role)
        expected, oracle = reference_admit(
            oracle, now, running, policy, max_batch, BUDGET, decode_role
        )
        assert admitted == expected
        walked = running < min(max_batch, BUDGET) and bool(oracle or expected)
        if policy.static or walked:
            assert list(queue) == oracle
        else:
            # A time-varying queue is ordered at the admission instant
            # only; between admissions its order is unobservable.
            assert sorted(id(s) for s in queue) == sorted(id(s) for s in oracle)
        assert queue.prompt_tokens == sum(s.request.prompt_tokens for s in oracle)
        assert len(queue) == len(oracle)


@settings(max_examples=100, deadline=None)
@given(
    pushed=st.lists(requests, max_size=12, unique_by=lambda r: r.rid),
    running=st.integers(0, 3),
    role=st.sampled_from(("unified", "prefill", "decode")),
    drop=st.integers(0, 11),
)
def test_backlog_tokens_matches_resum(pushed, running, role, drop):
    """The router probe reads the maintained total; it must equal a re-sum."""
    replica = _Replica(
        index=0,
        spec=ReplicaSpec(h800_node(), ParallelStrategy(1, 8), role=role),
        cost_model=COST,
        active=True,
        waiting_q=WaitingQueue(POLICY_REGISTRY.get("fcfs"), COST, SLO_MS),
    )
    seqs = [_Sequence(request) for request in pushed]
    replica.waiting_q.extend(seqs, 0.0)
    replica.running_q = [_Sequence(pushed[0])] * running if pushed else []
    if seqs:
        replica.waiting_q.discard(seqs[drop % len(seqs)])
    replica.waiting_q.admit(1.0, 0, 2, BUDGET, decode_role=role == "decode")

    waiting = list(replica.waiting_q)
    if role == "decode":
        expected = len(waiting) + replica.running
    else:
        expected = sum(s.request.prompt_tokens for s in waiting) + replica.running
    assert replica.backlog_tokens == expected
    assert replica.waiting_q.drain() == waiting
    assert replica.waiting_q.prompt_tokens == 0 and not replica.waiting_q


def test_full_batch_skips_the_walk():
    calls = []

    def counting(seq, now, cost, slo):
        calls.append(seq)
        return now

    queue = WaitingQueue(counting, COST, SLO_MS)
    queue.extend([_Sequence(Request(i, 0.0, 8, 1)) for i in range(5)], 0.0)
    assert queue.admit(1.0, 6, 6, BUDGET) == []
    assert calls == []


def test_scaling_guard_key_evaluations(monkeypatch):
    """Doubling an overloaded trace must not quadruple admission work.

    Counts policy-key evaluations, not wall time: a static policy is
    keyed once per request, so T -> 2T roughly doubles the count.  A
    per-step re-sort of the whole queue grows it about 4.5x.
    """
    calls = 0

    def counting_fcfs(seq, now, cost, slo):
        nonlocal calls
        calls += 1
        return seq.request.arrival_ms

    counting_fcfs.static = True
    monkeypatch.setitem(POLICY_REGISTRY._entries, "counting-fcfs", counting_fcfs)

    def evaluations(n):
        nonlocal calls
        calls = 0
        trace = tuple(
            Request(rid=i, arrival_ms=0.1 * i, prompt_tokens=500, output_tokens=20)
            for i in range(n)
        )
        ContinuousBatchingScheduler(
            cost_model=COST,
            trace=trace,
            max_batch_tokens=2048,
            policy="counting-fcfs",
        ).run()
        return calls

    small, large = evaluations(400), evaluations(800)
    assert small > 0
    assert large / small <= 2.5


class TestNonFiniteSpecs:
    """Every numeric boundary rejects NaN, inf and negative values."""

    BAD = (math.nan, math.inf, -math.inf, -1.0)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize(
        "field",
        [
            "rps", "duration_s", "burst_factor", "burst_dwell_s",
            "amplitude", "prompt_sigma", "output_sigma",
        ],
    )
    def test_trace_spec(self, field, bad):
        with pytest.raises(ValueError, match=field):
            TraceSpec(**{field: bad})

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize(
        "field", ["max_batch_tokens", "max_batch_size", "slo_ttft_ms"]
    )
    def test_scheduler(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ContinuousBatchingScheduler(cost_model=COST, trace=(), **{field: bad})

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize(
        "field", ["max_batch_tokens", "max_batch_size", "slo_ttft_ms", "slo_tpot_ms"]
    )
    def test_serve_and_fleet_scenarios(self, field, bad):
        for spec in (ServeSpec.grid(), FleetSpec.grid(replicas=2)):
            with pytest.raises(ValueError, match=field):
                dataclasses.replace(spec.scenarios[0], **{field: bad})

    def test_zero_sigma_still_allowed(self):
        trace = TraceSpec(prompt_sigma=0.0, output_sigma=0.0, duration_s=1.0)
        assert {r.prompt_tokens for r in trace.build()} == {512}
