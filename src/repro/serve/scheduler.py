"""Continuous batching on the deterministic DES kernel.

The scheduler runs two simulation processes on a
:class:`~repro.sim.engine.Environment`:

* an *arrival* process that releases requests into the waiting queue at
  their trace timestamps, and
* an *engine* process that repeatedly forms an iteration batch
  (running decodes + newly admitted prefills under a token budget),
  advances the virtual clock by the iteration's step cost from a
  :class:`~repro.serve.engine_adapter.StepCostModel`, and retires
  finished sequences.

This is the vLLM-style continuous-batching iteration model: an admitted
request's prefill and its first output token happen in its first
iteration (that instant is its TTFT), and every later iteration the
request is in the batch produces exactly one more token.  Admission
order is pluggable through :data:`POLICY_REGISTRY` — FCFS,
shortest-prompt-first, and an SLO-aware least-slack policy ship
built in.

Both loops admit through one
:class:`~repro.serve.admission.WaitingQueue`: a policy whose priority
ignores ``now`` (fcfs, spf) is marked ``static`` and the queue stays
sorted by binary insertion; any other policy — slo, or a custom
:data:`POLICY_REGISTRY` entry without the mark — is re-sorted at each
admission instant.  Admission walks the queue front to back and stops
once the batch's free slots or token budget are used up.

Everything is deterministic: the trace is fixed, the DES event queue
breaks ties by sequence number, and admission order is ``(priority,
rid)`` with the request id as final tiebreaker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.api.registry import Registry
from repro.api.validate import check_positive
from repro.perf import CONFIG as PERF_CONFIG
from repro.serve.admission import WaitingQueue
from repro.serve.engine_adapter import StepCostModel
from repro.serve.metrics import RequestRecord, TimelinePoint
from repro.serve.traffic import Request
from repro.sim.engine import Environment, Event

__all__ = [
    "POLICY_REGISTRY",
    "ContinuousBatchingScheduler",
    "SchedulerPolicy",
]


@dataclass
class _Sequence:
    """Mutable in-flight state of one request."""

    request: Request
    first_token_ms: float = float("nan")
    generated: int = 0

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_tokens


# A policy maps (waiting sequence, now_ms, cost_model, slo_ttft_ms) to a
# sortable priority — lower runs first.  The request id is appended as a
# final tiebreaker by the queue, keeping every policy deterministic.  A
# policy whose priority never reads now_ms sets ``static = True`` on the
# function, so the queue keys each request once instead of re-sorting.
SchedulerPolicy = Callable[[_Sequence, float, StepCostModel, float], float]

POLICY_REGISTRY = Registry("policy")


def _register(
    name: str, static: bool = False
) -> Callable[[SchedulerPolicy], SchedulerPolicy]:
    def decorate(fn: SchedulerPolicy) -> SchedulerPolicy:
        fn.static = static
        POLICY_REGISTRY.register(name, fn)
        return fn

    return decorate


@_register("fcfs", static=True)
def fcfs(seq: _Sequence, now: float, cost: StepCostModel, slo: float) -> float:
    """First come, first served: admit in arrival order."""
    return seq.request.arrival_ms


@_register("spf", static=True)
def shortest_prompt_first(
    seq: _Sequence, now: float, cost: StepCostModel, slo: float
) -> float:
    """Shortest prompt first: cheap prefills jump the queue (SJF)."""
    return float(seq.request.prompt_tokens)


@_register("slo")
def slo_aware(seq: _Sequence, now: float, cost: StepCostModel, slo: float) -> float:
    """Least TTFT slack first.

    Slack is the time left before the request's TTFT deadline after
    accounting for its estimated prefill cost — long prompts near their
    deadline overtake short prompts with slack to spare.
    """
    deadline = seq.request.arrival_ms + slo
    return deadline - now - cost.prefill_ms(seq.request.prompt_tokens)


def _price_step(cost_model, now: float, prefill_tokens: int, decode_tokens: int) -> float:
    """Price one engine step launched at ``now`` ms.

    Cost models expose :meth:`StepCostModel.step_ms_at` so a
    :class:`~repro.faults.plan.TimeVaryingStepCost` can follow a fault
    plan's degradation windows; duck-typed stand-ins that only implement
    ``step_ms`` fall back to the time-invariant price.
    """
    step_at = getattr(cost_model, "step_ms_at", None)
    if step_at is not None:
        return step_at(now, prefill_tokens, decode_tokens)
    return cost_model.step_ms(prefill_tokens, decode_tokens)


@dataclass
class ContinuousBatchingScheduler:
    """Simulate one serving replica over a request trace.

    Args:
        cost_model: per-iteration step costs for the system under test.
        trace: the request stream (shared verbatim across systems).
        max_batch_tokens: iteration token budget — running decodes count
            one token each, admitted prefills their full prompt length.
        max_batch_size: cap on concurrently running sequences.
        policy: admission-order policy name in :data:`POLICY_REGISTRY`.
        slo_ttft_ms: TTFT target handed to SLO-aware policies (metrics
            apply SLOs separately; the scheduler itself never drops work).
    """

    cost_model: StepCostModel
    trace: tuple[Request, ...]
    max_batch_tokens: int = 8192
    max_batch_size: int = 256
    policy: str = "fcfs"
    slo_ttft_ms: float = 2000.0

    records: list[RequestRecord] = field(default_factory=list, init=False)
    timeline: list[TimelinePoint] = field(default_factory=list, init=False)
    #: Simulated time spent inside engine steps (the replica-utilization
    #: numerator for fleet accounting). Both loops accumulate the exact
    #: same step_ms sequence, so the value is loop-independent.
    busy_ms: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        check_positive("max_batch_tokens", self.max_batch_tokens)
        check_positive("max_batch_size", self.max_batch_size)
        check_positive("slo_ttft_ms", self.slo_ttft_ms)
        self._policy: SchedulerPolicy = POLICY_REGISTRY.get(self.policy)
        self._running: list[_Sequence] = []
        self._pending_arrivals = 0
        self._wakeup: Event | None = None

    # -- simulation processes -------------------------------------------------
    def _arrivals(self, env: Environment) -> Generator:
        for request in self.trace:
            delay = request.arrival_ms - env.now
            if delay > 0:
                yield env.timeout(delay)
            self._waiting.push(_Sequence(request), env.now)
            self._pending_arrivals -= 1
            if self._wakeup is not None and not self._wakeup.triggered:
                self._wakeup.succeed()

    def _engine(self, env: Environment) -> Generator:
        while self._pending_arrivals or self._waiting or self._running:
            if not self._waiting and not self._running:
                # Idle: sleep until the arrival process releases work.
                self._wakeup = env.event()
                yield self._wakeup
                self._wakeup = None
                continue

            now = env.now
            admitted = self._waiting.admit(
                now, len(self._running), self.max_batch_size, self.max_batch_tokens
            )
            prefill_tokens = sum(s.request.prompt_tokens for s in admitted)
            decode_tokens = len(self._running)
            self.timeline.append(
                TimelinePoint(
                    t_ms=now,
                    queue_depth=len(self._waiting),
                    batch_tokens=prefill_tokens + decode_tokens,
                    running=len(self._running) + len(admitted),
                )
            )
            step = _price_step(
                self.cost_model, now, prefill_tokens, decode_tokens
            )
            self.busy_ms += step
            yield env.timeout(step)
            now = env.now

            for seq in admitted:
                # Prefill completes and emits the first output token.
                seq.first_token_ms = now
                seq.generated = 1
            for seq in self._running:
                seq.generated += 1

            still_running: list[_Sequence] = []
            for seq in self._running + admitted:
                if seq.done:
                    self.records.append(
                        RequestRecord(
                            rid=seq.request.rid,
                            arrival_ms=seq.request.arrival_ms,
                            first_token_ms=seq.first_token_ms,
                            completion_ms=now,
                            prompt_tokens=seq.request.prompt_tokens,
                            output_tokens=seq.request.output_tokens,
                        )
                    )
                else:
                    still_running.append(seq)
            self._running = still_running

    # -- fast sequential loop -------------------------------------------------
    # parity: repro.serve.scheduler.ContinuousBatchingScheduler._run_des
    def _run_fast(self) -> None:
        """Sequential transcription of the DES run — bit-identical output.

        The DES above only ever has two event streams in flight: the
        arrival process's next timeout (or its process-done event) and
        the engine's step timeout (or its wakeup).  This loop replays
        exactly those events, including the environment's
        ``(time, seq)`` tie-breaking (``seq`` counters are incremented at
        the same points ``Environment._schedule`` would), so records and
        timeline match the DES byte for byte — the equivalence tests
        enforce it.  What it drops is the generator/event machinery and
        the per-token bookkeeping: a sequence admitted at engine
        iteration ``k`` with ``o`` output tokens deterministically
        completes at iteration ``k + o - 1``, so completions come from a
        per-iteration map instead of per-step counter increments over
        every running sequence.
        """
        trace = self.trace
        n = len(trace)
        eid = 2  # the two process-Initialize events consumed eids 1 and 2

        # Arrival channel: ("timeout", fire_time, eid) or exhausted (None).
        a_event: tuple[float, int] | None = None
        a_index = 0
        # Engine channel: pending step timeout, or a triggered wakeup, or
        # sleeping (no event at all).
        e_event: tuple[float, int] | None = None
        w_event: tuple[float, int] | None = None
        engine_sleeping = False

        running_count = 0
        steps_launched = 0
        completes_at: dict[int, list[_Sequence]] = {}
        pending_admitted: list[_Sequence] = []

        def resume_arrivals(t: float) -> None:
            """The arrival generator's resume: append due requests, then
            schedule its next timeout (or finish)."""
            nonlocal a_index, a_event, eid, w_event, engine_sleeping
            while a_index < n:
                request = trace[a_index]
                delay = request.arrival_ms - t
                if delay > 0:
                    eid += 1
                    a_event = (t + delay, eid)
                    return
                self._waiting.push(_Sequence(request), t)
                a_index += 1
                self._pending_arrivals -= 1
                if engine_sleeping and w_event is None:
                    eid += 1  # wakeup.succeed() schedules at the current time
                    w_event = (t, eid)
            eid += 1  # the arrival Process event triggers (a no-op pop)
            a_event = None

        def resume_engine(t: float, finish_step: bool) -> None:
            """The engine generator's resume: close the previous step (if
            any), then run the loop until it suspends again."""
            nonlocal eid, e_event, engine_sleeping, running_count
            nonlocal steps_launched
            if finish_step:
                for seq in pending_admitted:
                    seq.first_token_ms = t
                    seq.generated = 1
                completed = completes_at.pop(steps_launched - 1, [])
                for seq in completed:
                    self.records.append(
                        RequestRecord(
                            rid=seq.request.rid,
                            arrival_ms=seq.request.arrival_ms,
                            first_token_ms=seq.first_token_ms,
                            completion_ms=t,
                            prompt_tokens=seq.request.prompt_tokens,
                            output_tokens=seq.request.output_tokens,
                        )
                    )
                running_count += len(pending_admitted) - len(completed)
                pending_admitted.clear()
            if not (self._pending_arrivals or self._waiting or running_count):
                eid += 1  # the engine Process event triggers; run() returns
                e_event = None
                return
            if not self._waiting and not running_count:
                engine_sleeping = True  # wakeup Event created, not scheduled
                e_event = None
                return
            admitted = self._waiting.admit(
                t, running_count, self.max_batch_size, self.max_batch_tokens
            )
            prefill_tokens = sum(s.request.prompt_tokens for s in admitted)
            decode_tokens = running_count
            self.timeline.append(
                TimelinePoint(
                    t_ms=t,
                    queue_depth=len(self._waiting),
                    batch_tokens=prefill_tokens + decode_tokens,
                    running=running_count + len(admitted),
                )
            )
            step_index = steps_launched
            steps_launched += 1
            for seq in admitted:
                completes_at.setdefault(
                    step_index + seq.request.output_tokens - 1, []
                ).append(seq)
            pending_admitted.extend(admitted)
            eid += 1
            step = _price_step(
                self.cost_model, t, prefill_tokens, decode_tokens
            )
            self.busy_ms += step
            e_event = (t + step, eid)

        # Initialize events fire in creation order at t=0.
        resume_arrivals(0.0)
        resume_engine(0.0, finish_step=False)

        while True:
            # Pop the earliest pending event; (time, eid) tie-breaking
            # matches the DES queue ordering exactly.
            candidates = []
            if a_event is not None:
                candidates.append((a_event, "arrival"))
            if w_event is not None:
                candidates.append((w_event, "wakeup"))
            if e_event is not None:
                candidates.append((e_event, "step"))
            if not candidates:
                return
            (when, _), kind = min(candidates)
            if kind == "arrival":
                a_event = None
                resume_arrivals(when)
            elif kind == "wakeup":
                w_event = None
                engine_sleeping = False
                resume_engine(when, finish_step=False)
            else:
                e_event = None
                resume_engine(when, finish_step=True)

    # -- entry point ----------------------------------------------------------
    def _run_des(self) -> None:
        """The original discrete-event run (retained reference path)."""
        env = Environment()
        env.process(self._arrivals(env))
        engine = env.process(self._engine(env))
        env.run(until=engine)

    def run(self) -> tuple[tuple[RequestRecord, ...], tuple[TimelinePoint, ...]]:
        """Simulate the full trace to completion; returns (records, timeline).

        Every request is served (the scheduler never drops), so the run
        terminates once the backlog drains.  Records are sorted by
        request id, making the output order independent of completion
        interleaving.  The fast sequential loop and the DES produce
        byte-identical results; the DES is the reference path and runs
        under :func:`repro.perf.disabled`.
        """
        self.records.clear()
        self.timeline.clear()
        self.busy_ms = 0.0
        self._waiting = WaitingQueue(self._policy, self.cost_model, self.slo_ttft_ms)
        self._running.clear()
        self._pending_arrivals = len(self.trace)
        if not PERF_CONFIG.reference:
            self._run_fast()
        else:
            self._run_des()
        self.records.sort(key=lambda r: r.rid)
        return tuple(self.records), tuple(self.timeline)
