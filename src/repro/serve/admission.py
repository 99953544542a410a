"""The admission core shared by the serving engine and the fleet.

One :class:`WaitingQueue` holds the requests waiting on one replica,
kept in admission-policy order, and pops the next iteration's prefills
(or decode resumes) off its front.  The single-replica scheduler (both
its fast loop and its DES) and every fleet replica own one.

Policy contract.  A policy maps ``(sequence, now_ms, cost_model,
slo_ttft_ms)`` to a priority, lower first, with the request id as the
final tiebreaker.  A policy whose priority never reads ``now`` may mark
itself *static* by setting a truthy ``static`` attribute on the
function (fcfs and spf do).  For static policies the queue evaluates
each priority once, when the request is pushed, and keeps the queue
sorted on ``(priority, rid)`` by binary insertion — so requests pushed
out of priority order (a user trace not in arrival order, a crash
re-dispatch) still land where a full sort would put them.  Any other
policy (slo, or an unmarked custom entry) is *time-varying*: the queue
is stably re-sorted at the admission instant before each walk, exactly
as a per-step sort would order it.  (Skipping that sort while the
batch is full is exact because ``(priority, rid)`` is a total order
when request ids are unique, which every generated trace guarantees.)

Admission is an early-exit walk: nothing is sorted or walked while the
batch has no free slot, and the walk stops as soon as the free slots or
the token budget are used up.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.serve.scheduler import _Sequence

__all__ = ["WaitingQueue"]


class WaitingQueue:
    """Requests waiting for admission on one replica, in policy order.

    ``prompt_tokens`` is the running total of the waiting prompts, kept
    in step with every push and pop so load probes read it in O(1).
    """

    __slots__ = (
        "_policy", "_cost_model", "_slo_ttft_ms", "_static",
        "_keys", "_seqs", "prompt_tokens",
    )

    def __init__(
        self, policy: Callable[..., float], cost_model: Any, slo_ttft_ms: float
    ):
        self._policy = policy
        self._cost_model = cost_model
        self._slo_ttft_ms = slo_ttft_ms
        self._static = bool(getattr(policy, "static", False))
        # Static policies only: (priority, rid) per entry, parallel to _seqs.
        self._keys: list[tuple[float, int]] = []
        self._seqs: list[_Sequence] = []
        self.prompt_tokens = 0

    def __len__(self) -> int:
        return len(self._seqs)

    def __bool__(self) -> bool:
        return bool(self._seqs)

    def __iter__(self):
        return iter(self._seqs)

    def _key(self, seq: _Sequence, now: float) -> tuple[float, int]:
        return (
            self._policy(seq, now, self._cost_model, self._slo_ttft_ms),
            seq.request.rid,
        )

    def push(self, seq: _Sequence, now: float) -> None:
        """Enqueue one sequence; ``now`` is the time it joins the queue."""
        self.prompt_tokens += seq.request.prompt_tokens
        if not self._static:
            self._seqs.append(seq)
            return
        key = self._key(seq, now)
        # bisect_right: equal keys keep push order, as a stable sort would.
        index = bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._seqs.insert(index, seq)

    def extend(self, seqs: list[_Sequence], now: float) -> None:
        for seq in seqs:
            self.push(seq, now)

    def discard(self, seq: _Sequence) -> bool:
        """Remove ``seq`` by identity (never by equality)."""
        for index, item in enumerate(self._seqs):
            if item is seq:
                del self._seqs[index]
                if self._static:
                    del self._keys[index]
                self.prompt_tokens -= seq.request.prompt_tokens
                return True
        return False

    def drain(self) -> list[_Sequence]:
        """Empty the queue; returns its sequences in queue order."""
        seqs = self._seqs
        self._seqs = []
        self._keys = []
        self.prompt_tokens = 0
        return seqs

    def admit(
        self,
        now: float,
        running: int,
        max_batch_size: int,
        max_batch_tokens: int,
        decode_role: bool = False,
    ) -> list[_Sequence]:
        """Pop the sequences that join the iteration launched at ``now``.

        The token budget covers one token per running decode plus each
        admitted prompt; on a decode-role replica a resuming decode costs
        one token (its KV is already resident).  A prompt longer than the
        whole budget is admitted alone on an otherwise-empty engine (it
        can never fit better), so no request can deadlock the queue.
        """
        slots = max_batch_size - running
        seqs = self._seqs
        # Every request costs at least one token, so a spent budget (like
        # a full batch) admits nothing.
        if slots <= 0 or not seqs or running >= max_batch_tokens:
            return []
        if not self._static:
            seqs.sort(key=lambda seq: self._key(seq, now))
        admitted: list[_Sequence] = []
        kept: list[int] = []  # walked but not admitted, in queue order
        used = running
        for stop, seq in enumerate(seqs, 1):
            cost = 1 if decode_role else seq.request.prompt_tokens
            if used + cost <= max_batch_tokens:
                admitted.append(seq)
                used += cost
                if len(admitted) == slots or used >= max_batch_tokens:
                    break
            elif not running and not admitted:
                # A prompt longer than the whole budget on an idle
                # engine: run it by itself; everything else waits a turn.
                admitted.append(seq)
                break
            else:
                kept.append(stop - 1)
        if not admitted:
            return []
        seqs[:stop] = [seqs[i] for i in kept]
        if self._static:
            keys = self._keys
            keys[:stop] = [keys[i] for i in kept]
        self.prompt_tokens -= sum(s.request.prompt_tokens for s in admitted)
        return admitted
