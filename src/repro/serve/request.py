"""Requests, the admission queue, and the micro-batching policy.

Online serving receives :class:`InferenceRequest`\\ s (each naming the
target vertices one caller wants logits for) at simulated arrival times.
The :class:`RequestQueue` separates *future* arrivals from *pending*
(arrived, not yet dispatched) requests; the :class:`MicroBatcher` decides
when a micro-batch leaves the queue under the classic max-batch-size /
max-wait policy:

* dispatch as soon as ``max_batch_size`` requests are pending (and the
  server is free), or
* dispatch whatever is pending once the oldest request has waited
  ``max_wait`` simulated seconds.

Both the queue and the batcher are pure state machines over simulated
time — no wall clocks anywhere — so admission order, batch composition and
every dispatch time are exactly reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["InferenceRequest", "InferenceResult", "RequestQueue", "MicroBatcher"]


@dataclass(frozen=True)
class InferenceRequest:
    """One caller's ask: logits for ``vertices``, arriving at ``arrival``.

    ``rid`` is the caller-assigned request id (unique per run); ties in
    arrival time are broken by admission order, so a trace replays
    identically every time.
    """

    rid: int
    vertices: np.ndarray
    arrival: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.int64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("a request needs a non-empty 1-D vertex array")
        object.__setattr__(self, "vertices", v)
        if self.arrival < 0:
            raise ValueError(f"arrival time must be non-negative, got {self.arrival}")


@dataclass(frozen=True)
class InferenceResult:
    """A served request: logits row-aligned with the request's vertices."""

    request: InferenceRequest
    logits: np.ndarray
    dispatched: float  # when the micro-batch left the queue
    completed: float  # when the micro-batch finished serving
    batch_index: int  # which micro-batch served it
    batch_size: int  # how many requests shared that micro-batch

    @property
    def latency(self) -> float:
        """End-to-end simulated latency: completion minus arrival."""
        return self.completed - self.request.arrival

    @property
    def queue_wait(self) -> float:
        """Time spent waiting for the micro-batch to form / server to free."""
        return self.dispatched - self.request.arrival


class RequestQueue:
    """Future arrivals (a heap) plus the pending, admitted FIFO.

    ``push`` accepts requests in any order; ``admit_until(t)`` moves every
    request with ``arrival <= t`` into the pending list in deterministic
    ``(arrival, push order)`` order.
    """

    def __init__(self) -> None:
        self._arrivals: list[tuple[float, int, InferenceRequest]] = []
        self._seq = 0
        self.pending: list[InferenceRequest] = []

    def push(self, request: InferenceRequest) -> None:
        heapq.heappush(self._arrivals, (request.arrival, self._seq, request))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._arrivals) + len(self.pending)

    @property
    def next_arrival(self) -> float:
        """Arrival time of the earliest future request (inf when none)."""
        return self._arrivals[0][0] if self._arrivals else math.inf

    def admit_until(self, t: float) -> None:
        """Move every request that has arrived by time ``t`` to pending."""
        while self._arrivals and self._arrivals[0][0] <= t:
            self.pending.append(heapq.heappop(self._arrivals)[2])

    def take(self, n: int) -> list[InferenceRequest]:
        """Remove and return the ``n`` oldest pending requests."""
        batch, self.pending = self.pending[:n], self.pending[n:]
        return batch

    def drain(self) -> list[InferenceRequest]:
        """Empty the queue: everything pending or still to arrive, in
        ``(arrival, rid)`` order (a retired replica's work, re-routed)."""
        everything = self.pending + [r for _, _, r in self._arrivals]
        self.pending, self._arrivals = [], []
        return sorted(everything, key=lambda r: (r.arrival, r.rid))


@dataclass(frozen=True)
class MicroBatcher:
    """Max-batch-size / max-wait dispatch policy over a :class:`RequestQueue`."""

    max_batch_size: int = 8
    max_wait: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")

    def next_dispatch(
        self, queue: RequestQueue, free_at: float
    ) -> tuple[float, list[InferenceRequest]] | None:
        """The next micro-batch and its dispatch time, or ``None`` when idle.

        ``free_at`` is when the server finishes its current work; a batch
        never leaves before it.  Future arrivals that land before the
        dispatch moment join the queue first (and may fill the batch
        early), which is what makes the policy deterministic: the decision
        depends only on simulated times, never on evaluation order.
        """
        if len(queue) == 0:
            return None
        if not queue.pending:
            queue.admit_until(queue.next_arrival)
        while True:
            oldest = queue.pending[0].arrival
            if len(queue.pending) >= self.max_batch_size:
                # Full batch: leaves once the server is free and its last
                # member has arrived (pending is arrival-sorted).
                t = max(free_at, queue.pending[self.max_batch_size - 1].arrival)
                queue.admit_until(t)  # late arrivals queue for the next batch
                return t, queue.take(self.max_batch_size)
            deadline = max(free_at, oldest + self.max_wait)
            if queue.next_arrival <= deadline:
                # Another request lands before the deadline — admit it and
                # re-evaluate (it may complete a full batch).
                queue.admit_until(queue.next_arrival)
                continue
            return deadline, queue.take(len(queue.pending))
