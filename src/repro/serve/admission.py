"""Admission control: load shedding for the serving fleet.

An :class:`AdmissionController` protects replicas from overload by
refusing work it can tell will be wasted.  Two orthogonal checks:

* **queue depth** (``shed_policy="queue"``) — a request routed to a
  replica whose queue already holds ``shed_queue_depth`` requests is shed
  at *submit* time.  This bounds per-replica memory and caps the tail
  latency a backlog can inflict.
* **deadline** (``shed_policy="deadline"``) — a request that has already
  waited longer than ``shed_deadline`` simulated seconds when its batch
  dispatches is shed at *dispatch* time: serving it would burn replica
  time on an answer the client has given up on.

``shed_policy="none"`` admits everything (the default).
Shed counts accumulate in each replica's
:class:`~repro.serve.cache.ServeStats` (``stats.shed``) and surface in the
run's :class:`~repro.serve.report.ServeReport`.
"""

from __future__ import annotations

from ..obs.trace import get_tracer
from .request import InferenceRequest

__all__ = ["AdmissionController", "SHED_POLICIES"]

SHED_POLICIES = ("none", "queue", "deadline")


class AdmissionController:
    """Queue-depth / deadline load shedding with per-replica accounting."""

    def __init__(
        self,
        policy: str = "none",
        *,
        queue_depth: int = 64,
        deadline: float = 0.0,
    ) -> None:
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {policy!r}; known: {SHED_POLICIES}"
            )
        if policy == "queue" and queue_depth <= 0:
            raise ValueError("queue shedding needs shed_queue_depth > 0")
        if policy == "deadline" and deadline <= 0:
            raise ValueError("deadline shedding needs shed_deadline > 0")
        self.policy = policy
        self.queue_depth = int(queue_depth)
        self.deadline = float(deadline)

    def admit(self, replica, request: InferenceRequest) -> bool:
        """Submit-time check: may ``request`` join ``replica``'s queue?

        Counts a shed against the replica that refused it.
        """
        if self.policy == "queue" and len(replica.queue) >= self.queue_depth:
            replica.stats.shed += 1
            return False
        return True

    def filter_batch(
        self, replica, batch: list[InferenceRequest], now: float
    ) -> list[InferenceRequest]:
        """Dispatch-time check: drop batch members past their deadline."""
        if self.policy != "deadline":
            return batch
        kept = [r for r in batch if now - r.arrival <= self.deadline]
        dropped = len(batch) - len(kept)
        replica.stats.shed += dropped
        if dropped:
            tracer = get_tracer()
            if tracer is not None:
                # Shed events land on the shedding replica's track.
                kept_set = {r.rid for r in kept}
                rid = getattr(replica, "rid", 0)
                for r in batch:
                    if r.rid not in kept_set:
                        tracer.instant(
                            "shed", t=now, cat="router",
                            track=f"replica{rid}",
                            args={"req": int(r.rid), "waited": now - r.arrival},
                        )
        return kept
