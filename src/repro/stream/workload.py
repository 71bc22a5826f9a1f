"""UpdateStream: edge churn interleaved with inference traffic.

An :class:`UpdateStream` wraps any request workload (open-loop trace or
closed-loop clients, :mod:`repro.serve.workload`) and adds a time-sorted
stream of :class:`~repro.stream.delta.EdgeBatch` mutations.  The serving
engine applies each batch when the simulated clock reaches its arrival,
before dispatching micro-batches scheduled after it — so requests always
see the graph as of their dispatch time, exactly like a real online system
applying writes between inference batches.

:meth:`UpdateStream.synthetic` builds the deterministic churn scenario the
benchmarks sweep: a request trace over a vertex pool plus interleaved
insert/delete batches at a configurable update:request ratio.  Deletions
target distinct existing base edges and insertions distinct absent edges,
so the final edge set is well-defined regardless of interleaving.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse import CSRMatrix
from ..serve.request import InferenceRequest, InferenceResult
from ..serve.workload import TraceWorkload
from .delta import EdgeBatch

__all__ = ["UpdateStream"]


class UpdateStream:
    """A request workload plus a time-sorted stream of edge batches."""

    def __init__(
        self,
        requests,
        updates: Sequence[EdgeBatch],
    ) -> None:
        self.requests = requests
        self.edge_batches = sorted(updates, key=lambda b: b.at)

    # -- the request-workload protocol (delegated) ---------------------- #
    @property
    def open_loop(self) -> bool:
        """Whether the wrapped request source is open-loop (the parallel
        fleet path keys off this; default-closed for unknown sources)."""
        return bool(getattr(self.requests, "open_loop", False))

    def initial(self) -> list[InferenceRequest]:
        return self.requests.initial()

    def on_complete(self, result: InferenceResult) -> list[InferenceRequest]:
        return self.requests.on_complete(result)

    # -- the update stream ---------------------------------------------- #
    def updates(self) -> list[EdgeBatch]:
        """The edge batches, sorted by arrival time."""
        return list(self.edge_batches)

    @property
    def n_update_edges(self) -> int:
        return sum(b.n_edges for b in self.edge_batches)

    @classmethod
    def synthetic(
        cls,
        adj: CSRMatrix,
        vertex_pool: np.ndarray,
        *,
        n_requests: int,
        update_ratio: float = 0.25,
        edges_per_update: int = 8,
        delete_fraction: float = 0.5,
        seed: int = 0,
        interarrival: float = 1e-4,
    ) -> "UpdateStream":
        """Deterministic churn: requests at a fixed gap, update batches
        interleaved at ``update_ratio`` batches per request.

        Each update batch carries ``edges_per_update`` edges; a
        ``delete_fraction`` of batches delete distinct *existing* edges of
        ``adj`` and the rest insert distinct *absent* edges, so replaying
        the stream always converges to the same final edge set.
        """
        if update_ratio < 0:
            raise ValueError("update_ratio must be non-negative")
        if not 0.0 <= delete_fraction <= 1.0:
            raise ValueError("delete_fraction must be in [0, 1]")
        if edges_per_update <= 0:
            raise ValueError("edges_per_update must be positive")
        requests = TraceWorkload.synthetic(
            n_requests, vertex_pool, seed=seed, interarrival=interarrival
        )
        n_updates = int(round(update_ratio * n_requests))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 577]))
        n = adj.shape[0]
        # Distinct existing edges to delete, distinct absent pairs to insert.
        n_batches_del = int(round(delete_fraction * n_updates))
        need_del = n_batches_del * edges_per_update
        if need_del > adj.nnz:
            raise ValueError(
                f"cannot delete {need_del} distinct edges from a graph with "
                f"{adj.nnz}; lower update_ratio or edges_per_update"
            )
        del_pick = (
            rng.choice(adj.nnz, size=need_del, replace=False)
            if need_del
            else np.empty(0, dtype=np.int64)
        )
        del_rows = np.searchsorted(adj.indptr, del_pick, side="right") - 1
        del_cols = adj.indices[del_pick]
        inserts: list[tuple[int, int]] = []
        need_ins = (n_updates - n_batches_del) * edges_per_update
        taken: set[tuple[int, int]] = set()
        while len(inserts) < need_ins:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            # Membership against the canonical CSR: row u's sorted columns.
            cols = adj.indices[adj.indptr[u] : adj.indptr[u + 1]]
            j = int(np.searchsorted(cols, v))
            exists = j < cols.size and cols[j] == v
            if u == v or exists or (u, v) in taken:
                continue
            taken.add((u, v))
            inserts.append((u, v))
        batches: list[EdgeBatch] = []
        span = n_requests * interarrival
        gap = span / max(1, n_updates)
        d = i = 0
        for k in range(n_updates):
            at = (k + 0.5) * gap
            if k < n_batches_del:
                pick = slice(d, d + edges_per_update)
                d += edges_per_update
                batches.append(
                    EdgeBatch(del_rows[pick], del_cols[pick], "delete", at=at)
                )
            else:
                pairs = inserts[i : i + edges_per_update]
                i += edges_per_update
                batches.append(
                    EdgeBatch(
                        np.array([u for u, _ in pairs], dtype=np.int64),
                        np.array([v for _, v in pairs], dtype=np.int64),
                        "insert",
                        at=at,
                    )
                )
        return cls(requests, batches)
