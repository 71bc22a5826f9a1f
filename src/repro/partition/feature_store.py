"""The 1.5D-partitioned feature matrix and its all-to-allv fetch.

Section 6.2: the input feature matrix ``H`` is split into ``p/c`` block
rows, each replicated on the ``c`` ranks of its process row, so every
*process column* ``P(:, j)`` collectively holds all of ``H``.  Before
propagating a minibatch, each rank all-to-allv's with its process column to
collect the feature rows of the minibatch's input frontier.  Fetch time
therefore scales with the replication factor ``c`` — the effect Figure 6
measures by setting ``c = 1``.
"""

from __future__ import annotations

import numpy as np

from ..comm import Communicator, ProcessGrid
from .block1d import split_rows

__all__ = ["FeatureStore"]


class FeatureStore:
    """Features partitioned 1.5D over a process grid."""

    def __init__(self, features: np.ndarray, grid: ProcessGrid) -> None:
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        self.features = features
        self.grid = grid
        self.starts = split_rows(features.shape[0], grid.n_rows)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def owner_row(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Process row owning each vertex's feature row."""
        return np.searchsorted(self.starts, vertex_ids, side="right") - 1

    def wire_bytes(self, n_rows: int) -> float:
        """Bytes on the wire for ``n_rows`` feature rows: their ``nbytes``."""
        return float(n_rows * self.n_features * self.features.itemsize)

    # ------------------------------------------------------------------ #
    # The all-to-allv fetch
    # ------------------------------------------------------------------ #
    def fetch(
        self,
        comm: Communicator,
        needed_by_rank: list[np.ndarray],
    ) -> list[np.ndarray]:
        """Collect feature rows for every rank's request, per process column.

        ``needed_by_rank[r]`` lists global vertex ids rank ``r`` needs (its
        minibatch's input frontier).  Each process column runs two
        all-to-allv rounds: request ids out, feature rows back.  Returns the
        dense feature block per rank, aligned with its request order.
        """
        if len(needed_by_rank) != self.grid.p:
            raise ValueError("one request array per rank required")
        results: list[np.ndarray | None] = [None] * self.grid.p
        for j in range(self.grid.c):
            ranks = self.grid.col_ranks(j)
            g = len(ranks)
            # Requests: position i in the column asks position o for the ids
            # owned by process row o.
            req: list[list[np.ndarray]] = [[None] * g for _ in range(g)]
            orders: list[np.ndarray] = []
            for pos, r in enumerate(ranks):
                ids = np.asarray(needed_by_rank[r], dtype=np.int64)
                owners = self.owner_row(ids)
                order = np.argsort(owners, kind="stable")
                orders.append(order)
                sorted_ids = ids[order]
                bounds = np.searchsorted(owners[order], np.arange(g + 1))
                for o in range(g):
                    req[pos][o] = sorted_ids[bounds[o] : bounds[o + 1]]
            got_req = comm.alltoallv(req, ranks)
            # Responses: owner o answers with the requested feature rows.
            resp = [
                [self.features[got_req[o][pos]] for pos in range(g)]
                for o in range(g)
            ]
            got_resp = comm.alltoallv(resp, ranks)
            for pos, r in enumerate(ranks):
                ids = np.asarray(needed_by_rank[r], dtype=np.int64)
                # The returned block keeps the stored width (float32 for the
                # library's features): no silent upcast.
                out = np.empty(
                    (len(ids), self.n_features), dtype=self.features.dtype
                )
                chunks = [got_resp[pos][o] for o in range(g)]
                stacked = (
                    np.concatenate(chunks, axis=0)
                    if chunks
                    else np.empty((0, self.n_features), dtype=self.features.dtype)
                )
                # Undo the owner sort so rows align with the request order.
                out[orders[pos]] = stacked
                results[r] = out
        return results  # type: ignore[return-value]
