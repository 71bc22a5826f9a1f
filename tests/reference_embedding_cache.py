"""The retired dict-backed ``EmbeddingCache`` (oracle; do not optimize).

``ReferenceEmbeddingCache`` below is ``repro.serve.cache.EmbeddingCache``
as it was before the rows moved onto a slab: every cached row is its own
array in a Python dict keyed by vertex id, lookups and evictions loop over
rows in Python, and every over-budget insert re-sorts the id set built
with ``np.fromiter``.  Only the class name differs from the retired body.
One behaviour is deliberately not carried over: when one ``insert`` names
an id twice, this body lets the last row win, where the new cache raises.

``tests/test_embedding_cache_differential.py`` holds the new cache to this
one step for step.
"""

from __future__ import annotations

import numpy as np

from repro.serve.cache import ServeStats

__all__ = ["ReferenceEmbeddingCache"]


class ReferenceEmbeddingCache:
    """An exact, byte-budgeted cache of ``h^{L-1}`` rows.

    ``budget_bytes`` buys ``budget_bytes // (8 * row_dim)`` rows (fp64, the
    representation width the numpy model computes in).  ``n`` is the vertex
    count, used for the frequency counters.
    """

    def __init__(self, n: int, row_dim: int, *, budget_bytes: float) -> None:
        if n <= 0 or row_dim <= 0:
            raise ValueError("n and row_dim must be positive")
        if budget_bytes < 0:
            raise ValueError("embedding budget must be non-negative bytes")
        self.n = n
        self.row_dim = row_dim
        self.row_bytes = 8 * row_dim
        self.capacity_rows = min(n, int(budget_bytes // self.row_bytes))
        self.stats = ServeStats()
        self._counts = np.zeros(n, dtype=np.int64)
        self._cached = np.zeros(n, dtype=bool)
        self._rows: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def cached_ids(self) -> np.ndarray:
        """Sorted vertex ids currently cached."""
        return np.sort(np.fromiter(self._rows, dtype=np.int64, count=len(self._rows)))

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``ids`` into (hit mask, gathered hit rows).

        Counts every id toward the frequency ranking; the returned rows
        align with ``ids[mask]`` and are exact copies of the inserted rows.
        """
        ids = np.asarray(ids, dtype=np.int64)
        np.add.at(self._counts, ids, 1)
        mask = self._cached[ids]
        n_hits = int(mask.sum())
        rows = (
            np.stack([self._rows[int(v)] for v in ids[mask]])
            if n_hits
            else np.empty((0, self.row_dim))
        )
        self.stats.requests += ids.size
        self.stats.hits += n_hits
        self.stats.misses += ids.size - n_hits
        return mask, rows

    def insert(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Offer freshly computed rows; the budget keeps the hottest.

        The retained set after an insert is the top ``capacity_rows``
        vertices of ``cached + offered`` ranked by observed request count
        (ties to the lower vertex id), mirroring the feature cache's LFU
        refresh — deterministic for a deterministic request stream.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size != rows.shape[0]:
            raise ValueError("need exactly one row per id")
        if self.capacity_rows == 0 or ids.size == 0:
            return
        for v, row in zip(ids, rows):
            self._rows[int(v)] = row.copy()
            self.stats.inserts += 1
        self._cached[ids] = True
        overflow = len(self._rows) - self.capacity_rows
        if overflow > 0:
            cached = self.cached_ids
            order = np.lexsort((cached, -self._counts[cached]))
            for v in cached[order][self.capacity_rows :]:
                del self._rows[int(v)]
                self._cached[v] = False
                self.stats.evictions += 1

    def invalidate(self, ids: np.ndarray) -> int:
        """Drop cached rows for ``ids``; returns how many were resident.

        The protocol hook graph updates call: a dirty vertex's ``h^{L-1}``
        row is stale the moment any row in its receptive field changes, so
        it must be recomputed on next request rather than served.  Counted
        in ``stats.invalidations`` (not ``evictions``); frequency counters
        are kept, so a hot vertex re-enters the cache on its next miss.
        """
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            raise IndexError(f"vertex id out of range [0, {self.n})")
        resident = ids[self._cached[ids]]
        for v in resident:
            del self._rows[int(v)]
        self._cached[resident] = False
        self.stats.invalidations += int(resident.size)
        return int(resident.size)

    def clear(self) -> None:
        """Drop every cached row (required after any weight update)."""
        self._rows.clear()
        self._cached[:] = False
        self._counts[:] = 0
