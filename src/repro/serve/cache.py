"""Budgeted memoization of penultimate-layer representations.

The most expensive part of serving a request for vertex ``v`` is computing
the layer ``L-1`` representations of ``v``'s in-neighbors — each of which
needs its own ``(L-1)``-hop ego network.  Those representations depend only
on the (frozen) model weights and each vertex's own neighborhood, so they
are perfect memoization targets: the :class:`EmbeddingCache` keeps exact
copies of ``h^{L-1}`` rows for hot vertices under a per-server byte budget,
the same budget discipline as
:class:`~repro.partition.cache.CachedFeatureStore` applies to feature rows.

Because cached rows are exact copies of deterministically recomputable
values, serving logits are bit-identical with the cache on or off — the
budget is purely a latency/throughput lever (tested, and asserted by
``benchmarks/bench_serving.py``).

Admission is frequency-ranked like the feature cache's ``lfu`` policy:
every lookup counts, and when the cache is over budget the top
``capacity_rows`` vertices by ``(count, lower id wins ties)`` are retained.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = ["ServeStats", "EmbeddingCache"]


@dataclass
class ServeStats:
    """Hit/miss counters of one :class:`EmbeddingCache`.

    ``requests`` counts requested embedding rows (one per frontier vertex
    per micro-batch); ``inserts``/``evictions`` track capacity churn, and
    ``invalidations`` counts rows dropped through :meth:`EmbeddingCache.invalidate`
    (graph updates dirtying cached values) — deliberately separate from
    ``evictions`` so budget pressure and update churn are distinguishable.
    ``shed`` counts inference requests this server's
    :class:`~repro.serve.admission.AdmissionController` refused (fleet
    serving only; always 0 under ``shed_policy="none"``).
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0
    shed: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requested rows served from the cache."""
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, f.default)

    def add(self, other: "ServeStats") -> None:
        """Accumulate ``other``'s counters into this one (a fleet's totals
        over its replicas)."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def publish(self, registry, **labels) -> None:
        """Copy the counters into a metrics registry
        (:mod:`repro.obs.metrics`) under ``serve_cache_*`` /
        ``serve_shed_total`` names, labeled e.g. by replica."""
        for name, help_text, value in (
            ("serve_cache_requests_total", "embedding rows requested", self.requests),
            ("serve_cache_hits_total", "embedding rows served from cache", self.hits),
            ("serve_cache_misses_total", "embedding rows recomputed", self.misses),
            ("serve_cache_inserts_total", "embedding rows inserted", self.inserts),
            ("serve_cache_evictions_total", "budget evictions", self.evictions),
            (
                "serve_cache_invalidations_total",
                "rows dropped by graph updates",
                self.invalidations,
            ),
            ("serve_shed_total", "inference requests shed by admission", self.shed),
        ):
            registry.counter(name, help_text, **labels).set(value)
        registry.gauge(
            "serve_cache_hit_rate", "fraction of rows served from cache", **labels
        ).set(self.hit_rate)


class EmbeddingCache:
    """An exact, byte-budgeted cache of ``h^{L-1}`` rows.

    ``budget_bytes`` buys ``capacity_rows = budget_bytes // row_bytes`` rows,
    capped at ``n``, the vertex count; ``row_bytes`` is ``row_dim`` values
    of ``dtype``, the width the model computes ``h^{L-1}`` in (float32 for
    the library's models).  The rows live in one
    ``(capacity_rows, row_dim)`` slab of that width allocated at
    construction — ``capacity_rows * row_bytes`` bytes, never more than the
    budget — in the layout of
    :class:`~repro.partition.cache.CachedFeatureStore`: a
    per-vertex slot table ``_slot`` (``-1`` when absent) beside a per-slot
    owner table ``_owner`` (``-1`` when free).  :meth:`lookup` returns
    copies gathered from the slab, never views of it.
    """

    def __init__(
        self, n: int, row_dim: int, *, budget_bytes: float, dtype=np.float32
    ) -> None:
        if n <= 0 or row_dim <= 0:
            raise ValueError("n and row_dim must be positive")
        if budget_bytes < 0:
            raise ValueError("embedding budget must be non-negative bytes")
        self.n = n
        self.row_dim = row_dim
        self.row_bytes = np.dtype(dtype).itemsize * row_dim
        self.capacity_rows = min(n, int(budget_bytes // self.row_bytes))
        self.stats = ServeStats()
        self._counts = np.zeros(n, dtype=np.int64)
        self._slot = np.full(n, -1, dtype=np.int64)
        self._owner = np.full(self.capacity_rows, -1, dtype=np.int64)
        self._slab = np.empty((self.capacity_rows, row_dim), dtype)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._owner >= 0))

    @property
    def cached_ids(self) -> np.ndarray:
        """Sorted vertex ids currently cached."""
        return np.flatnonzero(self._slot >= 0)

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``ids`` into (hit mask, gathered hit rows).

        Counts every id toward the frequency ranking; the returned rows
        align with ``ids[mask]`` and are exact copies of the inserted rows.
        """
        ids = np.asarray(ids, dtype=np.int64)
        np.add.at(self._counts, ids, 1)
        slots = self._slot[ids]
        mask = slots >= 0
        rows = self._slab[slots[mask]]
        n_hits = rows.shape[0]
        self.stats.requests += ids.size
        self.stats.hits += n_hits
        self.stats.misses += ids.size - n_hits
        return mask, rows

    def insert(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Offer freshly computed rows; the budget keeps the hottest.

        The retained set after an insert is the top ``capacity_rows``
        vertices of ``cached + offered`` ranked by observed request count
        (ties to the lower vertex id), mirroring the feature cache's LFU
        refresh — deterministic for a deterministic request stream.  A
        resident id's row is overwritten in place.  ``ids`` must be
        distinct (``ValueError`` otherwise).  Every offered row counts in
        ``stats.inserts``; every row the ranking drops, an offered one
        included, counts in ``stats.evictions``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size != rows.shape[0]:
            raise ValueError("need exactly one row per id")
        ordered = np.sort(ids)
        dup = ordered[1:][ordered[1:] == ordered[:-1]]
        if dup.size:
            raise ValueError(f"duplicate vertex id {int(dup[0])} in one insert")
        if self.capacity_rows == 0 or ids.size == 0:
            return
        self.stats.inserts += ids.size
        slots = self._slot[ids]
        resident = slots >= 0
        self._slab[slots[resident]] = rows[resident]
        ids, rows = ids[~resident], rows[~resident]
        if len(self) + ids.size > self.capacity_rows:
            held = self._owner[self._owner >= 0]
            pool = np.concatenate((held, ids))
            # One unique int64 rank per vertex, larger ranks higher: count
            # first, then the lower id.  Selecting the losers by it yields
            # the set a full sort would, without sorting the whole pool.
            counts = self._counts[pool]
            assert counts.max() < np.iinfo(np.int64).max // self.n, "rank key overflow"
            key = counts * self.n + (self.n - 1 - pool)
            n_lost = pool.size - self.capacity_rows
            split = np.argpartition(key, n_lost - 1)
            losers = pool[split[:n_lost]]
            self.stats.evictions += losers.size
            lost = self._slot[losers]
            self._owner[lost[lost >= 0]] = -1
            self._slot[losers] = -1
            won = split[n_lost:]
            fresh = won[won >= held.size]
            # Fresh winners take free slots in rank order, highest first.
            fresh = fresh[np.argsort(-key[fresh])] - held.size
            ids, rows = ids[fresh], rows[fresh]
        free = np.flatnonzero(self._owner < 0)[: ids.size]
        self._owner[free] = ids
        self._slot[ids] = free
        self._slab[free] = rows

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
        resident = ids[self._slot[ids] >= 0]
        self._owner[self._slot[resident]] = -1
        self._slot[resident] = -1
        self.stats.invalidations += int(resident.size)
        return int(resident.size)

    def clear(self) -> None:
        """Drop every cached row (required after any weight update)."""
        self._slot[:] = -1
        self._owner[:] = -1
        self._counts[:] = 0
