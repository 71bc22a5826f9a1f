"""Replication-budget-aware feature caching over the 1.5D feature store.

The partitioned pipeline pays two all-to-allv rounds of feature traffic for
every minibatch frontier (:meth:`FeatureStore.fetch`), with zero reuse
across the κ minibatches of a bulk — even though adjacent frontiers overlap
heavily on hot (high in-degree) vertices.  :class:`CachedFeatureStore`
exploits that skew: every rank replicates the same top-ranked feature rows
up to a per-rank byte budget, so the all-to-allv rounds only carry the
cache *misses* and the comm model is charged accordingly (hits cost one
local HBM gather).

Two replication policies are provided:

``degree``
    Static: rank vertices once by a score vector (the pipeline passes
    in-degrees — how often a vertex can appear as an aggregation source)
    and pin the top rows for the whole run.
``lfu``
    Frequency-ranked across bulks: access counts accumulate over every
    fetch and :meth:`CachedFeatureStore.refresh` (called by the trainer at
    bulk boundaries) re-ranks the cached set by observed demand, LFU-style.

Both policies return bit-identical feature rows to the uncached path —
the cache holds exact copies and features are static during training — so
loss/accuracy trajectories never depend on the budget.  Hit/miss/volume
counters live in :class:`CacheStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm import Communicator
from .feature_store import FeatureStore

__all__ = ["CACHE_POLICIES", "CacheStats", "CachedFeatureStore"]

#: Replication policies accepted by :class:`CachedFeatureStore` (and by
#: ``RunConfig.cache_policy`` / the CLI ``--cache-policy`` flag).
CACHE_POLICIES = ("degree", "lfu")


class _WirePayload:
    """A payload with a declared wire size (feature rows being replicated)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: float) -> None:
        self.nbytes = nbytes


@dataclass
class CacheStats:
    """Hit/miss/volume counters of one :class:`CachedFeatureStore`.

    ``requests`` counts requested feature rows (duplicates included, as
    they appear in the all-to-allv request arrays); ``hit_bytes`` /
    ``miss_bytes`` are simulated wire bytes of the response round that the
    cache avoided / still paid.  Rows owned by the requesting rank's own
    process row never cross the wire (the all-to-allv excludes self-sends),
    so they count toward ``hits``/``misses`` but toward neither byte total.
    ``invalidations`` counts replicated rows dropped through
    :meth:`CachedFeatureStore.invalidate` — update churn, kept separate
    from the capacity-driven turnover :meth:`refresh` performs.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    hit_bytes: float = 0.0
    miss_bytes: float = 0.0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requested rows served from the local replica."""
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0.0
        self.miss_bytes = 0.0
        self.invalidations = 0

    def publish(self, registry, **labels) -> None:
        """Copy the counters into a metrics registry
        (:mod:`repro.obs.metrics`) under ``feature_cache_*`` names."""
        for name, help_text, value in (
            ("feature_cache_requests_total", "feature rows requested", self.requests),
            ("feature_cache_hits_total", "rows served from the replica", self.hits),
            ("feature_cache_misses_total", "rows fetched over the wire", self.misses),
            ("feature_cache_hit_bytes_total", "wire bytes avoided", self.hit_bytes),
            ("feature_cache_miss_bytes_total", "wire bytes paid", self.miss_bytes),
            (
                "feature_cache_invalidations_total",
                "replicated rows dropped by updates",
                self.invalidations,
            ),
        ):
            registry.counter(name, help_text, **labels).set(value)
        registry.gauge(
            "feature_cache_hit_rate", "fraction of rows served locally", **labels
        ).set(self.hit_rate)


class CachedFeatureStore:
    """A replication-budgeted feature cache layered over a FeatureStore.

    ``budget_bytes`` is the per-rank device memory granted to replicated
    feature rows, measured at the store's wire width (the paper's fp32);
    the cache holds ``budget_bytes // row_bytes`` rows.  ``scores`` ranks
    vertices for the ``degree`` policy and seeds the ``lfu`` policy before
    any accesses are observed (optional there: an unseeded LFU cache starts
    empty and fills on the first :meth:`refresh`).
    """

    def __init__(
        self,
        store: FeatureStore,
        *,
        budget_bytes: float,
        policy: str = "degree",
        scores: np.ndarray | None = None,
    ) -> None:
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; known policies: "
                f"{', '.join(CACHE_POLICIES)}"
            )
        if budget_bytes < 0:
            raise ValueError("cache budget must be non-negative")
        if policy == "degree" and scores is None:
            raise ValueError("the degree policy needs a score vector")
        if scores is not None and len(scores) != store.n:
            raise ValueError("need one score per vertex")
        self.store = store
        self.policy = policy
        self.budget_bytes = float(budget_bytes)
        row_bytes = store.wire_bytes(1)
        self.capacity_rows = (
            min(store.n, int(budget_bytes // row_bytes)) if row_bytes else 0
        )
        self.stats = CacheStats()
        self._scores = (
            None if scores is None else np.asarray(scores, dtype=np.float64)
        )
        self._counts = np.zeros(store.n, dtype=np.int64)
        self._cached = np.zeros(store.n, dtype=bool)
        self._slot = np.full(store.n, -1, dtype=np.int64)
        self._block = np.empty((0, store.n_features), store.features.dtype)
        if self._scores is not None:
            self._install(self._top_rows(self._scores))

    # ------------------------------------------------------------------ #
    # Delegation
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        return self.store.n

    @property
    def n_features(self) -> int:
        return self.store.n_features

    @property
    def features(self) -> np.ndarray:
        return self.store.features

    @property
    def grid(self):
        return self.store.grid

    def wire_bytes(self, n_rows: int) -> float:
        return self.store.wire_bytes(n_rows)

    # ------------------------------------------------------------------ #
    # Cache membership
    # ------------------------------------------------------------------ #
    @property
    def cached_ids(self) -> np.ndarray:
        """Sorted global vertex ids currently replicated on every rank."""
        return np.flatnonzero(self._cached)

    def _top_rows(self, ranking: np.ndarray) -> np.ndarray:
        """Top ``capacity_rows`` vertices by ``ranking``, ties to lower id."""
        if self.capacity_rows == 0:
            return np.empty(0, dtype=np.int64)
        order = np.lexsort((np.arange(self.store.n), -ranking))
        return np.sort(order[: self.capacity_rows])

    def _install(
        self, ids: np.ndarray, comm: Communicator | None = None
    ) -> None:
        new = ids[~self._cached[ids]] if ids.size else ids
        self._cached[:] = False
        self._cached[ids] = True
        self._slot[:] = -1
        self._slot[ids] = np.arange(ids.size)
        # Exact copies: cached fetches are bit-identical to uncached ones.
        self._block = self.store.features[ids].copy()
        if comm is not None and new.size:
            # Replicating rows that were not already resident is real
            # traffic: every rank receives the newly-cached rows from
            # their owners (modeled as one broadcast over all p ranks).
            comm.bcast(
                _WirePayload(self.wire_bytes(new.size)),
                self.grid.all_ranks(),
            )

    def refresh(self, comm: Communicator | None = None) -> None:
        """Re-rank the cached set (LFU only; no-op for the static policy).

        The trainer calls this at bulk boundaries, so the replica tracks
        demand across bulks without churning inside one.  Pass ``comm`` to
        charge the replication traffic of rows newly entering the cache
        (the initial fill at construction is preprocessing, uncharged like
        the block-row partitioning itself).
        """
        if self.policy != "lfu":
            return
        ranking = self._counts.astype(np.float64)
        if self._scores is not None:
            # Seed scores break ties among equally-counted (e.g. unseen)
            # vertices; scaled below 1 count so observed demand dominates.
            span = self._scores.max()
            if span > 0:
                ranking = ranking + self._scores / (2.0 * span)
        self._install(self._top_rows(ranking), comm)

    def invalidate(self, ids: np.ndarray) -> int:
        """Drop replicated rows for ``ids``; returns how many were resident.

        The hook graph/feature updates call: a vertex whose stored feature
        row changed (or that left the graph) must not be served from the
        replica until re-admitted by a later :meth:`refresh`.  A local
        drop: no replication traffic is charged, and the freed slots stay
        empty until the next refresh re-ranks the cache.  Counted in
        ``stats.invalidations``; LFU access counts are kept.
        """
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= self.store.n):
            raise IndexError(f"vertex id out of range [0, {self.store.n})")
        resident = ids[self._cached[ids]]
        if resident.size:
            keep = self.cached_ids
            keep = keep[~self._cached_member(keep, resident)]
            self._install(keep)
        self.stats.invalidations += int(resident.size)
        return int(resident.size)

    @staticmethod
    def _cached_member(ids: np.ndarray, drop: np.ndarray) -> np.ndarray:
        return np.isin(ids, drop, assume_unique=True)

    # ------------------------------------------------------------------ #
    # The cache-aware fetch
    # ------------------------------------------------------------------ #
    def fetch(
        self,
        comm: Communicator,
        needed_by_rank: list[np.ndarray],
    ) -> list[np.ndarray]:
        """Collect feature rows per rank, all-to-allv'ing only the misses.

        Same contract as :meth:`FeatureStore.fetch`: one request array per
        rank, dense blocks aligned with request order.  Rows present in the
        replicated cache are gathered locally (charged as one HBM-bound
        kernel per rank); the remainder goes through the inner store's
        all-to-allv rounds, so ledger volume and comm time shrink with the
        hit rate.
        """
        if len(needed_by_rank) != self.grid.p:
            raise ValueError("one request array per rank required")
        ids_by_rank = [
            np.asarray(ids, dtype=np.int64) for ids in needed_by_rank
        ]
        hit_masks = [self._cached[ids] for ids in ids_by_rank]
        misses = [ids[~m] for ids, m in zip(ids_by_rank, hit_masks)]
        if self.policy == "lfu":
            # Only LFU reads the counts; skip the scatter-add on the hot
            # path under the static policy.
            for ids in ids_by_rank:
                if ids.size:
                    np.add.at(self._counts, ids, 1)
        if any(m.size for m in misses):
            fetched = self.store.fetch(comm, misses)
        else:
            # Every request hit the replica: skip the all-to-allv rounds
            # entirely (no latency charged for an empty exchange).
            fetched = [
                np.empty((0, self.n_features), self.features.dtype)
                for _ in misses
            ]
        results: list[np.ndarray] = []
        for r, (ids, mask) in enumerate(zip(ids_by_rank, hit_masks)):
            out = np.empty(
                (ids.size, self.n_features), dtype=self.features.dtype
            )
            n_hits = int(mask.sum())
            if n_hits:
                out[mask] = self._block[self._slot[ids[mask]]]
                # Local gather from the replica: read + write, HBM-bound.
                comm.compute(
                    r, nbytes=2.0 * self.wire_bytes(n_hits), kernels=1
                )
            out[~mask] = fetched[r]
            results.append(out)
            # Byte counters track only rows that would cross the wire:
            # rows owned by the requester's own process row are served
            # locally by the uncached path too (no self-sends).
            remote = self.store.owner_row(ids) != self.grid.coords(r)[0]
            self.stats.requests += ids.size
            self.stats.hits += n_hits
            self.stats.misses += ids.size - n_hits
            self.stats.hit_bytes += self.wire_bytes(int((mask & remote).sum()))
            self.stats.miss_bytes += self.wire_bytes(
                int((~mask & remote).sum())
            )
        return results
