"""Stateful differential test: the slab-backed ``EmbeddingCache`` against
the dict-backed body it replaced (``reference_embedding_cache.py``).

A Hypothesis rule-based state machine drives both caches through the same
operation sequence at capacities 0, 1, 3 and at least ``n`` rows (the
budget may carry a partial row): lookups with repeated ids, inserts of
distinct non-resident ids, re-inserts of resident ids (alone and beside
fresh ones), invalidations mixing resident, absent and repeated ids,
duplicate-id inserts (refused, state unchanged) and ``clear``.  After
**every** rule:

* ``cached_ids`` (values and dtype), ``len`` and every ``ServeStats``
  field equal the oracle's;
* ``len(cache) <= capacity_rows``, and the slot and owner tables agree;
* inside the lookup rule, the hit masks are equal, the rows equal by
  bytes and of the cache's width, and every hit row is the row last
  inserted for that vertex — an invalidated row is never returned until it
  is re-inserted.

Each capacity runs at the model's float32; two also run at float64.  The
oracle counts 8-byte rows, so it is given the budget of the same number of
rows at its width.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from reference_embedding_cache import ReferenceEmbeddingCache
from repro.serve import EmbeddingCache


class CacheMachine(RuleBasedStateMachine):
    capacity: int | None = None  # None: room for every vertex and more
    dtype = np.dtype(np.float32)

    @initialize(
        n=st.integers(4, 14),
        dim=st.integers(1, 3),
        spare=st.integers(0, 3),
        partial=st.integers(0, 7),
    )
    def build(self, n, dim, spare, partial):
        rows = n + spare if self.capacity is None else self.capacity
        row_bytes = self.dtype.itemsize * dim
        budget = row_bytes * rows + partial % row_bytes
        self.n, self.dim = n, dim
        self.new = EmbeddingCache(n, dim, budget_bytes=budget, dtype=self.dtype)
        self.ref = ReferenceEmbeddingCache(n, dim, budget_bytes=8 * dim * rows)
        assert self.new.capacity_rows == self.ref.capacity_rows == min(n, rows)
        self.latest: dict[int, bytes] = {}  # the row last inserted per id
        self.dropped: set[int] = set()  # invalidated, not re-inserted since

    # -- helpers --------------------------------------------------------- #
    def _resident(self) -> list[int]:
        return self.ref.cached_ids.tolist()

    def _absent(self) -> list[int]:
        return sorted(set(range(self.n)) - set(self._resident()))

    def _insert(self, ids: list[int], seed: int) -> None:
        rows = np.random.default_rng(seed).standard_normal((len(ids), self.dim))
        rows = rows.astype(self.dtype)
        ids = np.array(ids, dtype=np.int64)
        self.new.insert(ids, rows)
        self.ref.insert(ids, rows)
        for v, row in zip(ids.tolist(), rows):
            self.latest[v] = row.tobytes()
            self.dropped.discard(v)

    # -- rules ----------------------------------------------------------- #
    @rule(
        ids=st.lists(st.integers(0, 13), max_size=10).map(
            lambda xs: np.array(xs, dtype=np.int64)
        )
    )
    def lookup(self, ids):
        ids = ids[ids < self.n]
        mask, rows = self.new.lookup(ids)
        want_mask, want_rows = self.ref.lookup(ids)
        assert mask.dtype == want_mask.dtype and mask.tolist() == want_mask.tolist()
        assert rows.shape == want_rows.shape and rows.dtype == self.dtype
        assert rows.tobytes() == want_rows.tobytes()
        for v, row in zip(ids[mask].tolist(), rows):
            assert v not in self.dropped
            assert row.tobytes() == self.latest[v]

    @precondition(lambda self: self._absent())
    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def insert_fresh(self, data, seed):
        ids = data.draw(
            st.lists(st.sampled_from(self._absent()), min_size=1, max_size=6,
                     unique=True)
        )
        self._insert(ids, seed)

    @precondition(lambda self: self._resident())
    @rule(data=st.data(), seed=st.integers(0, 2**16), with_fresh=st.booleans())
    def reinsert_resident(self, data, seed, with_fresh):
        """Resident rows overwritten in place, alone or beside fresh ids
        whose arrival may evict some of them."""
        ids = data.draw(
            st.lists(st.sampled_from(self._resident()), min_size=1, max_size=4,
                     unique=True)
        )
        if with_fresh and self._absent():
            ids += data.draw(
                st.lists(st.sampled_from(self._absent()), max_size=3, unique=True)
            )
        ids = data.draw(st.permutations(ids))
        self._insert(ids, seed)

    @rule(data=st.data())
    def invalidate(self, data):
        pool = list(range(self.n))
        ids = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        if self._resident():
            ids += data.draw(st.lists(st.sampled_from(self._resident()), max_size=4))
        ids = np.array(data.draw(st.permutations(ids)), dtype=np.int64)
        assert self.new.invalidate(ids) == self.ref.invalidate(ids)
        self.dropped.update(ids.tolist())

    @rule(data=st.data())
    def insert_duplicate_refused(self, data):
        v = data.draw(st.integers(0, self.n - 1))
        others = data.draw(
            st.lists(st.integers(0, self.n - 1).filter(lambda u: u != v),
                     max_size=3, unique=True)
        )
        ids = np.array(data.draw(st.permutations([v, v] + others)), dtype=np.int64)
        before = (self.new.cached_ids.tolist(), dataclasses.asdict(self.new.stats))
        with pytest.raises(ValueError, match=f"duplicate vertex id {v}"):
            self.new.insert(ids, np.zeros((ids.size, self.dim)))
        after = (self.new.cached_ids.tolist(), dataclasses.asdict(self.new.stats))
        assert after == before

    @rule()
    def clear(self):
        self.new.clear()
        self.ref.clear()

    # -- checked after every rule ---------------------------------------- #
    @invariant()
    def caches_agree(self):
        new, ref = self.new, self.ref
        assert new.cached_ids.dtype == ref.cached_ids.dtype
        assert new.cached_ids.tolist() == ref.cached_ids.tolist()
        assert len(new) == len(ref) <= new.capacity_rows
        assert dataclasses.asdict(new.stats) == dataclasses.asdict(ref.stats)

    @invariant()
    def slot_tables_agree(self):
        ids = self.new.cached_ids
        assert self.new._owner[self.new._slot[ids]].tolist() == ids.tolist()
        assert np.count_nonzero(self.new._owner >= 0) == ids.size


def _at_capacity(capacity: int | None, dtype=np.float32):
    machine = type(f"CacheMachineCap{capacity}", (CacheMachine,),
                   {"capacity": capacity, "dtype": np.dtype(dtype)})
    case = machine.TestCase
    case.settings = settings(
        max_examples=25, stateful_step_count=25, deadline=None, derandomize=True
    )
    return case


TestCapacity0 = _at_capacity(0)
TestCapacity1 = _at_capacity(1)
TestCapacity3 = _at_capacity(3)
TestCapacityAll = _at_capacity(None)
TestCapacity3Float64 = _at_capacity(3, np.float64)
TestCapacityAllFloat64 = _at_capacity(None, np.float64)


def test_ranking_tie_at_the_capacity_boundary():
    """Equal counts straddle the last retained rank: the lower id wins, as
    in the oracle, and the fresh winners take the freed slots in rank
    order, highest first, whatever order they were offered in."""
    n, dim, capacity = 10, 2, 3
    new = EmbeddingCache(n, dim, budget_bytes=4 * dim * capacity)
    ref = ReferenceEmbeddingCache(n, dim, budget_bytes=8 * dim * capacity)
    seen = np.array([8, 8, 8, 5, 5, 1, 2, 4, 7], dtype=np.int64)
    for v in (8, 7, 6):  # slots 0, 1, 2 in insertion order, no eviction
        row = np.full((1, dim), v, dtype=np.float32)
        for cache in (new, ref):
            cache.insert(np.array([v]), row)
    for cache in (new, ref):
        cache.lookup(seen)
    # Counts 8: 3, 5: 2, then 1, 2, 4 and resident 7 tie at 1 for the last
    # place (1 wins), and resident 6 has none.
    offered = np.array([1, 5, 4, 2], dtype=np.int64)
    rows = np.repeat(offered[:, None], dim, axis=1).astype(np.float32)
    new.insert(offered, rows)
    ref.insert(offered, rows)
    assert new.cached_ids.tolist() == ref.cached_ids.tolist() == [1, 5, 8]
    assert dataclasses.asdict(new.stats) == dataclasses.asdict(ref.stats)
    assert new.stats.evictions == 4
    assert new._owner.tolist() == [8, 5, 1]
    mask, got = new.lookup(np.array([1, 5, 8]))
    assert mask.all() and got[:, 0].tolist() == [1.0, 5.0, 8.0]
