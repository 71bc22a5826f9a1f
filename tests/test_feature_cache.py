"""Feature cache + double-buffered scheduling: correctness and accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Engine, RunConfig
from repro.comm import Communicator, ProcessGrid
from repro.partition import (
    CACHE_POLICIES,
    CachedFeatureStore,
    CacheStats,
    FeatureStore,
)
from repro.pipeline import overlapped_makespan


def _setup(p, c, n=64, f=8, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    comm = Communicator(p)
    grid = ProcessGrid(p, c)
    feats = rng.standard_normal((n, f)).astype(dtype)
    return comm, grid, feats, FeatureStore(feats, grid)


def _degrees(n, seed=0):
    """A deterministic skewed score vector standing in for in-degrees."""
    rng = np.random.default_rng(seed)
    return rng.zipf(2.0, size=n).astype(np.float64)


class TestCachedFetchCorrectness:
    @pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (8, 2), (8, 4)])
    @pytest.mark.parametrize("policy", CACHE_POLICIES)
    def test_matches_uncached_rows_exactly(self, p, c, policy, rng):
        comm, grid, feats, store = _setup(p, c)
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(16), policy=policy,
            scores=_degrees(64),
        )
        needed = [rng.choice(64, 20, replace=True) for _ in range(p)]
        got = cache.fetch(comm, needed)
        for r in range(p):
            assert got[r].dtype == feats.dtype
            assert np.array_equal(got[r], feats[needed[r]])

    def test_zero_budget_behaves_like_plain_store(self, rng):
        comm, grid, feats, store = _setup(4, 2)
        cache = CachedFeatureStore(
            store, budget_bytes=0.0, scores=_degrees(64)
        )
        assert cache.capacity_rows == 0 and cache.cached_ids.size == 0
        needed = [rng.choice(64, 8, replace=False) for _ in range(4)]
        got = cache.fetch(comm, needed)
        for r in range(4):
            assert np.array_equal(got[r], feats[needed[r]])
        assert cache.stats.hits == 0
        assert cache.stats.misses == cache.stats.requests == 32

    def test_fp32_store_returns_fp32_through_cache(self, rng):
        comm, grid, feats, store = _setup(4, 2, dtype=np.float32)
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(8), scores=_degrees(64)
        )
        got = cache.fetch(comm, [rng.choice(64, 6, replace=False)] * 4)
        assert all(g.dtype == np.float32 for g in got)

    def test_budget_caps_cached_rows(self):
        _, grid, feats, store = _setup(4, 2, n=64, f=8)
        row_bytes = store.wire_bytes(1)
        cache = CachedFeatureStore(
            store, budget_bytes=10.5 * row_bytes, scores=_degrees(64)
        )
        assert cache.capacity_rows == 10
        assert cache.cached_ids.size == 10
        # The cached block is an exact copy of the stored rows.
        assert np.array_equal(cache._block, feats[cache.cached_ids])

    def test_degree_policy_pins_top_scores(self):
        _, grid, feats, store = _setup(4, 2)
        scores = np.zeros(64)
        scores[[3, 17, 40]] = [5.0, 9.0, 7.0]
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(3), scores=scores
        )
        assert cache.cached_ids.tolist() == [3, 17, 40]

    def test_validation(self):
        _, grid, feats, store = _setup(4, 2)
        with pytest.raises(ValueError):
            CachedFeatureStore(store, budget_bytes=-1.0, scores=_degrees(64))
        with pytest.raises(ValueError):
            CachedFeatureStore(
                store, budget_bytes=1.0, policy="magic", scores=_degrees(64)
            )
        with pytest.raises(ValueError):
            CachedFeatureStore(store, budget_bytes=1.0, policy="degree")
        with pytest.raises(ValueError):
            CachedFeatureStore(
                store, budget_bytes=1.0, scores=np.ones(3)
            )
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(4), scores=_degrees(64)
        )
        with pytest.raises(ValueError):
            cache.fetch(Communicator(4), [np.arange(2)])  # wrong count


class TestCacheAccounting:
    def test_hit_miss_counts_match_membership(self, rng):
        comm, grid, feats, store = _setup(4, 2)
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(16), scores=_degrees(64)
        )
        cached = set(cache.cached_ids.tolist())
        needed = [rng.choice(64, 12, replace=True) for _ in range(4)]
        cache.fetch(comm, needed)
        want_hits = sum(int(v) in cached for ids in needed for v in ids)
        # Byte counters only cover rows that would have crossed the wire:
        # rows owned by the requester's own process row are free anyway.
        # Here (p=4, c=2): rank r sits in process row r // 2, block rows
        # span 32 vertices each.
        remote_hits = sum(
            int(v) in cached and (v // 32) != (r // 2)
            for r, ids in enumerate(needed) for v in ids
        )
        remote_misses = sum(
            int(v) not in cached and (v // 32) != (r // 2)
            for r, ids in enumerate(needed) for v in ids
        )
        assert cache.stats.requests == 48
        assert cache.stats.hits == want_hits
        assert cache.stats.misses == 48 - want_hits
        assert cache.stats.hits + cache.stats.misses == cache.stats.requests
        assert cache.stats.hit_bytes == store.wire_bytes(remote_hits)
        assert cache.stats.miss_bytes == store.wire_bytes(remote_misses)
        assert 0.0 <= cache.stats.hit_rate <= 1.0

    def test_hit_bytes_match_measured_ledger_savings(self, rng):
        """fetch_bytes_saved must equal the actual response-round volume
        reduction vs the uncached path (no overstated savings for rows the
        requester's own process row already held)."""
        needed = [rng.choice(64, 20, replace=True) for _ in range(4)]
        volumes = {}
        saved = 0.0
        for budget_rows in (0, 16):
            comm, grid, feats, store = _setup(4, 2)
            cache = CachedFeatureStore(
                store, budget_bytes=store.wire_bytes(budget_rows),
                scores=_degrees(64),
            )
            cache.fetch(comm, needed)
            volumes[budget_rows] = comm.ledger.sent()
            if budget_rows:
                saved = cache.stats.hit_bytes
        # Ledger delta = avoided response rows + their 8-byte request ids.
        avoided_ids = saved / store.wire_bytes(1) * 8.0
        assert volumes[0] - volumes[16] == pytest.approx(saved + avoided_ids)

    def test_hits_shrink_ledger_volume(self, rng):
        """The cache's whole point: misses-only all-to-allv moves fewer
        bytes than the uncached fetch for the same requests."""
        needed = [
            np.random.default_rng(7).choice(256, 64, replace=False)
            for _ in range(8)
        ]
        volumes = {}
        for budget_rows in (0, 64):
            comm, grid, feats, store = _setup(8, 2, n=256, f=16)
            cache = CachedFeatureStore(
                store, budget_bytes=store.wire_bytes(budget_rows),
                scores=_degrees(256),
            )
            with comm.phase("feature_fetch"):
                cache.fetch(comm, needed)
            volumes[budget_rows] = comm.ledger.sent("feature_fetch")
        assert volumes[64] < volumes[0]

    def test_all_hits_skip_the_alltoallv(self):
        comm, grid, feats, store = _setup(4, 2)
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(64), scores=_degrees(64)
        )
        needed = [np.arange(10) for _ in range(4)]
        got = cache.fetch(comm, needed)
        assert comm.ledger.sent() == 0  # no wire traffic at all
        assert cache.stats.misses == 0
        for r in range(4):
            assert np.array_equal(got[r], feats[:10])

    def test_stats_reset(self):
        stats = CacheStats(requests=10, hits=4, misses=6, hit_bytes=1.0)
        stats.reset()
        assert stats.requests == stats.hits == stats.misses == 0
        assert stats.hit_rate == 0.0


class TestLFUPolicy:
    def test_refresh_tracks_observed_demand(self):
        comm, grid, feats, store = _setup(4, 2)
        # Seed scores favor vertices 0..3; demand will favor 60..63.
        scores = np.zeros(64)
        scores[:4] = 10.0
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(4), policy="lfu",
            scores=scores,
        )
        assert cache.cached_ids.tolist() == [0, 1, 2, 3]
        hot = np.array([60, 61, 62, 63])
        for _ in range(3):
            cache.fetch(comm, [hot] * 4)
        cache.refresh()
        assert cache.cached_ids.tolist() == [60, 61, 62, 63]
        # And the refreshed replica serves exact rows.
        got = cache.fetch(comm, [hot] * 4)
        assert np.array_equal(got[0], feats[hot])

    def test_degree_refresh_is_static(self):
        comm, grid, feats, store = _setup(4, 2)
        scores = np.zeros(64)
        scores[:4] = 10.0
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(4), policy="degree",
            scores=scores,
        )
        for _ in range(3):
            cache.fetch(comm, [np.array([60, 61, 62, 63])] * 4)
        cache.refresh()
        assert cache.cached_ids.tolist() == [0, 1, 2, 3]

    def test_refresh_charges_replication_traffic(self):
        """Rows newly entering the replica are real traffic; an unchanged
        re-rank charges nothing."""
        comm, grid, feats, store = _setup(4, 2)
        scores = np.zeros(64)
        scores[:4] = 10.0
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(4), policy="lfu",
            scores=scores,
        )
        hot = np.array([60, 61, 62, 63])
        for _ in range(3):
            cache.fetch(comm, [hot] * 4)
        before = comm.ledger.sent()
        cache.refresh(comm)  # swaps in 4 new rows -> broadcast charged
        after_swap = comm.ledger.sent()
        assert after_swap > before
        cache.refresh(comm)  # demand unchanged -> same set, no traffic
        assert comm.ledger.sent() == after_swap

    def test_lfu_ties_break_by_seed_scores(self):
        _, grid, feats, store = _setup(4, 2)
        scores = np.zeros(64)
        scores[[7, 9]] = [1.0, 2.0]
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(1), policy="lfu",
            scores=scores,
        )
        cache.refresh()  # no observed counts: seed scores decide
        assert cache.cached_ids.tolist() == [9]


class TestOverlapSchedule:
    def test_single_bulk_is_serial(self):
        assert overlapped_makespan([3.0], [2.0]) == pytest.approx(5.0)

    def test_hand_example(self):
        # prep 1,1,1 / train 2,2,2: steady state hides prep behind train.
        assert overlapped_makespan([1, 1, 1], [2, 2, 2]) == pytest.approx(7.0)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            prep = rng.random(k).tolist()
            train = rng.random(k).tolist()
            t = overlapped_makespan(prep, train)
            assert t <= sum(prep) + sum(train) + 1e-12
            assert t >= max(sum(prep), sum(train)) - 1e-12

    def test_buffer_depth_one_limits_prefetch(self):
        # Tiny preps cannot all run ahead: bulk k+2's prep waits for
        # training on bulk k to start, so the makespan is bounded below by
        # prep[0] + all training.
        t = overlapped_makespan([1, 1, 1, 1], [10, 10, 10, 10])
        assert t == pytest.approx(41.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            overlapped_makespan([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            overlapped_makespan([-1.0], [1.0])
        assert overlapped_makespan([], []) == 0.0


class TestPipelineIntegration:
    BASE = dict(
        dataset="products", scale=0.1, p=4, c=2, algorithm="partitioned",
        fanout=(4, 2), batch_size=16, hidden=16, train_split=0.5,
        epochs=1, k=2, seed=0,
    )

    @pytest.mark.parametrize("sampler,fanout", [("sage", (4, 2)), ("ladies", (16,))])
    @pytest.mark.parametrize("policy", CACHE_POLICIES)
    def test_losses_bit_identical_cache_on_off(self, sampler, fanout, policy):
        losses, volumes = {}, {}
        for budget in (0.0, 64_000.0):
            cfg = RunConfig(
                **{**self.BASE, "sampler": sampler, "fanout": fanout},
                cache_budget=budget, cache_policy=policy,
            )
            engine = Engine(cfg)
            stats = engine.train_epoch(0)
            losses[budget] = stats.loss
            volumes[budget] = engine.pipeline.comm.ledger.sent("feature_fetch")
        assert losses[0.0] == losses[64_000.0]  # bit-identical, not approx
        assert volumes[64_000.0] < volumes[0.0]

    def test_epoch_stats_carry_cache_counters(self):
        engine = Engine(RunConfig(**self.BASE, sampler="sage",
                                  cache_budget=64_000.0))
        stats = engine.train_epoch(0)
        assert stats.fetch_hits > 0
        assert stats.fetch_hit_rate == pytest.approx(
            stats.fetch_hits / (stats.fetch_hits + stats.fetch_misses)
        )
        assert stats.fetch_bytes_saved > 0
        assert engine.cache_stats is not None
        assert engine.cache_stats.hits == stats.fetch_hits

    def test_uncached_stats_have_no_hit_rate(self):
        engine = Engine(RunConfig(**self.BASE, sampler="sage"))
        stats = engine.train_epoch(0)
        assert stats.fetch_hit_rate is None and stats.fetch_hits == 0
        assert engine.cache_stats is None

    def test_cache_reduces_fetch_time_at_scale(self):
        times = {}
        for budget in (0.0, 128_000.0):
            cfg = RunConfig(**self.BASE, sampler="sage", train_model=False,
                            work_scale=1e4, cache_budget=budget)
            times[budget] = Engine(cfg).train_epoch(0).feature_fetch
        assert times[128_000.0] < times[0.0]

    def test_overlap_reduces_epoch_seconds(self):
        stats = {}
        for overlap in (False, True):
            cfg = RunConfig(**self.BASE, sampler="sage", overlap=overlap)
            stats[overlap] = Engine(cfg).train_epoch(0)
        assert stats[False].pipelined_total is None
        assert stats[False].epoch_seconds == pytest.approx(stats[False].total)
        on = stats[True]
        assert on.pipelined_total is not None
        assert on.epoch_seconds < on.total
        assert on.overlap_saved == pytest.approx(on.total - on.pipelined_total)
        # Overlap is pure scheduling: training output is untouched.
        assert on.loss == stats[False].loss
        assert "pipelined_s" in on.row()

    def test_bulk_stats_carry_stage_times(self):
        engine = Engine(RunConfig(**self.BASE, sampler="sage", overlap=True))
        bulks = list(engine.stream_bulks())
        assert len(bulks) >= 2
        for b in bulks:
            assert b.prep_s > 0 and b.train_s > 0
        total = engine.epoch_stats
        assert sum(b.prep_s for b in bulks) == pytest.approx(
            total.sampling + total.feature_fetch
        )
        assert sum(b.train_s for b in bulks) == pytest.approx(total.propagation)


class TestRunConfigFields:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(cache_budget=-1.0)
        with pytest.raises(ValueError):
            RunConfig(cache_policy="magic")

    def test_json_roundtrip(self):
        cfg = RunConfig(cache_budget=4096.0, cache_policy="lfu", overlap=True)
        again = RunConfig.from_json(cfg.to_json())
        assert again.cache_budget == 4096.0
        assert again.cache_policy == "lfu"
        assert again.overlap is True
