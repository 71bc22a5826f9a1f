"""Streaming graphs: the delta-CSR overlay, the dirty-vertex invalidation
protocol, and update-interleaved serving parity (with pinned digests)."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, RunConfig
from repro.comm import Communicator, ProcessGrid
from repro.graphs import Graph, rmat
from repro.obs import Tracer, set_tracer
from repro.partition import CachedFeatureStore, FeatureStore
from repro.pipeline import layerwise_inference
from repro.serve import (
    EmbeddingCache,
    InferenceRequest,
    ServingCluster,
    TraceWorkload,
)
from repro.sparse import CSRMatrix
from repro.stream import (
    DeltaCSR,
    EdgeBatch,
    StreamingGraph,
    UpdateStream,
    dirty_closure,
)
from repro.stream.delta import _isin_sorted, _union, _unique
from test_delta_differential import _bytes, _served, rebuild_from_log
from test_gnn import skip_unless_pinned_kernels


def _small_base(n: int = 10, degree: int = 3, seed: int = 0) -> CSRMatrix:
    """A small canonical adjacency without self loops."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), degree)
    cols = (rows + rng.integers(1, n, rows.size)) % n
    return CSRMatrix.from_coo(
        rows, cols, np.ones(rows.size), (n, n), sum_duplicates=True
    )


def _edge_set(adj: CSRMatrix) -> dict[tuple[int, int], float]:
    rows, cols, vals = adj.to_coo()
    return {
        (int(u), int(v)): float(w)
        for u, v, w in zip(rows, cols, vals)
    }


def _from_edge_dict(edges: dict, shape) -> CSRMatrix:
    if not edges:
        return CSRMatrix.from_coo(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float64), shape,
        )
    keys = sorted(edges)
    rows = np.array([u for u, _ in keys], dtype=np.int64)
    cols = np.array([v for _, v in keys], dtype=np.int64)
    vals = np.array([edges[k] for k in keys], dtype=np.float64)
    return CSRMatrix.from_coo(rows, cols, vals, shape, sum_duplicates=False)


class TestEdgeBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1]), np.array([2]), "upsert")
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1, 2]), np.array([3]))
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1]), np.array([2]), at=-1.0)
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1]), np.array([2]), vals=np.array([1.0, 2.0]))

    def test_coercion_and_count(self):
        b = EdgeBatch(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert b.src.dtype == np.int64 and b.dst.dtype == np.int64
        assert b.n_edges == 2


class TestDeltaCSR:
    def test_insert_appears_in_view(self):
        base = _small_base()
        d = DeltaCSR(base)
        edges = _edge_set(base)
        absent = next(
            (u, v)
            for u in range(base.shape[0])
            for v in range(base.shape[0])
            if u != v and (u, v) not in edges
        )
        res = d.insert_edges([absent[0]], [absent[1]])
        assert res.applied == 1 and res.skipped == 0
        assert res.dirty_rows.tolist() == [absent[0]]
        view = d.view()
        view.check()
        assert _edge_set(view)[absent] == 1.0
        assert view.nnz == base.nnz + 1

    def test_delete_disappears_from_view(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        res = d.delete_edges([u], [v])
        assert res.applied == 1
        assert (u, v) not in _edge_set(d.view())
        assert d.view().nnz == base.nnz - 1

    def test_duplicate_insert_is_noop(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        res = d.insert_edges([u], [v])  # already present with value 1.0
        assert res.applied == 0 and res.skipped == 1
        assert d.pending == 0
        assert d.view() is base  # cache untouched: nothing changed

    def test_insert_with_new_value_overwrites(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        res = d.insert_edges([u], [v], vals=np.array([2.5]))
        assert res.applied == 1
        assert _edge_set(d.view())[(u, v)] == 2.5

    def test_missing_delete_skipped_then_strict_raises(self):
        base = _small_base()
        d = DeltaCSR(base)
        edges = _edge_set(base)
        absent = next(
            (u, v)
            for u in range(base.shape[0])
            for v in range(base.shape[0])
            if u != v and (u, v) not in edges
        )
        res = d.delete_edges([absent[0]], [absent[1]])
        assert res.applied == 0 and res.skipped == 1
        with pytest.raises(ValueError, match=f"{absent[0]} -> {absent[1]}"):
            d.delete_edges([absent[0]], [absent[1]], strict=True)

    def test_vertex_set_is_fixed(self):
        d = DeltaCSR(_small_base(n=10))
        with pytest.raises(ValueError, match="vertex set is fixed"):
            d.insert_edges([3], [10])

    def test_delete_then_reinsert_drains_log(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        d.delete_edges([u], [v])
        assert d.pending == 1
        d.insert_edges([u], [v])  # restores the base value exactly
        assert d.pending == 0
        assert d.view().equal(base)

    def test_exact_threshold_boundary_compacts(self):
        base = _small_base(n=10, degree=2)  # nnz may shrink via duplicates
        limit = 4
        d = DeltaCSR(base, compaction_threshold=limit / base.nnz)
        assert d.compaction_limit == limit
        edges = _edge_set(base)
        absent = [
            (u, v)
            for u in range(10)
            for v in range(10)
            if u != v and (u, v) not in edges
        ][:limit]
        for u, v in absent[: limit - 1]:
            d.insert_edges([u], [v])
            assert not d.maybe_compact()  # below the threshold: no compaction
        d.insert_edges([absent[-1][0]], [absent[-1][1]])
        assert d.pending == limit
        assert d.maybe_compact()  # reaching the limit exactly compacts
        assert d.pending == 0 and d.compactions == 1

    def test_compact_promotes_parity_checked_base(self):
        base = _small_base()
        d = DeltaCSR(base)
        edges = _edge_set(base)
        (u, v) = next(iter(edges))
        absent = next(
            (a, b)
            for a in range(base.shape[0])
            for b in range(base.shape[0])
            if a != b and (a, b) not in edges
        )
        d.delete_edges([u], [v])
        d.insert_edges([absent[0]], [absent[1]], vals=np.array([3.0]))
        new_base = d.compact()
        assert d.base is new_base and d.view() is new_base
        assert d.pending == 0
        new_base.check()
        assert (u, v) not in _edge_set(new_base)
        assert _edge_set(new_base)[absent] == 3.0

    def test_randomized_churn_matches_reference(self):
        """30 rounds of random ins/del vs a plain dict-of-edges model,
        with periodic compactions, stay array-identical throughout."""
        base = _small_base(n=16, degree=4, seed=3)
        d = DeltaCSR(base, compaction_threshold=10 / base.nnz)
        reference = _edge_set(base)
        rng = np.random.default_rng(42)
        for round_ in range(30):
            u = int(rng.integers(0, 16))
            v = int((u + rng.integers(1, 16)) % 16)
            if rng.random() < 0.5 and (u, v) in reference:
                d.delete_edges([u], [v])
                del reference[(u, v)]
            else:
                val = float(rng.integers(1, 5))
                d.insert_edges([u], [v], vals=np.array([val]))
                reference[(u, v)] = val
            d.maybe_compact()
            view = d.view()
            want = _from_edge_dict(reference, base.shape)
            assert np.array_equal(view.indptr, want.indptr)
            assert np.array_equal(view.indices, want.indices)
            assert np.array_equal(view.data, want.data)
        assert d.compactions >= 1  # the sweep actually exercised compaction

    def test_view_is_cached_between_mutations(self):
        d = DeltaCSR(_small_base())
        d.insert_edges([0], [5])
        assert d.view() is d.view()

    def test_failed_strict_delete_leaves_overlay_untouched(self):
        """A strict delete whose second edge is missing used to raise with
        the first already in the log but not in the dirty set or the view,
        and the log no longer replayed to the view (the parity the state
        machine in test_delta_differential.py checks after every rule)."""

        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        assert (u, u) not in _edge_set(base)
        d.insert_edges([u], [(u + 1) % 10], vals=np.array([7.0]))  # a live log
        before = (d.view(), d.pending, d.dirty_row_ids.tolist())
        with pytest.raises(ValueError, match=f"{u} -> {u}"):
            d.delete_edges([u, u], [v, u], strict=True)
        assert d.view() is before[0]
        assert (d.pending, d.dirty_row_ids.tolist()) == before[1:]
        # The error names the first miss in batch order — here the repeat.
        with pytest.raises(ValueError, match=f"{u} -> {v}"):
            d.delete_edges([u, u, u], [v, v, u], strict=True)
        assert d.view() is before[0] and d.pending == before[1]
        # Nothing was half-applied: base + log still replays to the view.
        assert _bytes(rebuild_from_log(d)) == _bytes(d.view())
        d.compact()
        assert (u, v) in _edge_set(d.base)

    def test_a_batch_copies_the_patch_not_the_graph(self):
        """A view after a batch is the anchor plus a patch: it shares the
        anchor's arrays, its patch holds exactly the rows dirtied since the
        anchor was set, ``apply`` allocates O(patch + n) — well under one
        copy of ``indices`` of this ~100k-entry graph — and every view
        handed out stays byte-frozen, built or not."""
        n, degree = 2048, 48
        rng = np.random.default_rng(0)
        rows = np.repeat(np.arange(n), degree)
        cols = (rows + rng.integers(1, n, rows.size)) % n
        base = CSRMatrix.from_coo(rows, cols, None, (n, n))
        base_bytes = _bytes(base)
        d = DeltaCSR(base)
        handed = []
        for k in range(8):
            if k % 2:  # delete each row's first edge
                src = rng.integers(0, n, 16)
                first = d.view().extract_rows(src)
                batch = EdgeBatch(src, first.indices[first.indptr[:-1]], "delete")
            else:
                batch = EdgeBatch(rng.integers(0, n, 16), rng.integers(0, n, 16))
            tracemalloc.start()
            d.apply(batch)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            view = d.view()
            assert view.anchor is base and not view.built
            assert sorted(view.patch_rows.tolist()) == d.dirty_row_ids.tolist()
            assert view.patch.nnz == view.nnz_per_row()[d.dirty_row_ids].sum()
            assert peak <= 32 * view.patch.nnz + 64 * n + 65536
            assert peak < 8 * base.nnz // 2
            handed.append((view, _served(view)))
        for view, frozen in handed:
            assert _served(view) == frozen
        want = _from_edge_dict(_edge_set(d.view()), (n, n))
        assert _bytes(d.view()) == _bytes(want)
        for view, frozen in handed:  # now built: the same bytes
            assert _bytes(view) == frozen and view.built
        assert _bytes(base) == base_bytes  # the anchor was never written

    def test_materialize_span_names_the_reader(self):
        """A view's one-time build of each canonical array is a
        ``materialize`` span inside the reader that asked for it, carrying
        the patch size; a second read builds nothing."""
        d = DeltaCSR(_small_base())
        d.insert_edges([0, 3], [5, 7])
        view = d.view()
        patch_nnz = view.patch.nnz
        tracer = Tracer()
        prior = set_tracer(tracer)
        try:
            with tracer.span("reader"):
                view.check()
            view.to_coo()
        finally:
            set_tracer(prior)
        reader = next(s for s in tracer.spans if s.name == "reader")
        built = [s for s in tracer.spans if s.name == "materialize"]
        assert [s.args for s in built] == [
            {"array": "indices", "patch_nnz": patch_nnz},
            {"array": "data", "patch_nnz": patch_nnz},
        ]
        assert all(reader.start <= s.start <= s.end <= reader.end for s in built)

    def test_update_cost_does_not_grow_with_history(self):
        """64 sixteen-edge batches, compaction off: an update costs at most
        one copy of the CSR arrays whatever came before it — the patch it
        re-gathers is folded before it outgrows that (the dict overlay
        re-merged every row dirtied so far: last 8 / first 8 was > 10x).
        The counters and every simulated charge are pinned from that
        overlay, which is what keeps the SimClock baselines still."""
        adj = rmat(13, 8, np.random.default_rng(21))
        n = adj.shape[0]
        rng = np.random.default_rng(5)
        batches = []
        for k in range(64):
            if k % 2:
                pick = rng.choice(adj.nnz, 16, replace=False)
                src = np.searchsorted(adj.indptr, pick, side="right") - 1
                batches.append(EdgeBatch(src, adj.indices[pick], "delete"))
            else:
                batches.append(
                    EdgeBatch(rng.integers(0, n, 16), rng.integers(0, n, 16))
                )
        best = np.full(len(batches), np.inf)
        for _ in range(5):
            sg = StreamingGraph(
                Graph(name="hist", adj=adj, features=np.zeros((n, 1))),
                compaction_threshold=1e6,
            )
            costs = []
            for k, batch in enumerate(batches):
                t = time.perf_counter()
                result = sg.apply(batch)
                best[k] = min(best[k], time.perf_counter() - t)
                costs.append(result.sim_cost)
        assert best[-8:].mean() <= 3 * best[:8].mean()
        s = sg.stats
        assert (s.batches, s.applied, s.skipped, s.dirty_vertices,
                s.merged_rows, s.compactions) == (64, 1021, 3, 1015, 28920, 0)
        assert sg.delta.pending == 1021
        assert sum(c["merged_nnz"] for c in costs) == 974507.0
        assert hashlib.sha256(
            json.dumps(costs, sort_keys=True).encode()
        ).hexdigest() == (
            "ba32011de579a9809c2645791992ef73f013e7211d293bdf8fd136c998e947ca"
        )


class TestSortedSetOps:
    """The write path's sorted merges return what numpy's set operations
    do — the same sorted, duplicate-free int64 arrays — without hashing."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(-60, 60), max_size=40),
        st.lists(st.integers(-60, 60), max_size=40),
    )
    def test_match_numpy(self, xs, ys):
        x, y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
        a, b = np.unique(x), np.unique(y)
        for got, want in (
            (_unique(x), a),
            (_union(a, b), np.union1d(a, b)),
            (a[~_isin_sorted(a, b)], np.setdiff1d(a, b, assume_unique=True)),
            (_isin_sorted(x, b), np.isin(x, b)),
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestDirtyClosure:
    @pytest.fixture()
    def chain(self):
        # 0 -> 1 -> 2 (row u lists u's aggregation sources)
        return CSRMatrix.from_coo(
            np.array([0, 1]), np.array([1, 2]), np.ones(2), (3, 3)
        )

    def test_zero_hops_is_the_dirty_set(self, chain):
        assert dirty_closure(chain, np.array([2]), 0).tolist() == [2]

    def test_reverse_reachability(self, chain):
        assert dirty_closure(chain, np.array([2]), 1).tolist() == [1, 2]
        assert dirty_closure(chain, np.array([2]), 2).tolist() == [0, 1, 2]

    def test_empty_input(self, chain):
        assert dirty_closure(chain, np.empty(0, np.int64), 3).size == 0


class TestStreamingGraph:
    def _graph(self, n=12):
        adj = _small_base(n=n, degree=3, seed=5)
        rng = np.random.default_rng(0)
        return Graph(
            name="toy", adj=adj, features=rng.standard_normal((n, 4))
        )

    def test_apply_refreshes_graph_adj(self):
        g = self._graph()
        sg = StreamingGraph(g)
        before = g.adj
        edges = _edge_set(before)
        absent = next(
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and (u, v) not in edges
        )
        result = sg.apply(EdgeBatch(np.array([absent[0]]), np.array([absent[1]])))
        assert g.adj is not before
        assert absent in _edge_set(g.adj)
        assert set(result.sim_cost) == {
            "batch_edges", "merged_nnz", "compacted_nnz",
        }

    def test_stats_accumulate(self):
        g = self._graph()
        sg = StreamingGraph(g)
        (u, v) = next(iter(_edge_set(g.adj)))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))  # skip
        assert sg.stats.batches == 2
        assert sg.stats.applied == 1 and sg.stats.skipped == 1
        assert sg.stats.dirty_vertices == 1
        assert sg.stats.row()["edits"] == 1

    def test_auto_compact_off_leaves_log(self):
        g = self._graph()
        sg = StreamingGraph(g, compaction_threshold=1 / g.adj.nnz,
                            auto_compact=False)
        (u, v) = next(iter(_edge_set(g.adj)))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))
        assert sg.delta.pending == 1 and sg.stats.compactions == 0
        sg.compact()
        assert sg.delta.pending == 0 and sg.stats.compactions == 1

    def test_rebuild_from_scratch_matches_current(self):
        g = self._graph()
        sg = StreamingGraph(g)
        (u, v) = next(iter(_edge_set(g.adj)))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))
        rebuilt = sg.rebuild_from_scratch()
        assert rebuilt.name == "toy-rebuilt"
        assert rebuilt.adj is not g.adj
        assert rebuilt.adj.equal(g.adj)
        assert rebuilt.features is g.features  # vertex data is shared


class TestUpdateStream:
    def test_synthetic_is_deterministic_and_sorted(self, small_adj):
        pool = np.arange(64, dtype=np.int64)
        a = UpdateStream.synthetic(small_adj, pool, n_requests=16,
                                   update_ratio=0.5, seed=9)
        b = UpdateStream.synthetic(small_adj, pool, n_requests=16,
                                   update_ratio=0.5, seed=9)
        assert len(a.edge_batches) == len(b.edge_batches) == 8
        ats = [x.at for x in a.edge_batches]
        assert ats == sorted(ats)
        for x, y in zip(a.edge_batches, b.edge_batches):
            assert x.op == y.op and x.at == y.at
            assert np.array_equal(x.src, y.src)
            assert np.array_equal(x.dst, y.dst)
        assert a.n_update_edges == 8 * 8

    def test_deletes_exist_and_inserts_are_absent(self, small_adj):
        pool = np.arange(64, dtype=np.int64)
        wl = UpdateStream.synthetic(small_adj, pool, n_requests=16,
                                    update_ratio=0.5, edges_per_update=4,
                                    delete_fraction=0.5, seed=1)
        edges = _edge_set(small_adj)
        for batch in wl.edge_batches:
            for u, v in zip(batch.src, batch.dst):
                if batch.op == "delete":
                    assert (int(u), int(v)) in edges
                else:
                    assert (int(u), int(v)) not in edges

    def test_validation(self, small_adj):
        pool = np.arange(8, dtype=np.int64)
        with pytest.raises(ValueError):
            UpdateStream.synthetic(small_adj, pool, n_requests=4,
                                   update_ratio=-0.1)
        with pytest.raises(ValueError):
            UpdateStream.synthetic(small_adj, pool, n_requests=4,
                                   delete_fraction=1.5)
        with pytest.raises(ValueError):
            UpdateStream.synthetic(small_adj, pool, n_requests=4,
                                   edges_per_update=0)
        with pytest.raises(ValueError, match="distinct edges"):
            UpdateStream.synthetic(
                small_adj, pool, n_requests=4, update_ratio=1.0,
                edges_per_update=small_adj.nnz, delete_fraction=1.0,
            )

    @pytest.mark.parametrize("seed, digest", [
        (1, "3de855941f4924a6a89bb4b85da0021dd2d5c94e34656d8054c9527ced870edb"),
        (9, "cab57990572423b3002fc2c6790cbfc0b8839276f83d3bf9d8c0d35d3aa7432b"),
    ])
    def test_synthetic_stream_is_pinned(self, small_adj, seed, digest):
        """(src, dst, op, at) of every batch, pinned from the generator that
        tested membership in a Python set of all edges: the CSR lookup draws
        the same numbers in the same order."""
        wl = UpdateStream.synthetic(
            small_adj, np.arange(64, dtype=np.int64), n_requests=32,
            update_ratio=0.5, edges_per_update=8, seed=seed,
        )
        h = hashlib.sha256()
        for b in wl.edge_batches:
            h.update(b.src.tobytes())
            h.update(b.dst.tobytes())
            h.update(b.op.encode())
            h.update(np.float64(b.at).tobytes())
        assert h.hexdigest() == digest

    def test_zero_ratio_has_no_updates(self, small_adj):
        wl = UpdateStream.synthetic(small_adj, np.arange(8, dtype=np.int64),
                                    n_requests=4, update_ratio=0.0)
        assert wl.updates() == []


class TestEmbeddingCacheInvalidate:
    """Satellite: the invalidate() hook, independent of any streaming."""

    def test_invalidate_drops_resident_rows_only(self):
        cache = EmbeddingCache(10, 3, budget_bytes=1e6)
        rows = np.arange(6, dtype=np.float64).reshape(2, 3)
        cache.insert(np.array([2, 5]), rows)
        dropped = cache.invalidate(np.array([5, 7]))
        assert dropped == 1
        mask, _ = cache.lookup(np.array([2, 5]))
        assert mask.tolist() == [True, False]

    def test_invalidations_counted_separately_from_evictions(self):
        cache = EmbeddingCache(10, 2, budget_bytes=2 * 4 * 2)  # 2 rows
        cache.insert(np.array([1, 2]), np.zeros((2, 2)))
        cache.insert(np.array([3]), np.ones((1, 2)))  # capacity eviction
        assert cache.stats.evictions == 1
        cache.invalidate(np.array(list(cache.cached_ids)))
        assert cache.stats.invalidations == 2
        assert cache.stats.evictions == 1  # unchanged by invalidation
        cache.stats.reset()
        assert cache.stats.invalidations == 0

    def test_out_of_range_raises(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        with pytest.raises(IndexError):
            cache.invalidate(np.array([10]))
        with pytest.raises(IndexError):
            cache.invalidate(np.array([-1]))

    def test_empty_and_duplicate_ids(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        cache.insert(np.array([4]), np.zeros((1, 2)))
        assert cache.invalidate(np.empty(0, np.int64)) == 0
        assert cache.invalidate(np.array([4, 4, 4])) == 1
        assert cache.stats.invalidations == 1

    def test_reinsert_after_invalidate(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        cache.insert(np.array([4]), np.zeros((1, 2)))
        cache.invalidate(np.array([4]))
        fresh = np.full((1, 2), 7.0)
        cache.insert(np.array([4]), fresh)
        mask, got = cache.lookup(np.array([4]))
        assert mask.all() and np.array_equal(got, fresh)


class TestCachedFeatureStoreInvalidate:
    """Satellite: the feature-replica invalidate() hook."""

    def _cache(self, p=4, c=2, n=64, f=8, rows=16):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((n, f))
        store = FeatureStore(feats, ProcessGrid(p, c))
        scores = rng.zipf(2.0, size=n).astype(np.float64)
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(rows), scores=scores
        )
        return feats, cache, Communicator(p)

    def test_invalidate_shrinks_residency(self):
        _, cache, _ = self._cache()
        resident = cache.cached_ids
        assert resident.size > 0
        drop = resident[: resident.size // 2]
        assert cache.invalidate(drop) == drop.size
        assert cache.stats.invalidations == drop.size
        left = cache.cached_ids
        assert np.intersect1d(left, drop).size == 0

    def test_fetch_stays_exact_after_invalidate(self, rng):
        feats, cache, comm = self._cache()
        cache.invalidate(cache.cached_ids[:5])
        needed = [rng.choice(64, 12, replace=True) for _ in range(4)]
        got = cache.fetch(comm, needed)
        for r in range(4):
            assert np.array_equal(got[r], feats[needed[r]])

    def test_nonresident_ids_are_free(self):
        _, cache, _ = self._cache()
        missing = np.setdiff1d(np.arange(64), cache.cached_ids)[:3]
        assert cache.invalidate(missing) == 0
        assert cache.stats.invalidations == 0

    def test_out_of_range_raises(self):
        _, cache, _ = self._cache()
        with pytest.raises(IndexError):
            cache.invalidate(np.array([64]))


# ---------------------------------------------------------------------- #
# Update-interleaved serving
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trained_engine() -> Engine:
    cfg = RunConfig(
        dataset="products", scale=0.1, train_split=0.5, p=1, c=1,
        algorithm="single", sampler="sage", fanout=(4, 3), batch_size=16,
        hidden=16, epochs=1, seed=0,
    )
    engine = Engine(cfg)
    engine.train(1)
    return engine


def _streaming_server(
    engine: Engine,
    *,
    embed_budget: float = 0.0,
    compaction_threshold: float = 0.25,
    serve_batch_size: int = 8,
):
    """A fresh streaming server over a point-local graph copy (array
    payloads shared; churn must not leak into the module fixture)."""
    graph = copy.copy(engine.graph)
    cfg = engine.config.replace(
        serve_batch_size=serve_batch_size,
        embed_budget=embed_budget,
        compaction_threshold=compaction_threshold,
        stream_updates=True,
    )
    stream = StreamingGraph(graph, compaction_threshold=compaction_threshold)
    return ServingCluster(engine.model, graph, cfg, stream=stream)


def _churn_workload(engine: Engine, *, n_requests=32, update_ratio=0.5,
                    seed=0) -> UpdateStream:
    return UpdateStream.synthetic(
        engine.graph.adj, engine.graph.test_idx, n_requests=n_requests,
        update_ratio=update_ratio, seed=seed,
    )


# Digest of the 32-request / 0.5-ratio / seed-0 streaming run below
# (re-recorded from 20fbc1ad… when ``spmm`` moved to scipy's left-to-right
# CSR kernel, from 34ed807f… when ``stable_matmul`` moved to fixed-shape
# BLAS GEMMs, from 351ccdd3… when the model moved to float32, and from
# 566b9ec4… when SAMPLE moved to one prefix sum with rejection rounds).  The
# serving stack is bit-exact and row-stable, so on one build of those
# kernels an unexplained change means updates, sampling or inference
# drifted.
GOLDEN_STREAM_DIGEST = (
    "c459b91ba0d072907967ee1830adf08ce7db1297f40a93c8bc12c7a0e0fd19d7"
)


class TestStreamingServing:
    def test_post_churn_parity_cache_off_on_and_golden_digest(
        self, trained_engine
    ):
        digests = {}
        for budget in (0.0, 65536.0):
            server = _streaming_server(trained_engine, embed_budget=budget)
            report = server.process(_churn_workload(trained_engine))
            digests[budget] = report.digest()
            # Warm-cache serving on the churned graph vs layer-wise
            # inference on an independent from-scratch rebuild.
            verts = trained_engine.graph.test_idx[:48]
            rebuilt = server.stream.rebuild_from_scratch()
            reference = layerwise_inference(trained_engine.model, rebuilt)
            assert np.array_equal(server.serve(verts), reference[verts])
        assert digests[0.0] == digests[65536.0]
        skip_unless_pinned_kernels()
        assert digests[0.0] == GOLDEN_STREAM_DIGEST

    def test_compaction_during_serving_keeps_parity(self, trained_engine):
        limit = 40 / trained_engine.graph.adj.nnz
        server = _streaming_server(
            trained_engine, embed_budget=65536.0, compaction_threshold=limit
        )
        report = server.process(_churn_workload(trained_engine))
        assert server.stream.stats.compactions >= 1
        assert report.update_stats.compactions >= 1
        verts = trained_engine.graph.test_idx[:48]
        rebuilt = server.stream.rebuild_from_scratch()
        reference = layerwise_inference(trained_engine.model, rebuilt)
        assert np.array_equal(server.serve(verts), reference[verts])

    def test_updates_invalidate_cached_embeddings(self, trained_engine):
        server = _streaming_server(trained_engine, embed_budget=65536.0)
        report = server.process(_churn_workload(trained_engine))
        assert server.replicas[0].cache is not None
        assert report.cache_stats.invalidations > 0
        assert report.update_stats.batches == 16
        assert "update_batches" in report.row()

    def test_mid_stream_update_changes_the_served_vertex(self, trained_engine):
        """A vertex requested before and after an edge update must be
        served from the pre- and post-update graph respectively."""
        engine = trained_engine
        graph = copy.copy(engine.graph)
        v = int(graph.test_idx[0])
        # An insertion into v's own row always changes its aggregation.
        cols, _ = graph.adj.row(v)
        u = next(
            w for w in range(graph.n) if w != v and w not in set(cols.tolist())
        )
        ref_before = layerwise_inference(engine.model, graph)
        requests = [
            InferenceRequest(rid=0, vertices=np.array([v]), arrival=0.0),
            InferenceRequest(rid=1, vertices=np.array([v]), arrival=0.5),
        ]
        update = EdgeBatch(np.array([v]), np.array([u]), "insert", at=0.25)
        cfg = engine.config.replace(stream_updates=True)
        server = ServingCluster(
            engine.model, graph, cfg, stream=StreamingGraph(graph)
        )
        report = server.process(UpdateStream(TraceWorkload(requests), [update]))
        ref_after = layerwise_inference(engine.model, graph)
        first, second = report.results
        assert np.array_equal(first.logits, ref_before[[v]])
        assert np.array_equal(second.logits, ref_after[[v]])
        assert not np.array_equal(first.logits, second.logits)

    def test_second_streaming_server_anchors_on_canonical_arrays(
        self, trained_engine
    ):
        """Two streaming servers in turn on one engine: the second wraps the
        adjacency the first left behind — a view — and anchors on its
        canonical arrays instead of nesting one patch in another; its row
        reads, ``rebuild_from_scratch`` and served logits follow the edge
        model."""
        engine = Engine(trained_engine.config, graph=copy.copy(trained_engine.graph))
        engine._pipeline = trained_engine.pipeline  # reuse trained weights
        shape, verts = engine.graph.adj.shape, engine.graph.test_idx[:32]
        edges = _edge_set(engine.graph.adj)
        rng = np.random.default_rng(7)
        left = None
        for _ in range(2):
            server = engine.serving(stream=True, fleet=False)
            base = server.stream.delta.base
            assert type(base) is CSRMatrix
            if left is not None:  # the first server's view, built for it
                assert left.built and base.indices is left.indices
            for k in range(6):
                if k % 2:
                    gone = list(edges)[:: max(1, len(edges) // 8)][:8]
                    src, dst = map(np.array, zip(*gone))
                    server.apply_update(EdgeBatch(src, dst, "delete"))
                    for e in gone:
                        del edges[e]
                else:
                    src, dst = rng.integers(0, shape[0], (2, 8))
                    server.apply_update(EdgeBatch(src, dst, "insert"))
                    edges.update({(int(u), int(v)): 1.0 for u, v in zip(src, dst)})
            left = engine.graph.adj
            assert left.anchor is base and not left.built
            want = _from_edge_dict(edges, shape)
            assert _bytes(left.extract_rows(verts)) == _bytes(want.extract_rows(verts))
            served = server.serve(verts)
            assert not left.built  # exact serving reads rows only
            reference = layerwise_inference(
                engine.model, dataclasses.replace(engine.graph, adj=want)
            )
            assert np.array_equal(served, reference[verts])
        assert _bytes(server.stream.rebuild_from_scratch().adj) == _bytes(want)

    def test_update_workload_on_frozen_engine_raises(self, trained_engine):
        server = trained_engine.serving()  # stream_updates defaults off
        with pytest.raises(ValueError, match="frozen graph"):
            server.process(_churn_workload(trained_engine))
        with pytest.raises(ValueError, match="frozen graph"):
            server.apply_update(
                EdgeBatch(np.array([0]), np.array([1]), "insert")
            )

    def test_engine_serving_builds_stream_from_config(self, trained_engine):
        cfg = trained_engine.config.replace(stream_updates=True)
        engine = Engine(cfg, graph=copy.copy(trained_engine.graph))
        engine._pipeline = trained_engine.pipeline  # reuse trained weights
        server = engine.serving()
        assert server.stream is not None
        assert server.stream.compaction_threshold == cfg.compaction_threshold
        report = server.process(
            _churn_workload(trained_engine, n_requests=8, update_ratio=0.5)
        )
        assert report.n_requests == 8

    def test_runconfig_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="compaction_threshold"):
            RunConfig(compaction_threshold=0.0)
        cfg = RunConfig(stream_updates=True, compaction_threshold=0.1)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestStreamCLI:
    def test_stream_command_verifies(self, capsys):
        from repro.cli import main

        rc = main([
            "stream", "products", "--scale", "0.05", "--requests", "8",
            "--hidden", "8", "--fanout", "3,2", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "logits digest:" in out
        assert "verified: post-churn logits bit-identical" in out

    def test_stream_command_without_updates(self, capsys):
        from repro.cli import main

        rc = main([
            "stream", "products", "--scale", "0.05", "--requests", "4",
            "--hidden", "8", "--fanout", "3,2", "--update-ratio", "0",
        ])
        assert rc == 0
        assert "no edge updates" in capsys.readouterr().out
