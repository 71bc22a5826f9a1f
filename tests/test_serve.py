"""The online serving subsystem: queueing policy, embedding cache, engine
exactness, workloads, and the api/CLI wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Engine, RunConfig
from repro.pipeline import layerwise_inference
from repro.serve import (
    ClosedLoopWorkload,
    EmbeddingCache,
    InferenceRequest,
    MicroBatcher,
    RequestQueue,
    ServingCluster,
    TraceWorkload,
    load_trace,
    save_trace,
)


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


@pytest.fixture(scope="module")
def reference_logits(trained_engine) -> np.ndarray:
    return layerwise_inference(trained_engine.model, trained_engine.graph)


def _requests(specs):
    return [
        InferenceRequest(rid=i, vertices=np.array(v), arrival=t)
        for i, (t, v) in enumerate(specs)
    ]


class TestRequestTypes:
    def test_request_validation(self):
        with pytest.raises(ValueError):
            InferenceRequest(rid=0, vertices=np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            InferenceRequest(rid=0, vertices=np.array([1]), arrival=-1.0)
        with pytest.raises(ValueError):
            InferenceRequest(rid=0, vertices=np.array([[1, 2]]))

    def test_vertices_coerced_to_int64(self):
        req = InferenceRequest(rid=0, vertices=np.array([3.0, 1.0]))
        assert req.vertices.dtype == np.int64


class TestMicroBatcher:
    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait=-1.0)

    def test_full_batch_dispatches_immediately(self):
        q = RequestQueue()
        for r in _requests([(0.0, [1]), (0.0, [2]), (0.0, [3])]):
            q.push(r)
        t, batch = MicroBatcher(3, max_wait=10.0).next_dispatch(q, free_at=0.0)
        assert t == 0.0
        assert [r.rid for r in batch] == [0, 1, 2]

    def test_partial_batch_waits_out_max_wait(self):
        q = RequestQueue()
        for r in _requests([(0.0, [1]), (0.001, [2])]):
            q.push(r)
        t, batch = MicroBatcher(8, max_wait=0.005).next_dispatch(q, 0.0)
        assert t == pytest.approx(0.005)  # oldest arrival + max_wait
        assert len(batch) == 2  # the second request joined before the flush

    def test_arrival_can_complete_a_batch_early(self):
        q = RequestQueue()
        for r in _requests([(0.0, [1]), (0.002, [2])]):
            q.push(r)
        t, batch = MicroBatcher(2, max_wait=0.01).next_dispatch(q, 0.0)
        assert t == pytest.approx(0.002)  # filled by the second arrival
        assert len(batch) == 2

    def test_arrival_after_deadline_left_behind(self):
        q = RequestQueue()
        for r in _requests([(0.0, [1]), (0.02, [2])]):
            q.push(r)
        batcher = MicroBatcher(8, max_wait=0.005)
        t, batch = batcher.next_dispatch(q, 0.0)
        assert t == pytest.approx(0.005) and [r.rid for r in batch] == [0]
        t2, batch2 = batcher.next_dispatch(q, free_at=t)
        assert t2 == pytest.approx(0.025) and [r.rid for r in batch2] == [1]

    def test_server_busy_collects_arrivals(self):
        """Requests arriving while the server is busy form the next batch."""
        q = RequestQueue()
        for r in _requests([(0.0, [1]), (0.001, [2]), (0.002, [3])]):
            q.push(r)
        batcher = MicroBatcher(2, max_wait=10.0)
        t, batch = batcher.next_dispatch(q, free_at=0.0)
        assert t == pytest.approx(0.001) and len(batch) == 2
        # Server busy until 0.05: the remaining request waits for it (its
        # max_wait deadline passed long before the server freed up).
        t2, batch2 = batcher.next_dispatch(q, free_at=0.05)
        assert t2 >= 0.05 and [r.rid for r in batch2] == [2]

    def test_idle_queue_returns_none(self):
        assert MicroBatcher(4).next_dispatch(RequestQueue(), 0.0) is None

    def test_empty_queue_none_regardless_of_free_time(self):
        assert MicroBatcher(4).next_dispatch(RequestQueue(), 123.0) is None

    def test_zero_max_wait_flushes_on_arrival(self):
        """max_wait=0 degenerates to dispatch-on-arrival: a lone request
        never waits for company."""
        q = RequestQueue()
        for r in _requests([(0.003, [1]), (0.01, [2])]):
            q.push(r)
        t, batch = MicroBatcher(8, max_wait=0.0).next_dispatch(q, free_at=0.0)
        assert t == pytest.approx(0.003)
        assert [r.rid for r in batch] == [0]

    def test_zero_max_wait_still_coalesces_while_busy(self):
        """Even at max_wait=0, requests that accumulate behind a busy
        server leave as one batch when it frees up."""
        q = RequestQueue()
        for r in _requests([(0.0, [1]), (0.001, [2]), (0.002, [3])]):
            q.push(r)
        t, batch = MicroBatcher(8, max_wait=0.0).next_dispatch(q, free_at=0.01)
        assert t == pytest.approx(0.01)
        assert [r.rid for r in batch] == [0, 1, 2]

    def test_size_forced_vs_deadline_forced(self):
        """The same arrivals dispatch at the last member's arrival when the
        batch fills (size-forced) but at oldest+max_wait when it cannot
        (deadline-forced)."""
        specs = [(0.0, [1]), (0.002, [2])]
        q = RequestQueue()
        for r in _requests(specs):
            q.push(r)
        t_size, batch = MicroBatcher(2, max_wait=0.01).next_dispatch(q, 0.0)
        assert t_size == pytest.approx(0.002) and len(batch) == 2
        q = RequestQueue()
        for r in _requests(specs):
            q.push(r)
        t_wait, batch = MicroBatcher(8, max_wait=0.01).next_dispatch(q, 0.0)
        assert t_wait == pytest.approx(0.01) and len(batch) == 2

    def test_batch_size_one_is_per_request(self):
        q = RequestQueue()
        for r in _requests([(0.0, [1]), (0.0, [2])]):
            q.push(r)
        batcher = MicroBatcher(1, max_wait=10.0)
        _, b1 = batcher.next_dispatch(q, 0.0)
        _, b2 = batcher.next_dispatch(q, 0.0)
        assert [r.rid for r in b1] == [0] and [r.rid for r in b2] == [1]


class TestEmbeddingCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingCache(0, 4, budget_bytes=100)
        with pytest.raises(ValueError):
            EmbeddingCache(10, 4, budget_bytes=-1)

    def test_capacity_from_budget(self):
        cache = EmbeddingCache(100, 4, budget_bytes=3 * 4 * 4)
        assert cache.capacity_rows == 3 and cache.row_bytes == 4 * 4
        # The budget buys rows of the model's width: float64 rows halve it.
        wide = EmbeddingCache(100, 4, budget_bytes=3 * 4 * 4, dtype=np.float64)
        assert wide.capacity_rows == 1 and wide._slab.dtype == np.float64

    def test_exact_rows_roundtrip(self):
        cache = EmbeddingCache(10, 3, budget_bytes=1e6)
        rows = np.arange(6, dtype=np.float32).reshape(2, 3) / 7.0
        cache.insert(np.array([4, 7]), rows)
        mask, got = cache.lookup(np.array([4, 5, 7]))
        assert mask.tolist() == [True, False, True]
        assert got.dtype == np.float32 and got.tobytes() == rows.tobytes()
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_lfu_eviction_keeps_hot_rows(self):
        cache = EmbeddingCache(10, 2, budget_bytes=2 * 4 * 2)  # 2 rows
        for _ in range(3):
            cache.lookup(np.array([1]))  # vertex 1 is hot
        cache.lookup(np.array([2, 3]))
        cache.insert(np.array([1, 2]), np.zeros((2, 2)))
        cache.insert(np.array([3]), np.ones((1, 2)))  # over budget
        assert 1 in cache.cached_ids  # hottest survives
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_duplicate_ids_in_one_insert_raise(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        cache.insert(np.array([1]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="duplicate vertex id 7"):
            cache.insert(np.array([3, 7, 1, 7]), np.ones((4, 2)))
        assert cache.cached_ids.tolist() == [1]
        assert cache.stats.inserts == 1

    def test_slab_within_budget_and_lookup_copies(self):
        cache = EmbeddingCache(10, 3, budget_bytes=4 * 4 * 3 + 11)
        assert cache._slab.shape == (4, 3) and cache._slab.nbytes <= 4 * 4 * 3 + 11
        cache.insert(np.array([2]), np.full((1, 3), 0.25))
        _, got = cache.lookup(np.array([2]))
        got[:] = -1.0
        _, again = cache.lookup(np.array([2]))
        assert np.array_equal(again, np.full((1, 3), 0.25))

    def test_zero_budget_caches_nothing(self):
        cache = EmbeddingCache(10, 2, budget_bytes=0)
        cache.insert(np.array([1]), np.zeros((1, 2)))
        assert len(cache) == 0

    def test_clear(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        cache.insert(np.array([1]), np.zeros((1, 2)))
        cache.clear()
        assert len(cache) == 0


class TestWorkloads:
    def test_trace_roundtrip(self, tmp_path):
        wl = TraceWorkload(
            _requests([(0.0, [1, 2]), (0.5, [3])])
        )
        path = save_trace(wl, tmp_path / "trace.json")
        loaded = load_trace(path)
        assert len(loaded.requests) == 2
        assert np.array_equal(loaded.requests[0].vertices, [1, 2])
        assert loaded.requests[1].arrival == 0.5

    def test_load_trace_rejects_empty(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_synthetic_trace_deterministic(self):
        pool = np.arange(50)
        a = TraceWorkload.synthetic(10, pool, seed=3)
        b = TraceWorkload.synthetic(10, pool, seed=3)
        assert all(
            np.array_equal(x.vertices, y.vertices)
            for x, y in zip(a.requests, b.requests)
        )

    def test_closed_loop_issues_after_completion(self):
        wl = ClosedLoopWorkload(5, np.arange(20), clients=2, seed=0)
        first = wl.initial()
        assert len(first) == 2 and all(r.arrival == 0.0 for r in first)
        from repro.serve import InferenceResult

        result = InferenceResult(
            request=first[0], logits=np.zeros((1, 2)), dispatched=0.0,
            completed=0.25, batch_index=0, batch_size=2,
        )
        nxt = wl.on_complete(result)
        assert len(nxt) == 1 and nxt[0].arrival == 0.25

    def test_closed_loop_caps_total_requests(self, trained_engine):
        wl = ClosedLoopWorkload(
            7, trained_engine.graph.test_idx, clients=3, seed=0
        )
        report = trained_engine.serving().process(wl)
        assert report.n_requests == 7


class TestServingExactness:
    def test_bit_identical_to_layerwise_cache_off(
        self, trained_engine, reference_logits
    ):
        wl = ClosedLoopWorkload(
            24, trained_engine.graph.test_idx, clients=6, seed=1
        )
        report = trained_engine.serving().process(wl)
        for r in report.results:
            assert np.array_equal(
                r.logits, reference_logits[r.request.vertices]
            )

    def test_bit_identical_with_cache_on(
        self, trained_engine, reference_logits
    ):
        server = ServingCluster(
            trained_engine.model,
            trained_engine.graph,
            trained_engine.config.replace(embed_budget=65536.0),
        )
        wl = ClosedLoopWorkload(
            24, trained_engine.graph.test_idx, clients=6, seed=1
        )
        report = server.process(wl)
        assert report.cache_stats is not None
        assert report.cache_stats.hits > 0  # the cache actually engaged
        for r in report.results:
            assert np.array_equal(
                r.logits, reference_logits[r.request.vertices]
            )

    def test_digest_invariant_to_batching_policy(self, trained_engine):
        reports = []
        for batch_cap, budget in ((1, 0.0), (8, 0.0), (4, 32768.0)):
            server = ServingCluster(
                trained_engine.model,
                trained_engine.graph,
                trained_engine.config.replace(
                    serve_batch_size=batch_cap, embed_budget=budget
                ),
            )
            wl = TraceWorkload.synthetic(
                20, trained_engine.graph.test_idx, seed=5, interarrival=1e-4
            )
            reports.append(server.process(wl))
        digests = {r.digest() for r in reports}
        assert len(digests) == 1

    def test_multi_vertex_and_duplicate_requests(
        self, trained_engine, reference_logits
    ):
        verts = trained_engine.graph.test_idx[:3]
        req = np.array([verts[0], verts[2], verts[0]])  # duplicates kept
        logits = trained_engine.serving().serve(req)
        assert logits.shape[0] == 3
        assert np.array_equal(logits, reference_logits[req])

    def test_one_layer_model_exact(self):
        cfg = RunConfig(
            dataset="products", scale=0.1, train_split=0.5, p=1, c=1,
            algorithm="single", sampler="ladies", fanout=(8,),
            batch_size=16, hidden=16, epochs=1, seed=0,
        )
        engine = Engine(cfg)
        engine.train(1)
        ref = layerwise_inference(engine.model, engine.graph)
        logits = engine.serving().serve(engine.graph.test_idx[:5])
        assert np.array_equal(logits, ref[engine.graph.test_idx[:5]])

    def test_non_relu_model_exact(self):
        cfg = RunConfig(
            dataset="products", scale=0.1, train_split=0.5, p=1, c=1,
            algorithm="single", sampler="sage", fanout=(4, 3),
            batch_size=16, hidden=16, epochs=1, seed=0, activation="identity",
        )
        engine = Engine(cfg)
        engine.train(1)
        ref = layerwise_inference(engine.model, engine.graph)
        logits = engine.serving().serve(engine.graph.test_idx[:5])
        assert np.array_equal(logits, ref[engine.graph.test_idx[:5]])


class TestServingDynamics:
    def test_micro_batching_beats_per_request(self, trained_engine):
        """The acceptance criterion: batch >= 8 strictly out-throughputs
        one-request-at-a-time sampling at the same offered load."""
        rates = {}
        for cap in (1, 8):
            server = ServingCluster(
                trained_engine.model,
                trained_engine.graph,
                trained_engine.config.replace(serve_batch_size=cap),
            )
            wl = ClosedLoopWorkload(
                48, trained_engine.graph.test_idx, clients=8, seed=2
            )
            rates[cap] = server.process(wl).throughput
        assert rates[8] > rates[1]

    def test_latency_accounting(self, trained_engine):
        server = trained_engine.serving()
        wl = TraceWorkload(
            _requests([(0.0, [int(trained_engine.graph.test_idx[0])])])
        )
        report = server.process(wl)
        r = report.results[0]
        # A lone request waits out max_wait before its batch dispatches.
        assert r.dispatched == pytest.approx(
            trained_engine.config.serve_max_wait
        )
        assert r.completed > r.dispatched
        assert r.latency == pytest.approx(r.queue_wait + (r.completed - r.dispatched))
        assert report.phase_seconds["sampling"] > 0
        assert report.phase_seconds["propagation"] > 0

    def test_report_row_and_summary(self, trained_engine):
        wl = TraceWorkload.synthetic(
            8, trained_engine.graph.test_idx, seed=0
        )
        report = trained_engine.serving().process(wl)
        row = report.row()
        assert row["requests"] == 8
        summary = report.latency_summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert report.throughput > 0

    def test_sampled_mode_runs_any_sampler(self, trained_engine):
        server = ServingCluster(
            trained_engine.model, trained_engine.graph,
            trained_engine.config, fanout=(3, 2),
        )
        assert not server.exact
        wl = TraceWorkload.synthetic(6, trained_engine.graph.test_idx, seed=0)
        report = server.process(wl)
        assert report.n_requests == 6

    def test_sampled_mode_fanout_length_checked(self, trained_engine):
        with pytest.raises(ValueError):
            ServingCluster(
                trained_engine.model, trained_engine.graph,
                trained_engine.config, fanout=(3,),
            )


class TestWiring:
    def test_runconfig_serving_fields_validate(self):
        with pytest.raises(ValueError):
            RunConfig(serve_batch_size=0)
        with pytest.raises(ValueError):
            RunConfig(serve_max_wait=-1.0)
        with pytest.raises(ValueError):
            RunConfig(embed_budget=-1.0)
        with pytest.raises(ValueError):
            RunConfig(activation="softplus")

    def test_runconfig_serving_fields_roundtrip(self):
        cfg = RunConfig(
            serve_batch_size=4, serve_max_wait=0.002, embed_budget=1e5,
            activation="identity",
        )
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.serve_batch_size == 4
        assert again.serve_max_wait == 0.002
        assert again.embed_budget == 1e5
        assert again.activation == "identity"

    def test_engine_serving_constructor(self, trained_engine):
        server = trained_engine.serving()
        assert len(server.replicas) == 1 and server.router.name == "direct"
        assert server.exact
        assert server.model is trained_engine.model

    def test_cli_serve_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--synthetic", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "logits digest:" in out
        assert "latency: p50" in out

    def test_cli_serve_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        trace = TraceWorkload(_requests([(0.0, [1]), (1e-4, [2, 3])]))
        path = save_trace(trace, tmp_path / "trace.json")
        rc = main([
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--requests", str(path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 2 requests" in out

    def test_cli_serve_missing_trace_errors(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "products", "--scale", "0.1",
            "--requests", "/nonexistent/trace.json",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_serve_out_of_range_vertex_errors(self, tmp_path, capsys):
        """A malformed trace is a user error: one line, exit 2."""
        from repro.cli import main

        trace = TraceWorkload(_requests([(0.0, [10**9])]))
        path = save_trace(trace, tmp_path / "bad.json")
        rc = main([
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--requests", str(path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_cli_activation_flag(self):
        from repro.cli import _resolve_train_config, build_parser

        args = build_parser().parse_args(
            ["train", "products", "--activation", "identity"]
        )
        assert _resolve_train_config(args).activation == "identity"

    def test_process_reports_per_run_counters(self, trained_engine):
        """A reused server reports each run's own breakdown and stats."""
        server = ServingCluster(
            trained_engine.model,
            trained_engine.graph,
            trained_engine.config.replace(embed_budget=65536.0),
        )
        wl = lambda: TraceWorkload.synthetic(  # noqa: E731
            10, trained_engine.graph.test_idx, seed=4
        )
        first = server.process(wl())
        second = server.process(wl())
        # Identical workload, so the second run's phase seconds must be in
        # the same ballpark (cache warm-up makes it cheaper, not ~2x).
        assert second.phase_seconds["sampling"] <= first.phase_seconds["sampling"]
        assert second.cache_stats.requests == first.cache_stats.requests
        # The first report's snapshot survived the second run's reset.
        assert first.cache_stats.requests > 0
