"""The serving fleet: routers, the multi-replica cluster loop over a fixed
replica set, and update broadcast — plus the pinned single-server digest
the refactor must keep bit-identical."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import Engine, RunConfig
from repro.pipeline import layerwise_inference
from repro.serve import (
    ClosedLoopWorkload,
    ConsistentHashRouter,
    DirectRouter,
    InferenceRequest,
    Replica,
    RoundRobinRouter,
    ServingCluster,
    TraceWorkload,
    make_router,
)
from repro.stream import EdgeBatch, StreamingGraph, UpdateStream
from test_gnn import skip_unless_pinned_kernels


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


@pytest.fixture(scope="module")
def engine_digest(trained_engine) -> str:
    """The default single server's digest of ``_trace``, computed in this
    process: what every fleet shape is held to on any build."""
    return trained_engine.serving().process(_trace(trained_engine)).digest()


def _cluster(engine: Engine, **overrides) -> ServingCluster:
    return ServingCluster(
        engine.model, engine.graph, engine.config.replace(**overrides)
    )


def _trace(engine: Engine, n=20, seed=5, interarrival=1e-4) -> TraceWorkload:
    return TraceWorkload.synthetic(
        n, engine.graph.test_idx, seed=seed, interarrival=interarrival
    )


def _request(rid: int, vertex: int, arrival: float = 0.0) -> InferenceRequest:
    return InferenceRequest(
        rid=rid, vertices=np.array([vertex]), arrival=arrival
    )


# Digest of the 20-request / seed-5 synthetic trace under the module
# fixture config on Engine.serving()'s default server.  First pinned before
# the Replica/Router/Cluster split (f066470b…, the ``reduceat`` SpMM's
# bits), re-recorded when ``spmm`` moved to scipy's left-to-right CSR
# kernel (303057a6…), when ``stable_matmul`` moved to fixed-shape BLAS
# GEMMs (721e934e…), when the model moved to float32 (e4bd0e1a…) and when
# SAMPLE moved to one prefix sum with rejection rounds; the refactors in
# between moved code, never floats.
GOLDEN_SERVE_DIGEST = (
    "9a1726cdc9acd14c0c1c42cde20a2c401b883bac60b5ba6bae47119cc1dbdfea"
)


# ---------------------------------------------------------------------- #
# Routers
# ---------------------------------------------------------------------- #
class TestRouters:
    def test_direct_routes_to_lowest_id(self):
        r = DirectRouter(10, [3, 1, 7])
        assert all(r.route(_request(i, i)) == 1 for i in range(5))

    def test_round_robin_cycles_in_id_order(self):
        r = RoundRobinRouter(10, [2, 0, 1])
        picks = [r.route(_request(i, i)) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_consistent_hash_is_deterministic(self):
        a = ConsistentHashRouter(1000, [0, 1, 2])
        b = ConsistentHashRouter(1000, [2, 1, 0])
        for v in (0, 17, 500, 999):
            assert a.route(_request(v, v)) == b.route(_request(v, v))

    def test_consistent_hash_same_partition_same_replica(self):
        r = ConsistentHashRouter(1024, [0, 1, 2, 3], n_partitions=8)
        # 1024 vertices / 8 partitions: 0 and 100 share partition 0.
        assert r.partition_of(0) == r.partition_of(100)
        assert r.route(_request(0, 0)) == r.route(_request(1, 100))

    def test_consistent_hash_rebalance_is_stable(self):
        """A fleet one replica larger re-owns only a minority of partitions
        — the consistent-hashing argument for keeping caches warm."""
        three = ConsistentHashRouter(4096, [0, 1, 2], n_partitions=64)
        four = ConsistentHashRouter(4096, [0, 1, 2, 3], n_partitions=64)
        moved = three._owner != four._owner
        assert 0 < int(moved.sum()) < 32  # some partitions moved, most did not
        # Every moved partition went to the new replica, none reshuffled
        # between the other three.
        assert set(four._owner[moved].tolist()) == {3}

    def test_consistent_hash_covers_all_replicas(self):
        r = ConsistentHashRouter(4096, [0, 1, 2, 3], n_partitions=64)
        assert set(r._owner.tolist()) == {0, 1, 2, 3}

    def test_consistent_hash_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0, [0])

    def test_partitions_capped_at_vertex_count(self):
        r = ConsistentHashRouter(5, [0], n_partitions=64)
        assert r.n_partitions == 5
        assert r.route(_request(0, 4)) == 0

    def test_make_router_unknown_name(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random", 10, [0])


# ---------------------------------------------------------------------- #
# Fleet exactness: the refactor contract
# ---------------------------------------------------------------------- #
class TestFleetExactness:
    def test_single_server_engine_reproduces_pinned_digest(self, engine_digest):
        skip_unless_pinned_kernels()
        assert engine_digest == GOLDEN_SERVE_DIGEST

    def test_one_replica_fleet_bit_identical_to_engine(
        self, trained_engine, engine_digest
    ):
        report = _cluster(trained_engine).process(_trace(trained_engine))
        assert report.digest() == engine_digest

    @pytest.mark.parametrize(
        "replicas,router,budget",
        [
            (2, "round_robin", 0.0),
            (4, "round_robin", 0.0),
            (4, "consistent_hash", 0.0),
            (3, "round_robin", 32768.0),
            (3, "consistent_hash", 32768.0),
        ],
    )
    def test_digest_invariant_to_fleet_shape(
        self, trained_engine, engine_digest, replicas, router, budget
    ):
        """Exact serving means routing and replica count move latency,
        never bits."""
        cluster = _cluster(
            trained_engine,
            replicas=replicas, router=router, embed_budget=budget,
        )
        report = cluster.process(_trace(trained_engine))
        assert report.digest() == engine_digest

    def test_one_shot_serve_matches_layerwise(
        self, trained_engine, reference_logits
    ):
        verts = trained_engine.graph.test_idx[:5]
        cluster = _cluster(trained_engine, replicas=3, router="round_robin")
        assert np.array_equal(
            cluster.serve(verts), reference_logits[verts]
        )

    def test_results_bit_identical_per_request(
        self, trained_engine, reference_logits
    ):
        cluster = _cluster(trained_engine, replicas=4, router="consistent_hash")
        report = cluster.process(_trace(trained_engine))
        for r in report.results:
            assert np.array_equal(
                r.logits, reference_logits[r.request.vertices]
            )


# ---------------------------------------------------------------------- #
# Fleet dynamics: throughput, locality, accounting
# ---------------------------------------------------------------------- #
class TestFleetDynamics:
    def test_four_replicas_out_throughput_one_at_high_load(
        self, trained_engine
    ):
        """The fleet acceptance criterion: at an offered load that saturates
        one server, a routed fleet strictly wins."""
        rates = {}
        for n in (1, 4):
            cluster = _cluster(
                trained_engine, replicas=n, router="round_robin"
            )
            wl = ClosedLoopWorkload(
                96, trained_engine.graph.test_idx, clients=48, seed=2
            )
            rates[n] = cluster.process(wl).throughput
        assert rates[4] > rates[1]

    def test_round_robin_spreads_work_across_replicas(self, trained_engine):
        cluster = _cluster(trained_engine, replicas=2, router="round_robin")
        report = cluster.process(_trace(trained_engine))
        assert sorted(report.per_replica) == [0, 1]
        assert all(count > 0 for count in report.per_replica.values())
        assert sum(report.per_replica.values()) == report.n_requests

    def test_consistent_hash_beats_round_robin_on_cache_locality(
        self, trained_engine
    ):
        """The point of locality-aware routing: a hot vertex's cached rows
        live on one replica instead of being diluted across the fleet."""
        pool = trained_engine.graph.test_idx[:8]
        hit_rates = {}
        for router in ("round_robin", "consistent_hash"):
            cluster = _cluster(
                trained_engine,
                replicas=4, router=router, embed_budget=65536.0,
            )
            wl = TraceWorkload.synthetic(
                64, pool, seed=7, interarrival=5e-5
            )
            hit_rates[router] = cluster.process(wl).cache_stats.hit_rate
        assert hit_rates["consistent_hash"] > hit_rates["round_robin"]

    def test_report_merges_phase_seconds_across_replicas(self, trained_engine):
        cluster = _cluster(trained_engine, replicas=3, router="round_robin")
        report = cluster.process(_trace(trained_engine))
        assert report.phase_seconds["sampling"] > 0
        assert report.phase_seconds["propagation"] > 0
        # Every request is served (the e2e harness reads ``shed``).
        assert report.shed == 0
        assert sum(report.per_replica.values()) == report.n_requests


# ---------------------------------------------------------------------- #
# Streaming updates broadcast to the fleet
# ---------------------------------------------------------------------- #
def _streaming_cluster(engine: Engine, **overrides) -> ServingCluster:
    graph = copy.copy(engine.graph)
    cfg = engine.config.replace(
        stream_updates=True, serve_batch_size=8, **overrides
    )
    stream = StreamingGraph(graph, compaction_threshold=0.25)
    return ServingCluster(engine.model, graph, cfg, stream=stream)


def _churn(engine: Engine, n=32) -> UpdateStream:
    return UpdateStream.synthetic(
        engine.graph.adj, engine.graph.test_idx,
        n_requests=n, update_ratio=0.5, seed=0,
    )


class TestFleetUpdates:
    def test_one_replica_fleet_reproduces_stream_digest(self, trained_engine):
        """The cluster's update interleaving matches the single engine's —
        pinned by the same streaming golden digest test_stream.py pins."""
        from test_stream import GOLDEN_STREAM_DIGEST

        skip_unless_pinned_kernels()
        cluster = _streaming_cluster(trained_engine)
        report = cluster.process(_churn(trained_engine))
        assert report.digest() == GOLDEN_STREAM_DIGEST

    def test_broadcast_invalidates_every_replica(self, trained_engine):
        cluster = _streaming_cluster(
            trained_engine,
            replicas=2, router="round_robin", embed_budget=65536.0,
        )
        report = cluster.process(_churn(trained_engine))
        # Each replica invalidated rows out of its *own* cache; churn is
        # counted as invalidations, never conflated with LFU evictions.
        for rep in cluster.replicas:
            assert rep.stats.invalidations > 0
        assert report.cache_stats.invalidations == sum(
            rep.stats.invalidations for rep in cluster.replicas
        )
        assert report.update_stats is not None
        assert report.update_stats.batches == 16

    def test_post_churn_fleet_serves_updated_graph(self, trained_engine):
        cluster = _streaming_cluster(
            trained_engine,
            replicas=2, router="round_robin", embed_budget=65536.0,
        )
        cluster.process(_churn(trained_engine))
        verts = trained_engine.graph.test_idx[:48]
        rebuilt = cluster.stream.rebuild_from_scratch()
        reference = layerwise_inference(trained_engine.model, rebuilt)
        assert np.array_equal(cluster.serve(verts), reference[verts])

    def test_absorb_update_invalidates_dirty_embeddings(self, trained_engine):
        """An update drops the dirty rows' cached embeddings on one
        replica, charged to its own clock, leaving clean rows cached."""
        graph = copy.copy(trained_engine.graph)
        cfg = trained_engine.config.replace(
            stream_updates=True, embed_budget=65536.0
        )
        stream = StreamingGraph(graph)
        rep = Replica(trained_engine.model, graph, cfg)
        rng = np.random.default_rng(0)
        targets = np.unique(graph.test_idx[:8])
        rep.logits_for(targets, rng)
        cached = len(rep.cache)
        assert cached > 0  # warmed by the serve
        v = int(graph.test_idx[0])
        u = next(
            w for w in range(graph.n)
            if w != v and w not in set(graph.adj.row(v)[0].tolist())
        )
        result = stream.apply(EdgeBatch(np.array([v]), np.array([u]), "insert"))
        spent = rep.absorb_update(result)
        assert spent > 0  # charged to the replica's own clock
        assert rep.stats.invalidations > 0
        assert 0 < len(rep.cache) < cached  # clean rows stay
        assert rep.stats.evictions == 0  # churn is not budget pressure

    def test_frozen_fleet_rejects_update_workloads(self, trained_engine):
        cluster = _cluster(trained_engine, replicas=2, router="round_robin")
        with pytest.raises(ValueError, match="frozen graph"):
            cluster.process(_churn(trained_engine))


# ---------------------------------------------------------------------- #
# Config / api / CLI wiring
# ---------------------------------------------------------------------- #
class TestFleetWiring:
    def test_runconfig_fleet_fields_validate(self):
        with pytest.raises(ValueError):
            RunConfig(replicas=0)
        with pytest.raises(ValueError):
            RunConfig(router="random")

    def test_runconfig_fleet_fields_roundtrip(self):
        cfg = RunConfig(replicas=4, router="consistent_hash")
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_engine_serving_picks_the_fleet(self, trained_engine):
        """One server type; the config's fleet knobs shape it."""

        def shape(server):
            assert isinstance(server, ServingCluster)
            return len(server.replicas), server.router.name

        assert shape(trained_engine.serving()) == (1, "direct")
        for overrides, expected in (
            ({"replicas": 2}, (2, "direct")),
            ({"router": "round_robin"}, (1, "round_robin")),
        ):
            engine = Engine(
                trained_engine.config.replace(**overrides),
                graph=trained_engine.graph,
            )
            engine._pipeline = trained_engine.pipeline
            assert shape(engine.serving()) == expected

    def test_engine_serving_fleet_flag_overrides(self, trained_engine):
        """fleet=True means "as configured"; fleet=False strips a
        configured fleet down to one direct replica."""
        engine = Engine(
            trained_engine.config.replace(replicas=2, router="round_robin"),
            graph=trained_engine.graph,
        )
        assert len(engine.serving(fleet=True).replicas) == 2
        single = engine.serving(fleet=False)
        assert len(single.replicas) == 1 and single.router.name == "direct"

    def test_cli_serve_fleet_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--synthetic", "8",
            "--replicas", "2", "--router", "round_robin",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet:" in out
        assert "logits digest:" in out
        assert "per-replica" in out

    def test_cli_fleet_digest_matches_single_server(self, capsys):
        """The CLI surface of the exactness contract: same trace, same
        digest line, fleet or not."""
        from repro.cli import main

        argv = [
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--synthetic", "8",
        ]
        digests = []
        for extra in ([], ["--replicas", "4", "--router", "consistent_hash"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            digests.append(
                next(
                    line for line in out.splitlines()
                    if "logits digest:" in line
                )
            )
        assert digests[0] == digests[1]
