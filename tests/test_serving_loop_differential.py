"""The N = 1 ``ServingCluster`` against the pre-fleet single-server loop.

``ServingCluster`` is the only server; the loop it replaced lives on as
the oracle in ``reference_serving_loop.py``.  One ``direct`` replica
must reproduce that loop on a 24-cell grid — sampler (sage / ladies) x
mode (exact / sampled) x embedding cache (off / on) x workload (closed
loop / open-loop trace / trace with edge churn) — in everything a run
reports: logits digest, micro-batch count, per-phase simulated seconds,
every result's dispatch and completion time, batch index and batch size,
cache counters and stream counters.
Sampled-mode and timing equivalence are pinned nowhere else directly.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from reference_serving_loop import reference_process
from repro.api import Engine, RunConfig
from repro.serve import ClosedLoopWorkload, ServingCluster, TraceWorkload
from repro.stream import EdgeBatch, StreamingGraph, UpdateStream


@pytest.fixture(scope="module", params=["sage", "ladies"])
def trained_engine(request) -> Engine:
    fanout = (4, 3) if request.param == "sage" else (24, 24)
    cfg = RunConfig(
        dataset="products", scale=0.05, train_split=0.5, p=1, c=1,
        algorithm="single", sampler=request.param, fanout=fanout,
        batch_size=8, hidden=16, epochs=1, seed=0,
    )
    engine = Engine(cfg)
    engine.train(1)
    return engine


def _workload(kind: str, graph):
    if kind == "closed_loop":
        return ClosedLoopWorkload(20, graph.test_idx, clients=5, seed=3)
    if kind == "trace":
        return TraceWorkload.synthetic(
            20, graph.test_idx, seed=3, interarrival=1e-5, max_vertices=3
        )
    return UpdateStream.synthetic(
        graph.adj, graph.test_idx, n_requests=20, update_ratio=0.5,
        edges_per_update=4, seed=3, interarrival=1e-5,
    )


def cluster_process(model, graph, config, workload, **kwargs):
    return ServingCluster(model, graph, config, **kwargs).process(workload)


@pytest.mark.parametrize("workload", ["closed_loop", "trace", "churn"])
@pytest.mark.parametrize("embed_budget", [0.0, 32768.0], ids=["nocache", "cache"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_one_replica_cluster_equals_reference_loop(
    trained_engine, mode, embed_budget, workload
):
    engine = trained_engine
    cfg = engine.config.replace(
        embed_budget=embed_budget, serve_batch_size=4,
        stream_updates=workload == "churn", compaction_threshold=0.01,
    )
    fanout = None if mode == "exact" else cfg.fanout
    reports = []
    for run in (cluster_process, reference_process):
        # Churn rebinds graph.adj, so each side gets its own shallow copy.
        graph = copy.copy(engine.graph)
        stream = (
            StreamingGraph(graph, compaction_threshold=cfg.compaction_threshold)
            if workload == "churn" else None
        )
        reports.append(run(
            engine.model, graph, cfg, _workload(workload, graph),
            fanout=fanout, stream=stream,
        ))
    got, want = reports
    assert got.digest() == want.digest()
    assert got.batches == want.batches
    assert got.phase_seconds == want.phase_seconds
    assert [
        (r.request.rid, r.dispatched, r.completed, r.batch_index, r.batch_size)
        for r in got.results
    ] == [
        (r.request.rid, r.dispatched, r.completed, r.batch_index, r.batch_size)
        for r in want.results
    ]
    assert got.exact == want.exact == (mode == "exact")
    assert got.cache_stats == want.cache_stats
    assert (got.cache_stats is not None) == (mode == "exact" and embed_budget > 0)
    assert got.update_stats == want.update_stats
    assert (got.update_stats is not None) == (workload == "churn")
    # What only the cluster reports, for one replica.
    assert got.shed == 0
    assert got.per_replica == {0: got.n_requests}


class TestApplyUpdate:
    def _cluster(self, engine, *, stream: bool, **overrides) -> ServingCluster:
        graph = copy.copy(engine.graph)
        cfg = engine.config.replace(stream_updates=stream, **overrides)
        return ServingCluster(
            engine.model, graph, cfg,
            stream=StreamingGraph(graph) if stream else None,
        )

    def test_every_replica_absorbs(self, trained_engine):
        cluster = self._cluster(
            trained_engine, stream=True, replicas=3, router="round_robin",
            embed_budget=65536.0,
        )
        graph = cluster.graph
        verts = graph.test_idx[:8]
        for rep in cluster.replicas:  # warm every replica's cache
            rep.logits_for(np.unique(verts), np.random.default_rng(0))
            assert len(rep.cache) > 0
        v = int(verts[0])
        u = next(
            w for w in range(graph.n)
            if w != v and w not in set(graph.adj.row(v)[0].tolist())
        )
        spent = cluster.apply_update(
            EdgeBatch(np.array([v]), np.array([u]), "insert"), at=0.5
        )
        assert spent > 0
        assert cluster.stream.stats.batches == 1  # merged once, not 3 times
        absorbed = [
            rep.clock.breakdown()["graph_update"] for rep in cluster.replicas
        ]
        for rep, seconds in zip(cluster.replicas, absorbed):
            assert rep.stats.invalidations > 0
            assert seconds > 0
            assert rep.free == pytest.approx(0.5 + seconds)  # busy from `at`
        assert spent == pytest.approx(max(absorbed))

    def test_frozen_graph_raises(self, trained_engine):
        cluster = self._cluster(trained_engine, stream=False, replicas=3)
        with pytest.raises(ValueError, match="frozen graph.*stream_updates=True"):
            cluster.apply_update(EdgeBatch(np.array([0]), np.array([1]), "insert"))


def test_serving_fleet_false_is_one_direct_replica(trained_engine):
    cfg = trained_engine.config.replace(replicas=4, router="consistent_hash")
    engine = Engine(cfg, graph=trained_engine.graph)
    server = engine.serving(fleet=False)
    assert [rep.rid for rep in server.replicas] == [0]
    assert server.router.name == "direct"
    for fleet in (None, True):  # as configured
        server = engine.serving(fleet=fleet)
        assert len(server.replicas) == 4
        assert server.router.name == "consistent_hash"
