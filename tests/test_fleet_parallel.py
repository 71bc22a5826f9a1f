"""The parallel serving fleet (``workers > 0``): each replica's timeline
in its own worker process must reproduce the serial cluster loop bit for
bit — digests, batch counts, clocks, shed decisions, churn — and refuse
loudly whenever the per-replica decomposition would change semantics."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import Engine, RunConfig
from repro.parallel import parallel_support_error
from repro.serve import ClosedLoopWorkload, ServingCluster, TraceWorkload
from repro.stream import StreamingGraph, UpdateStream

pytestmark = pytest.mark.skipif(
    parallel_support_error() is not None,
    reason=f"no shared-memory support here: {parallel_support_error()}",
)


@pytest.fixture(scope="module")
def trained_engine() -> Engine:
    cfg = RunConfig(
        dataset="products", scale=0.05, train_split=0.5, p=1, c=1,
        algorithm="single", sampler="sage", fanout=(4, 3), batch_size=8,
        hidden=16, epochs=1, seed=0,
    )
    engine = Engine(cfg)
    engine.train(1)
    return engine


def _run(
    engine: Engine,
    *,
    workers: int,
    replicas: int = 3,
    stream: bool = False,
    n_requests: int = 24,
    **overrides,
):
    """One fleet run over a fresh graph copy (stream runs rebind ``adj``,
    so churn must stay run-local — same trick as bench_streaming)."""
    cfg = engine.config.replace(
        replicas=replicas, router="round_robin", workers=workers,
        stream_updates=stream, serve_batch_size=4, **overrides,
    )
    graph = copy.copy(engine.graph)
    streaming = (
        StreamingGraph(graph, compaction_threshold=cfg.compaction_threshold)
        if stream else None
    )
    cluster = ServingCluster(engine.model, graph, cfg, stream=streaming)
    if stream:
        workload = UpdateStream.synthetic(
            graph.adj, engine.graph.test_idx, n_requests=n_requests,
            update_ratio=0.5, edges_per_update=4, seed=0, interarrival=1e-4,
        )
    else:
        workload = TraceWorkload.synthetic(
            n_requests, engine.graph.test_idx, seed=0, interarrival=1e-4,
        )
    return cluster.process(workload)


def _assert_reports_identical(serial, parallel) -> None:
    assert parallel.digest() == serial.digest()
    assert parallel.batches == serial.batches
    assert parallel.shed == serial.shed
    assert parallel.per_replica == serial.per_replica
    assert parallel.n_requests == serial.n_requests
    assert parallel.throughput == pytest.approx(serial.throughput, rel=1e-12)
    for phase, seconds in serial.phase_seconds.items():
        assert parallel.phase_seconds[phase] == pytest.approx(
            seconds, rel=1e-12
        ), phase
    batch_indices = {
        r.request.rid: r.batch_index for r in serial.results
    }
    assert {
        r.request.rid: r.batch_index for r in parallel.results
    } == batch_indices


class TestFleetParity:
    def test_three_replica_trace_parity(self, trained_engine):
        serial = _run(trained_engine, workers=0)
        parallel = _run(trained_engine, workers=2)
        _assert_reports_identical(serial, parallel)

    def test_single_replica_parity(self, trained_engine):
        serial = _run(trained_engine, workers=0, replicas=1)
        parallel = _run(trained_engine, workers=1, replicas=1)
        _assert_reports_identical(serial, parallel)

    def test_workers_beyond_replicas_capped(self, trained_engine):
        """workers=8 over 3 replicas spawns only 3 processes and still
        matches (each replica's timeline is the unit of parallelism)."""
        serial = _run(trained_engine, workers=0)
        parallel = _run(trained_engine, workers=8)
        _assert_reports_identical(serial, parallel)

    def test_streaming_churn_parity(self, trained_engine):
        serial = _run(trained_engine, workers=0, stream=True)
        parallel = _run(trained_engine, workers=2, stream=True)
        _assert_reports_identical(serial, parallel)
        assert serial.update_stats is not None
        assert vars(parallel.update_stats) == vars(serial.update_stats)

    def test_shedding_parity(self, trained_engine):
        """Deadline shedding decisions are per-replica and must replay
        identically in the workers."""
        serial = _run(
            trained_engine, workers=0,
            shed_policy="deadline", shed_deadline=1e-4,
        )
        parallel = _run(
            trained_engine, workers=2,
            shed_policy="deadline", shed_deadline=1e-4,
        )
        assert serial.shed > 0  # the knob actually bit
        _assert_reports_identical(serial, parallel)


class TestFleetValidation:
    """Outside the decomposable regime the parallel path must raise an
    actionable error, not serve different semantics.  All of these fail
    *before* any worker spawns, so they are cheap."""

    def test_closed_loop_workload_rejected(self, trained_engine):
        cfg = trained_engine.config.replace(
            replicas=2, router="round_robin", workers=2,
        )
        cluster = ServingCluster(
            trained_engine.model, trained_engine.graph, cfg
        )
        workload = ClosedLoopWorkload(
            8, trained_engine.graph.test_idx, clients=2
        )
        with pytest.raises(ValueError, match="open-loop"):
            cluster.process(workload)

    def test_autoscaler_rejected(self, trained_engine):
        cfg = trained_engine.config.replace(
            replicas=2, router="round_robin", workers=2, slo_p99=0.5,
        )
        cluster = ServingCluster(
            trained_engine.model, trained_engine.graph, cfg
        )
        workload = TraceWorkload.synthetic(
            8, trained_engine.graph.test_idx, seed=0
        )
        with pytest.raises(ValueError, match="autoscal"):
            cluster.process(workload)

    def test_sampled_serving_rejected(self, trained_engine):
        cfg = trained_engine.config.replace(
            replicas=2, router="round_robin", workers=2,
        )
        cluster = ServingCluster(
            trained_engine.model, trained_engine.graph, cfg, fanout=(4, 3)
        )
        workload = TraceWorkload.synthetic(
            8, trained_engine.graph.test_idx, seed=0
        )
        with pytest.raises(ValueError, match="exact serving"):
            cluster.process(workload)

    def test_warm_replicas_rejected(self, trained_engine):
        """A cluster that has served before carries warm embedding caches
        the cold worker replicas would not have."""
        cfg = trained_engine.config.replace(
            replicas=2, router="round_robin", workers=2,
        )
        cluster = ServingCluster(
            trained_engine.model, trained_engine.graph, cfg
        )
        cluster.replicas[1].batches = cluster.replicas[1].served = 1
        workload = TraceWorkload.synthetic(
            8, trained_engine.graph.test_idx, seed=0
        )
        with pytest.raises(ValueError, match="fresh replicas"):
            cluster.process(workload)

    def test_error_messages_name_the_fix(self, trained_engine):
        """Every refusal points at the serial path."""
        cfg = trained_engine.config.replace(
            replicas=2, router="round_robin", workers=2, slo_p99=0.5,
        )
        cluster = ServingCluster(
            trained_engine.model, trained_engine.graph, cfg
        )
        workload = TraceWorkload.synthetic(
            8, trained_engine.graph.test_idx, seed=0
        )
        with pytest.raises(ValueError, match="workers=0"):
            cluster.process(workload)


class TestEngineIntegration:
    def test_engine_serving_autodetects_fleet_on_workers(self, trained_engine):
        """cfg.workers > 0 alone promotes serving() to a cluster."""
        engine = Engine(
            trained_engine.config.replace(workers=2, replicas=1)
        )
        server = engine.serving()
        assert isinstance(server, ServingCluster)

    def test_engine_close_is_idempotent_and_safe_untrained(self):
        cfg = RunConfig(
            dataset="products", scale=0.05, train_split=0.5,
            sampler="sage", fanout=(3, 2), batch_size=8, hidden=8,
            epochs=1, seed=0,
        )
        with Engine(cfg) as engine:
            engine.close()  # never built a pipeline: still a no-op
