"""repro.serve — online GNN inference serving with micro-batched sampling.

The serving subsystem reuses the training stack end to end: the sampling-
plan IR compiles each micro-batch of concurrent requests into one bulk
sampling program, the trained :class:`~repro.gnn.GNNModel` produces the
logits through its row-stable ``infer`` kernels (SpMM, then fixed-shape
32-row BLAS GEMMs, :func:`~repro.gnn.layers.stable_matmul`: a vertex's
logits do not depend on which requests share its micro-batch), and the
simulated clock / roofline cost model make every latency number exactly
reproducible.

Quickstart::

    from repro.api import Engine, RunConfig
    from repro.serve import ClosedLoopWorkload

    engine = Engine(RunConfig(dataset="products", scale=0.25, epochs=1))
    engine.train()
    server = engine.serving()           # exact full-neighborhood serving
    report = server.process(
        ClosedLoopWorkload(64, engine.graph.test_idx, clients=8)
    )
    print(report.latency_summary(), report.throughput)

``server`` is a :class:`ServingCluster` — the only server: one control
loop over a fixed set of ``config.replicas`` :class:`Replica`\\ s, so the
single server above is the N = 1 fleet and a routed one is a config away::

    cfg = RunConfig(..., replicas=4, router="consistent_hash")
    fleet = Engine(cfg).serving()
    report = fleet.process(ClosedLoopWorkload(4096, targets, clients=64))
"""

from .cache import EmbeddingCache, ServeStats
from .cluster import ServingCluster
from .replica import Replica
from .report import ServeReport
from .request import InferenceRequest, InferenceResult, MicroBatcher, RequestQueue
from .router import (
    ConsistentHashRouter,
    DirectRouter,
    ROUTERS,
    RoundRobinRouter,
    Router,
    make_router,
)
from .workload import ClosedLoopWorkload, TraceWorkload, load_trace, save_trace

__all__ = [
    "InferenceRequest",
    "InferenceResult",
    "RequestQueue",
    "MicroBatcher",
    "EmbeddingCache",
    "ServeStats",
    "ServeReport",
    "Replica",
    "Router",
    "DirectRouter",
    "RoundRobinRouter",
    "ConsistentHashRouter",
    "ROUTERS",
    "make_router",
    "ServingCluster",
    "TraceWorkload",
    "ClosedLoopWorkload",
    "load_trace",
    "save_trace",
]
