"""Online serving demo: train once, then serve ego-network requests.

Trains a small SAGE model through the :class:`repro.api.Engine`, builds the
server (a one-replica :class:`repro.serve.ServingCluster`) with
``engine.serving()``, and drives it two ways:

1. an **open-loop trace** (fixed arrival times — what ``repro serve
   --requests trace.json`` replays), showing the max-batch-size / max-wait
   micro-batching policy coalescing concurrent requests;
2. a **closed-loop load generator** (8 concurrent clients), comparing
   micro-batched against one-request-at-a-time serving and showing the
   embedding cache's effect on tail latency.

Everything is simulated time, so the printed latencies are exactly
reproducible — and the served logits are bit-identical to layer-wise
full-graph inference, which the demo checks at the end.

Run:  python examples/serve_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.api import Engine, RunConfig
from repro.bench.reporting import format_latency_summary
from repro.pipeline import layerwise_inference
from repro.serve import ClosedLoopWorkload, ServingCluster, TraceWorkload


def main() -> None:
    cfg = RunConfig(
        dataset="products",
        scale=0.25,
        train_split=0.5,
        p=1, c=1,
        algorithm="single",
        sampler="sage",
        fanout=(5, 3),
        batch_size=32,
        hidden=32,
        epochs=2,
        seed=7,
        serve_batch_size=8,     # micro-batch up to 8 requests...
        serve_max_wait=5e-4,    # ...or whatever arrived after 0.5 ms
        embed_budget=128e3,     # cache hot penultimate-layer rows
    )
    engine = Engine(cfg)
    engine.train(cfg.epochs)
    print(f"trained: test accuracy {engine.evaluate('test'):.3f}\n")

    # -- open-loop trace ------------------------------------------------ #
    server = engine.serving()
    trace = TraceWorkload.synthetic(
        32, engine.graph.test_idx, seed=cfg.seed, interarrival=1e-4,
        max_vertices=4,  # callers may ask for several vertices at once
    )
    report = server.process(trace)
    print(f"open-loop trace: {report.n_requests} requests -> "
          f"{report.batches} micro-batches "
          f"(mean {report.mean_batch_size:.1f} req/batch)")
    print(format_latency_summary(report.latencies, label="  latency"))
    print(f"  embed-cache hit-rate: {report.cache_stats.hit_rate:.1%}\n")

    # -- closed-loop: micro-batched vs per-request ---------------------- #
    for batch_cap in (1, 8):
        server = ServingCluster(
            engine.model, engine.graph,
            cfg.replace(serve_batch_size=batch_cap),
        )
        workload = ClosedLoopWorkload(
            64, engine.graph.test_idx, clients=8, seed=cfg.seed
        )
        rep = server.process(workload)
        label = "micro-batched" if batch_cap > 1 else "per-request "
        print(f"closed-loop ({label}, 8 clients): "
              f"{rep.throughput:8.0f} req/s   "
              f"p99 {rep.latency_summary()['p99'] * 1e3:.3f} ms")

    # -- the exactness contract ----------------------------------------- #
    reference = layerwise_inference(engine.model, engine.graph)
    assert all(
        np.array_equal(r.logits, reference[r.request.vertices])
        for r in report.results
    )
    print("\nserved logits are bit-identical to layerwise_inference")


if __name__ == "__main__":
    main()
