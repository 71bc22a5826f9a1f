"""Serving-fleet demo: one model, N replicas, routed.

Trains a small SAGE model through the :class:`repro.api.Engine`, then
drives the same trained weights through three fleet shapes:

1. a **single server** baseline (the N = 1 fleet: one ``direct`` replica);
2. a **round-robin fleet** at the same offered load, showing the
   near-linear throughput win once one server saturates;
3. a **consistent-hash fleet** with the embedding cache on, showing why
   locality-aware routing keeps hit rates high while round-robin
   dilutes them across every replica.

Everything runs on simulated time and exact full-neighborhood serving,
so every number is reproducible and the logits digest is identical
across every shape — routing and the replica count move latency, never
bits.

Run:  python examples/serve_fleet_demo.py
"""

from __future__ import annotations

from repro.api import Engine, RunConfig
from repro.serve import ClosedLoopWorkload, ServingCluster, TraceWorkload


def closed_loop(engine: Engine) -> ClosedLoopWorkload:
    return ClosedLoopWorkload(256, engine.graph.test_idx, clients=48, seed=2)


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
        serve_batch_size=8,
        serve_max_wait=5e-4,
    )
    engine = Engine(cfg)
    engine.train(cfg.epochs)
    print(f"trained: test accuracy {engine.evaluate('test'):.3f}\n")

    # -- 1+2: single server vs a routed fleet at the same load ---------- #
    digests = {}
    for replicas in (1, 4):
        cluster = ServingCluster(
            engine.model, engine.graph,
            cfg.replace(replicas=replicas, router="round_robin"),
        )
        report = cluster.process(closed_loop(engine))
        digests[replicas] = report.digest()
        spread = "  ".join(
            f"r{rid}:{n}" for rid, n in sorted(report.per_replica.items())
        )
        print(f"{replicas} replica(s): {report.throughput:8.0f} req/s   "
              f"p99 {report.latency_summary()['p99'] * 1e3:.3f} ms   "
              f"[{spread}]")
    assert digests[1] == digests[4], "routing must never change the bits"
    print("logits digest identical at N=1 and N=4\n")

    # -- 3: locality-aware routing keeps the cache hot ------------------ #
    hot_pool = engine.graph.test_idx[:16]  # a skewed, cacheable workload
    for router in ("round_robin", "consistent_hash"):
        cluster = ServingCluster(
            engine.model, engine.graph,
            cfg.replace(replicas=4, router=router, embed_budget=128e3),
        )
        report = cluster.process(
            TraceWorkload.synthetic(96, hot_pool, seed=3, interarrival=5e-5)
        )
        print(f"{router:16s} embed-cache hit-rate "
              f"{report.cache_stats.hit_rate:.1%}")


if __name__ == "__main__":
    main()
