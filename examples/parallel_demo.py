"""Multi-core execution demo: real processes, bit-identical samples.

Walks the `repro.parallel` layer bottom-up:

1. **publish** a CSR adjacency to shared memory and attach a zero-copy
   worker view;
2. spin up a warm :class:`~repro.parallel.WorkerPool` and show bulk
   sampling is **bit-identical** to the serial reference at every
   worker count — the per-global-batch-index RNG discipline makes the
   batch partition invisible;
3. train through ``RunConfig(algorithm="parallel", workers=N)`` and
   compare against the simulated ``replicated`` backend at p=1: same
   loss, same weights, real cores;
4. run a serving **fleet** with each replica in its own process and
   check the report digest against the in-process loop.

Everything is spawn-based, so this file must be run as a script (spawn
re-imports ``__main__``):  python examples/parallel_demo.py

On a 1-core machine the pool still works — it just measures pure
overhead; the point of this demo is the bit-identity, not the speedup
(``benchmarks/bench_parallel.py`` measures that).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.api import Engine, RunConfig
from repro.core.bulk import batch_rng
from repro.graphs import rmat
from repro.parallel import SamplerSpec, SharedGraph, WorkerPool
from repro.serve import TraceWorkload

WORKERS = 2


def digest(samples) -> str:
    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            h.update(np.ascontiguousarray(layer.adj.indices).tobytes())
            h.update(np.ascontiguousarray(layer.adj.data).tobytes())
    return h.hexdigest()[:16]


def main() -> None:
    # -- 1: publish once, attach zero-copy ------------------------------ #
    rng = np.random.default_rng(0)
    adj = rmat(12, 16, rng)
    shared = SharedGraph.publish(adj)
    view, handles = shared.handle.attach()
    assert view.indptr.base is not None  # a view of the segment, no copy
    print(f"published {adj.shape[0]} vertices / {adj.nnz} edges to "
          f"shared memory; attached view is zero-copy and read-only")
    for h in handles:
        h.close()

    # -- 2: warm pool, bit-identical bulk sampling ---------------------- #
    batches = [rng.choice(adj.shape[0], 256, replace=False) for _ in range(8)]
    spec = SamplerSpec(sampler="ladies", fanout=(64,), for_training=False)
    serial = spec.build(adj).sample_bulk(
        adj, batches, spec.fanout,
        [batch_rng(0, i) for i in range(len(batches))],
    )
    with WorkerPool(WORKERS, shared) as pool:
        shared.release()  # the pool holds its own reference now
        t0 = time.perf_counter()
        samples, work = pool.sample_bulk(
            spec, batches, list(range(len(batches))), seed=0
        )
        elapsed = time.perf_counter() - t0
    assert digest(samples) == digest(serial)
    print(f"pool({WORKERS}) bulk of {len(batches)} batches in "
          f"{elapsed * 1e3:.1f} ms — digest {digest(samples)} matches "
          f"serial bit for bit ({work.kernels} kernel calls)\n")

    # -- 3: training through the parallel backend ----------------------- #
    base = dict(
        dataset="products", scale=0.1, train_split=0.5, sampler="sage",
        fanout=(4, 3), batch_size=16, hidden=16, epochs=1, seed=0,
    )
    ref = Engine(RunConfig(**base, algorithm="replicated", p=1))
    ref_stats = ref.train_epoch(0)
    with Engine(RunConfig(**base, algorithm="parallel", p=1,
                          workers=WORKERS)) as engine:
        par_stats = engine.train_epoch(0)
        assert par_stats.loss == ref_stats.loss
        print(f"train: workers={WORKERS} loss {par_stats.loss:.6f} == "
              f"simulated replicated p=1 (bit-identical)")

    # -- 4: the serving fleet on real cores ----------------------------- #
    reports = {}
    for workers in (0, WORKERS):
        with Engine(RunConfig(**base, replicas=2, router="round_robin",
                              workers=workers)) as engine:
            engine.train(1)
            trace = TraceWorkload.synthetic(
                24, engine.graph.test_idx, seed=0, interarrival=1e-4
            )
            reports[workers] = engine.serving().process(trace)
    serial_report, parallel_report = reports[0], reports[WORKERS]
    assert parallel_report.digest() == serial_report.digest()
    assert parallel_report.batches == serial_report.batches
    print(f"serve: fleet of 2 replicas in {WORKERS} worker processes — "
          f"digest {parallel_report.digest()[:16]} and "
          f"{parallel_report.batches} batches identical to the "
          f"in-process loop")


if __name__ == "__main__":
    main()
