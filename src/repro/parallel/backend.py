"""The ``parallel`` execution backend: real cores, same samples.

Registered in :data:`repro.api.registries.ALGORITHMS` like every other
backend, so ``RunConfig(algorithm="parallel", workers=N)`` and
``repro train --workers N`` reach it through the normal lookup path.
Unlike ``replicated``/``partitioned`` — which *simulate* a cluster on
one core and charge modeled time — this backend executes the bulk on a
:class:`~repro.parallel.pool.WorkerPool` over shared-memory graph
segments, batch-parallel across real processes.

Two invariants make it safe to swap in:

* **Bit-identity.**  Each minibatch samples from its own RNG stream
  keyed by global batch index, exactly as the simulated replicated
  driver does, so output is identical at every worker count — including
  ``workers=0``.
* **Serial purity.**  ``workers=0`` (the default) runs fully in-process
  via the replicated driver at world size 1 and imports nothing from
  ``multiprocessing`` — this module's pool/shm imports happen inside
  :meth:`ParallelBackend.setup`, only when workers were requested, and
  failure to support shared memory raises an actionable error then, not
  at import time.

Simulated time is still charged — the workers' recorded work, summed and
billed to rank 0 as one call — so epoch reports remain comparable.  The
charge can still differ from the one-stack serial number because each
worker's stack issues its own SpGEMMs: the recorded SpGEMM launches
repeat per worker, and the per-product terms (row-pointer bytes, SAMPLE's
search depth) follow the smaller stacks.  The fixed per-layer launches
and the per-call overhead are billed once per bulk, not per worker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core import MinibatchSample
from ..distributed import charge_sampling, replicated_bulk_sampling
from ..obs.trace import maybe_span

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.trainer import TrainingPipeline
    from .pool import SamplerSpec, WorkerPool

__all__ = ["ParallelBackend"]


class ParallelBackend:
    """Multi-core bulk sampling over shared-memory workers.

    ``p`` is pinned to 1 by config validation: this backend parallelizes
    over *real* processes, not simulated ranks, and reports on rank 0's
    clock.  ``config.workers`` picks the pool size; 0 = serial.
    """

    name = "parallel"

    def __init__(self) -> None:
        self.pool: "WorkerPool | None" = None
        self.spec: "SamplerSpec | None" = None

    def setup(self, pipeline: "TrainingPipeline") -> None:
        cfg = pipeline.config
        workers = int(getattr(cfg, "workers", 0))
        if workers <= 0:
            return  # serial fallback: no multiprocessing imports at all
        from .pool import SamplerSpec, WorkerPool
        from .shm import SharedGraph

        shared = SharedGraph.publish(pipeline.graph.adj)
        try:
            self.pool = WorkerPool(workers, shared)
        finally:
            shared.release()  # the pool holds its own reference now
        self.spec = SamplerSpec(
            sampler=cfg.sampler, fanout=tuple(cfg.fanout), for_training=True
        )
        self.pool.register(self.spec)

    def close(self) -> None:
        """Stop the pool and unlink its segments (idempotent; also runs
        via the pool's finalizer if nobody calls this)."""
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def sample_bulk(
        self, pipeline: "TrainingPipeline", bulk: list[np.ndarray], seed: int
    ) -> list[list[MinibatchSample]]:
        comm, cfg = pipeline.comm, pipeline.config
        if self.pool is None:
            return replicated_bulk_sampling(
                comm, pipeline.sampler, pipeline.graph.adj, bulk,
                cfg.fanout, seed=seed,
            )
        with comm.phase("sampling"):
            # Wall-domain: the pool round-trip is real elapsed time the
            # simulated clock cannot see (it charges the modeled work below).
            with maybe_span(
                "pool.sample_bulk", cat="pool", domain="wall", track="pool",
                args={"batches": len(bulk), "workers": len(self.pool)},
            ):
                samples, work = self.pool.sample_bulk(
                    self.spec, list(bulk), list(range(len(bulk))), seed
                )
            charge_sampling(comm, 0, work, len(cfg.fanout))
            comm.clock.barrier()
        return [samples]
