"""Execution backends: *where* bulk sampling runs.

The trainer does not know whether sampling is local, replicated across a
simulated cluster, or 1.5D-partitioned — it asks its backend (the class
:data:`repro.api.registries.ALGORITHMS` maps ``RunConfig.algorithm`` to)
for one bulk of per-rank minibatch lists, and the backend does whatever
its algorithm requires.  Each backend has a ``name``, a one-time
``setup(pipeline)`` and ``sample_bulk(pipeline, bulk, seed)``; it receives
the pipeline object itself and reads its ``graph``, ``config``, ``comm``,
``grid`` and ``sampler``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core import MinibatchSample
from ..distributed import (
    charge_sampling,
    partitioned_bulk_sampling,
    record_sampling,
    replicated_bulk_sampling,
)
from ..partition import BlockRows

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.trainer import TrainingPipeline

__all__ = [
    "SingleDeviceBackend",
    "ReplicatedBackend",
    "PartitionedBackend",
]


class SingleDeviceBackend:
    """One device, no distribution: the paper's Algorithm-1 loop run
    locally, with device time charged from the recorded kernel costs."""

    name = "single"

    def setup(self, pipeline: "TrainingPipeline") -> None:
        # p == 1 is enforced by RunConfig validation.
        pass

    def sample_bulk(
        self, pipeline: "TrainingPipeline", bulk: list[np.ndarray], seed: int
    ) -> list[list[MinibatchSample]]:
        comm, cfg = pipeline.comm, pipeline.config
        with comm.phase("sampling"):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            samples, work = record_sampling(
                pipeline.sampler, pipeline.graph.adj, bulk, cfg.fanout, rng
            )
            charge_sampling(comm, 0, work, len(cfg.fanout))
        return [samples]


class ReplicatedBackend:
    """Graph Replicated (paper section 5.1): ``A`` on every rank, zero
    communication during sampling."""

    name = "replicated"

    def setup(self, pipeline: "TrainingPipeline") -> None:
        pass

    def sample_bulk(
        self, pipeline: "TrainingPipeline", bulk: list[np.ndarray], seed: int
    ) -> list[list[MinibatchSample]]:
        cfg = pipeline.config
        return replicated_bulk_sampling(
            pipeline.comm, pipeline.sampler, pipeline.graph.adj, bulk,
            cfg.fanout, seed=seed,
        )


class PartitionedBackend:
    """Graph Partitioned (paper section 5.2): 1.5D block-row partitioned
    ``A`` and ``Q`` with the sparsity-aware SpGEMM.

    Plan-driven: the sampler's :meth:`~repro.core.MatrixSampler.plan` is
    interpreted over the grid, so every sampler — node-wise, layer-wise,
    or a plugin — runs here without backend changes.
    """

    name = "partitioned"

    def __init__(self) -> None:
        self.a_blocks: BlockRows | None = None

    def setup(self, pipeline: "TrainingPipeline") -> None:
        self.a_blocks = BlockRows.partition(
            pipeline.graph.adj, pipeline.grid.n_rows
        )

    def sample_bulk(
        self, pipeline: "TrainingPipeline", bulk: list[np.ndarray], seed: int
    ) -> list[list[MinibatchSample]]:
        cfg, grid = pipeline.config, pipeline.grid
        samples, owners = partitioned_bulk_sampling(
            pipeline.comm, grid, pipeline.sampler, self.a_blocks, bulk,
            cfg.fanout, seed=seed, sparsity_aware=cfg.sparsity_aware,
        )
        # Each process row's batches are trained by its c replica ranks,
        # round-robin, so all p ranks participate in propagation.
        per_rank: list[list[MinibatchSample]] = [[] for _ in range(cfg.p)]
        for row, idxs in enumerate(owners):
            for pos, batch_idx in enumerate(idxs):
                rank = grid.rank(row, pos % grid.c)
                per_rank[rank].append(samples[batch_idx])
        return per_rank
