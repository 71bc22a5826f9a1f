"""Per-batch (non-bulk) GPU matrix sampling — the amortization ablation.

Identical semantics and distribution to the Graph Replicated bulk sampler,
except each minibatch is sampled in its own call, re-paying the per-call
kernel-launch overheads.  Comparing this against bulk sampling isolates the
paper's amortization claim (sections 4, 8.1.1) from everything else.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..comm import Communicator
from ..core import MatrixSampler, MinibatchSample, assign_round_robin
from ..core.bulk import batch_rng
from ..distributed import charge_sampling, record_sampling
from ..sparse import CSRMatrix

__all__ = ["per_batch_sampling"]


def per_batch_sampling(
    comm: Communicator,
    sampler: MatrixSampler,
    adj: CSRMatrix,
    batches: Sequence[np.ndarray],
    fanout: Sequence[int],
    seed: int = 0,
) -> list[list[MinibatchSample]]:
    """Sample every batch with its own sampler call (bulk size 1).

    Same ownership, output layout and per-batch RNG streams as
    :func:`repro.distributed.replicated_bulk_sampling`, so the sampled
    minibatches are bit-identical to the bulk path — the comparison
    isolates the per-call overhead, not sampling noise.
    """
    owners = assign_round_robin(len(batches), comm.world_size)
    results: list[list[MinibatchSample]] = []
    with comm.phase("sampling"):
        for rank in range(comm.world_size):
            mine: list[MinibatchSample] = []
            for i in owners[rank]:
                samples, work = record_sampling(
                    sampler, adj, [batches[i]], fanout, [batch_rng(seed, int(i))]
                )
                charge_sampling(comm, rank, work, len(fanout))
                mine.extend(samples)
            results.append(mine)
        comm.clock.barrier()
    return results
