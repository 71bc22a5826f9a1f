"""The Graph Replicated distributed sampling algorithm (paper section 5.1).

The adjacency matrix ``A`` is replicated on every rank; the stacked bulk
``Q`` is 1D block-row partitioned, so each rank owns ``k/p`` of the ``k``
minibatches being sampled.  Because the probability SpGEMM, NORM, SAMPLE
and EXTRACT are all row-wise, every rank samples its own minibatches with
**zero communication** — the property that makes the sampling bars of
Figure 4 scale linearly with ``p``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..comm import Communicator
from ..core import MatrixSampler, MinibatchSample, assign_round_robin, batch_rng
from ..sparse import CSRMatrix
from .instrument import charge_sampling, record_sampling

__all__ = ["replicated_bulk_sampling"]


def replicated_bulk_sampling(
    comm: Communicator,
    sampler: MatrixSampler,
    adj: CSRMatrix,
    batches: Sequence[np.ndarray],
    fanout: Sequence[int],
    seed: int = 0,
) -> list[list[MinibatchSample]]:
    """Sample one bulk of minibatches under the Graph Replicated algorithm.

    Every rank receives its round-robin share of ``batches`` and runs the
    sampler's bulk loop locally against the replicated ``adj``.  Returns the
    per-rank lists of samples; ``out[r][x]`` is rank ``r``'s ``x``-th batch
    (batch index ``r + x * p`` in the input order).

    Simulated device time is charged per rank from the recorded kernel
    costs; no communication is charged because none occurs (section 5.1).

    Each batch's randomness is an independent stream keyed by its global
    batch index (:func:`~repro.core.bulk.batch_rng`), so the sampled
    output is invariant to the world size — the same batches yield
    bit-identical samples at any ``p``.
    """
    owners = assign_round_robin(len(batches), comm.world_size)
    results: list[list[MinibatchSample]] = []
    with comm.phase("sampling"):
        for rank in range(comm.world_size):
            mine = [batches[i] for i in owners[rank]]
            if not mine:
                results.append([])
                continue
            rngs = [batch_rng(seed, int(i)) for i in owners[rank]]
            samples, work = record_sampling(sampler, adj, mine, fanout, rngs)
            charge_sampling(comm, rank, work, len(fanout))
            results.append(samples)
        comm.clock.barrier()
    return results
