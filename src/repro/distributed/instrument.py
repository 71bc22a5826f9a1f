"""Cost instrumentation for locally-executed sampler kernels.

The Graph Replicated algorithm runs the whole bulk-sampling loop locally on
each rank (no communication, section 5.1).  To charge simulated device time
for that work, the sampler's SpGEMM hook is wrapped in a recorder that
accumulates flops/bytes/kernel-launch counts, and the SAMPLE/NORM/EXTRACT
steps are charged from the recorded intermediate sizes.

Kernel-launch accounting is where bulk amortization shows up: one bulk call
issues a fixed number of kernels per layer regardless of how many
minibatches are stacked, while per-batch sampling re-issues them for every
batch (sections 4, 8.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..comm import Communicator
from ..core.its import its_flops
from ..partition.cache import CacheStats
from ..sparse import CSRMatrix, spgemm, spgemm_flops

__all__ = [
    "RecordingSpGEMM",
    "charge_sampling",
    "CacheStats",
    "KERNELS_PER_LAYER",
    "CALL_OVERHEAD_S",
]

#: Fixed kernel launches per sampled layer beyond the SpGEMMs: Q construction,
#: row sums, normalization, prefix sum, random draws, binary search, and the
#: compaction steps of EXTRACT.
KERNELS_PER_LAYER = 8

#: Fixed driver-side overhead per sampling *call*: Python/framework
#: dispatch, stream setup, output assembly.  This is the dominant cost a
#: per-batch sampler (Quiver, DGL) pays once per minibatch and bulk
#: sampling pays once per k minibatches — the amortization the paper
#: measures in section 8.1.1.  5 ms sits in the per-batch sampling range
#: reported for GPU samplers on OGB-scale graphs.
CALL_OVERHEAD_S = 5e-3


@dataclass
class RecordingSpGEMM:
    """A drop-in ``spgemm_fn`` that runs :func:`~repro.sparse.spgemm` and
    records the cost of every call: the expansion work every SpGEMM
    formulation performs, read off the operands' shapes.
    """

    flops: float = 0.0
    nbytes: float = 0.0
    kernels: int = 0
    outputs: list[CSRMatrix] = field(default_factory=list)

    def __call__(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        expansion = spgemm_flops(a, b)
        self.flops += 2.0 * expansion
        # Bytes actually touched: a's entries, the b-rows a's columns select
        # (the expansion, with repeats — a row-gather SpGEMM reads them
        # all), and the CSR row-pointer arrays of both operands.  The
        # indptr term matters for hypersparse operands — LADIES' n-row
        # column selectors are almost all row pointers (section 8.2.2's
        # memory complaint), and it is what makes the serial CPU reference
        # pay ~n bytes per batch.
        self.nbytes += 24.0 * (a.nnz + expansion) + 8.0 * (
            a.shape[0] + b.shape[0]
        )
        self.kernels += 2
        out = spgemm(a, b)
        self.outputs.append(out)
        return out


def sample_norm_flops(p: CSRMatrix, s: int) -> float:
    """Flop estimate for NORM + SAMPLE on one probability matrix."""
    return 2.0 * p.nnz + its_flops(p, s)


def charge_sampling(
    comm: Communicator,
    rank: int,
    recorder: RecordingSpGEMM,
    fanout: tuple[int, ...] | list[int],
) -> None:
    """Charge ``rank`` for one bulk sampling call it executed locally."""
    s_mean = int(np.mean(list(fanout))) if fanout else 1
    extra_flops = sum(sample_norm_flops(p, s_mean) for p in recorder.outputs)
    extra_bytes = sum(24.0 * p.nnz for p in recorder.outputs)
    comm.compute(
        rank,
        flops=recorder.flops + extra_flops,
        nbytes=recorder.nbytes + extra_bytes,
        kernels=recorder.kernels + KERNELS_PER_LAYER * len(fanout),
    )
    comm.clock.advance(rank, CALL_OVERHEAD_S, "compute")
