"""What a locally-executed bulk sampling call costs, and how it is billed.

The Graph Replicated algorithm runs the whole bulk-sampling loop locally on
each rank (no communication, section 5.1), and so do the single-device
backend and the per-batch baselines (Quiver, the serial CPU LADIES
reference).  All of them cost their sampling with one pair:

* :func:`record_sampling` runs ``sample_bulk`` with a private SpGEMM hook
  and, as each product is computed, adds its terms to a
  :class:`SamplingWork`: the SpGEMM's expansion flops and bytes touched,
  two kernel launches, and the NORM + SAMPLE flops and bytes of the
  product it produced.  Nothing of the product outlives the call.
* :func:`charge_sampling` bills a :class:`SamplingWork` to one rank's
  device clock, adding the fixed per-layer launches and the per-call
  driver overhead.

Kernel-launch accounting is where bulk amortization shows up: one bulk
call issues a fixed number of kernels per layer regardless of how many
minibatches are stacked, while per-batch sampling pays them, and
``CALL_OVERHEAD_S``, once per batch (sections 4, 8.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..comm import Communicator
from ..core.its import its_flops
from ..sparse import CSRMatrix, spgemm, spgemm_flops

__all__ = ["SamplingWork", "record_sampling", "charge_sampling"]

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


@dataclass(frozen=True)
class SamplingWork:
    """The recorded cost of sampling calls, summed with ``+``.

    ``nbytes`` is everything the device touches; ``spgemm_nbytes`` is the
    SpGEMMs' share of it — the topology reads a UVA sampler sends over the
    host link and the serial CPU reference is billed for.  Every term is an
    integer-valued float far below 2**53, so sums are exact in any order.
    """

    flops: float = 0.0
    nbytes: float = 0.0
    kernels: int = 0
    spgemm_nbytes: float = 0.0

    def __add__(self, other: "SamplingWork") -> "SamplingWork":
        return SamplingWork(
            self.flops + other.flops,
            self.nbytes + other.nbytes,
            self.kernels + other.kernels,
            self.spgemm_nbytes + other.spgemm_nbytes,
        )


def sample_norm_flops(p: CSRMatrix, s: int) -> float:
    """Flop estimate for NORM + SAMPLE on one probability matrix."""
    return 2.0 * p.nnz + its_flops(p, s)


def record_sampling(sampler, adj: CSRMatrix, batches, fanout: Sequence[int], rng):
    """Run ``sampler.sample_bulk(adj, batches, fanout, rng)`` and record
    its cost; returns ``(samples, work)``.

    Each SpGEMM is charged the expansion work every SpGEMM formulation
    performs, read off the operands' shapes, and its product is charged
    NORM + SAMPLE at the mean fanout.
    """
    s_mean = int(np.mean(list(fanout))) if len(fanout) else 1
    work = SamplingWork()

    def recorded(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        nonlocal work
        expansion = spgemm_flops(a, b)
        out = spgemm(a, b)
        # Bytes actually touched: a's entries, the b-rows a's columns select
        # (the expansion, with repeats — a row-gather SpGEMM reads them
        # all), and the CSR row-pointer arrays of both operands.  The
        # indptr term matters for hypersparse operands — LADIES' n-row
        # column selectors are almost all row pointers (section 8.2.2's
        # memory complaint), and it is what makes the serial CPU reference
        # pay ~n bytes per batch.
        moved = 24.0 * (a.nnz + expansion) + 8.0 * (a.shape[0] + b.shape[0])
        work += SamplingWork(
            flops=2.0 * expansion + sample_norm_flops(out, s_mean),
            nbytes=moved + 24.0 * out.nnz,
            kernels=2,
            spgemm_nbytes=moved,
        )
        return out

    samples = sampler.sample_bulk(adj, batches, fanout, rng, spgemm_fn=recorded)
    return samples, work


def charge_sampling(
    comm: Communicator, rank: int, work: SamplingWork, n_layers: int
) -> None:
    """Bill ``rank`` for one sampling call of ``n_layers`` layers that did
    ``work``: its recorded kernels plus the fixed per-layer launches, and
    the per-call driver overhead."""
    comm.compute(
        rank,
        flops=work.flops,
        nbytes=work.nbytes,
        kernels=work.kernels + KERNELS_PER_LAYER * n_layers,
    )
    comm.clock.advance(rank, CALL_OVERHEAD_S, "compute")
