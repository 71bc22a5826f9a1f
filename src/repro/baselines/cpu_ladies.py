"""The reference serial CPU LADIES implementation (paper section 8.2.2).

The paper compares its distributed LADIES against "the reference CPU
implementation", which samples minibatches one at a time on a single host
(43.9 s for all Papers minibatches, 3.12 s for Protein); the distributed
GPU runs begin to beat it at 64 GPUs.  This module reproduces that
comparator: the same matrix-based LADIES semantics executed per batch and
charged at host (CPU) speed, including per-batch software overheads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm import Communicator
from ..core import LadiesSampler, MinibatchSample
from ..distributed import record_sampling
from ..graphs import Graph
from ..machine import MachineConfig, PERLMUTTER_LIKE

__all__ = ["CpuLadiesResult", "reference_cpu_ladies"]

#: Serial software overhead per minibatch (Python/driver bookkeeping the
#: reference implementation pays per batch).
_PER_BATCH_OVERHEAD_S = 1e-3


@dataclass(frozen=True)
class CpuLadiesResult:
    """Outcome of a serial reference run."""

    seconds: float
    n_batches: int
    samples: list[MinibatchSample]


def reference_cpu_ladies(
    graph: Graph,
    batches: list[np.ndarray],
    s: int,
    *,
    layers: int = 1,
    seed: int = 0,
    machine: MachineConfig = PERLMUTTER_LIKE,
    work_scale: float = 1.0,
) -> CpuLadiesResult:
    """Sample every batch serially on one CPU; returns simulated seconds."""
    if s <= 0:
        raise ValueError("layer width s must be positive")
    comm = Communicator(1, machine, work_scale=work_scale)
    sampler = LadiesSampler()
    rng = np.random.default_rng(seed)
    out: list[MinibatchSample] = []
    fanout = tuple([s] * layers)
    with comm.phase("cpu_sampling"):
        for batch in batches:
            samples, work = record_sampling(
                sampler, graph.adj, [batch], fanout, rng
            )
            out.extend(samples)
            # Uniform fanout: the recorded NORM + SAMPLE flops are at s.
            comm.host_compute(0, flops=work.flops, nbytes=work.spgemm_nbytes)
            comm.clock.advance(0, _PER_BATCH_OVERHEAD_S, "compute")
    return CpuLadiesResult(
        seconds=comm.clock.elapsed(), n_batches=len(batches), samples=out
    )
