"""Closed-form communication analysis of the 1.5D algorithm (section 5.2.1).

The paper derives, for generating probability distributions over a bulk of
``k`` batches of size ``b`` on a graph with average degree ``d``::

    T_rowdata   = alpha * (p / c^2) + beta * (k b d / c)
    T_allreduce = alpha * log2(c)   + beta * (c k b d / p)
    T_prob      = T_rowdata + T_allreduce

so the algorithm scales with the harmonic mean of ``p/c`` and ``c``.  These
predictions are compared against the simulator's measured per-rank volumes
and times by ``benchmarks/bench_comm_model.py``.

Note one deliberate deviation: the paper writes the row-data latency term as
``alpha * log(p/c^2)``; our simulator issues one overlapped scatter per
stage (``p/c^2`` stages), giving ``alpha * p/c^2``.  Both are latency-minor
against the beta terms at the paper's scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import MachineConfig, PERLMUTTER_LIKE

__all__ = ["ProbCostInputs", "predict_prob_costs"]

_BYTES_PER_NNZ = 16  # column index + value on the wire


@dataclass(frozen=True)
class ProbCostInputs:
    """Workload parameters of one probability-generation SpGEMM."""

    p: int  # total processes
    c: int  # replication factor
    k: int  # minibatches in the bulk
    b: int  # batch size
    d: float  # average degree of the graph

    def __post_init__(self) -> None:
        if self.p <= 0 or self.c <= 0 or self.p % self.c:
            raise ValueError(
                f"invalid process grid p={self.p}, c={self.c}: p and c "
                f"must be positive with c dividing p (a p/c x c grid)"
            )
        if self.k <= 0 or self.b <= 0 or self.d < 0:
            raise ValueError("k, b must be positive; d non-negative")


@dataclass(frozen=True)
class ProbCostPrediction:
    """Predicted seconds and per-rank bytes for the probability SpGEMM."""

    t_rowdata: float
    t_allreduce: float
    rowdata_bytes_per_rank: float
    allreduce_bytes_per_rank: float


def predict_prob_costs(
    inputs: ProbCostInputs, machine: MachineConfig = PERLMUTTER_LIKE
) -> ProbCostPrediction:
    """Evaluate the section-5.2.1 cost model on a machine's alpha/beta.

    Uses the inter-node link parameters (the binding constraint at the
    paper's scales, where a process column spans nodes).
    """
    link = machine.inter_node
    p, c, k, b, d = inputs.p, inputs.c, inputs.k, inputs.b, inputs.d
    stages = max(1, p // (c * c))
    rowdata_bytes = _BYTES_PER_NNZ * k * b * d / c
    t_rowdata = link.alpha * stages + link.beta * rowdata_bytes
    allreduce_bytes = _BYTES_PER_NNZ * c * k * b * d / p
    t_allreduce = (
        link.alpha * max(0.0, math.log2(c)) + link.beta * allreduce_bytes
    )
    return ProbCostPrediction(
        t_rowdata=t_rowdata,
        t_allreduce=t_allreduce,
        rowdata_bytes_per_rank=rowdata_bytes,
        allreduce_bytes_per_rank=2 * allreduce_bytes,
    )
