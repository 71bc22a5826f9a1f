"""Matrix-based GraphSAGE sampling (paper section 4.1).

Node-wise sampling: every frontier vertex draws ``s`` of its own neighbors.
In matrix form, the frontier is encoded as ``Q`` with one row per frontier
vertex (a single 1 at that vertex's column), so ``P = Q A`` gathers each
vertex's neighborhood as a row; NORM divides by the row degree, giving the
uniform distribution over neighbors; SAMPLE keeps ``s`` per row; EXTRACT is
just dropping the empty columns of the sampled ``Q^{l-1}`` (section 4.1.3).

Bulk sampling of ``k`` minibatches stacks the per-batch frontiers vertically
(Equation 1); all matrix steps are oblivious to the stacking.  The whole
algorithm is emitted as a sampling plan — per layer ``PROB(frontier) ->
NORM -> SAMPLE(s) -> EXTRACT(compact)`` — and interpreted by the executors
in :mod:`repro.core.plan` and :mod:`repro.distributed.partitioned`.
Exact serving keeps each vertex's whole neighbourhood without sampling:
:func:`repro.serve.replica.neighborhood_sample`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse import (
    CSRMatrix,
    compact_columns,
    row_normalize,
    row_normalize_inplace,
    row_selector,
)
from .frontier import LayerSample
from .plan import ExtractStep, NormStep, ProbStep, SampleStep, SamplingPlan
from .sampler_base import MatrixSampler

__all__ = ["SageSampler"]


class SageSampler(MatrixSampler):
    """GraphSAGE expressed in the matrix framework.

    ``include_dst`` adds each layer's destination vertices to its source
    frontier (the standard trick that lets models keep a self/root term);
    the pure paper formulation is ``include_dst=False``.
    """

    name = "graphsage"

    def __init__(self, *, include_dst: bool = True) -> None:
        super().__init__()
        self.include_dst = include_dst

    # ------------------------------------------------------------------ #
    # Algorithm-1 pieces (also called by the distributed drivers)
    # ------------------------------------------------------------------ #
    @staticmethod
    def make_q(frontier: np.ndarray, n: int) -> CSRMatrix:
        """The GraphSAGE ``Q^l``: one row per frontier vertex."""
        return row_selector(frontier, n)

    def norm(self, p: CSRMatrix) -> CSRMatrix:
        """Uniform distribution over each vertex's neighbors: 1/|N(v)|."""
        return row_normalize(p)

    def norm_inplace(self, p: CSRMatrix) -> CSRMatrix:
        """In-place NORM, what executors run: same divide, no copy (see
        MatrixSampler)."""
        return row_normalize_inplace(p)

    def extract_batch_layer(
        self,
        q_next_rows: CSRMatrix,
        dst_ids: np.ndarray,
    ) -> LayerSample:
        """EXTRACT for one batch at one layer.

        ``q_next_rows`` is the slice of the sampled ``Q^{l-1}`` belonging to
        this batch (one row per destination vertex, columns over all of V).
        Removing its empty columns yields the sampled adjacency; the kept
        column ids are the new frontier.
        """
        compacted, kept = compact_columns(q_next_rows)
        if not self.include_dst:
            return LayerSample(compacted, kept, dst_ids)
        # Source frontier = sampled union destinations, kept sorted so the
        # column remap is a searchsorted.
        src = np.union1d(kept, dst_ids)
        pos = np.searchsorted(src, kept)
        adj = CSRMatrix(
            compacted.indptr.copy(),
            pos[compacted.indices],
            compacted.data.copy(),
            (compacted.shape[0], src.size),
        )
        return LayerSample(adj, src, dst_ids)

    # ------------------------------------------------------------------ #
    # Plan emission: the node-wise Algorithm-1 program
    # ------------------------------------------------------------------ #
    def plan(self, fanout: Sequence[int]) -> SamplingPlan:
        steps: list = []
        for s in fanout:
            steps += [
                ProbStep("frontier"),
                NormStep(),
                SampleStep(int(s)),
                ExtractStep("compact"),
            ]
        return SamplingPlan(tuple(steps))
