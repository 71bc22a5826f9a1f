"""Matrix-based graph-wise sampling (GraphSAINT-style random-walk subgraphs).

The paper's taxonomy (section 2.2) has three sampler families — node-wise,
layer-wise and graph-wise — and its conclusion names expressing more
algorithms in the matrix framework as future work.  This module adds the
third family: a GraphSAINT-flavoured sampler (Zeng et al., 2020) that grows
a vertex set with short random walks from the batch roots and trains on the
**induced subgraph**.

Everything is built from the same Algorithm-1 pieces:

* each walk step is the GraphSAGE machinery with ``s = 1`` — one uniform
  neighbor per frontier vertex via ``P = Q A``, NORM, SAMPLE — emitted as
  the plan stage ``PROB(frontier) -> NORM -> SAMPLE(1) -> EXTRACT(walk)``;
* the induced subgraph is an EXTRACT: rows *and* columns of ``A``
  restricted to the walk's vertex set (a row-selector SpGEMM followed by a
  column compaction), the same primitives LADIES extraction uses — the
  plan's final ``EXTRACT(subgraph)`` step.

The result is presented as a :class:`MinibatchSample` whose ``L`` layers
all share the same frontier (the subgraph's vertex set), which is exactly
how GraphSAINT trains an L-layer GCN on its subgraph.  Because the whole
algorithm is a plan, SAINT runs under the partitioned executor too: the
walk's probability products and the induction's row extraction become 1.5D
SpGEMMs, with no SAINT-specific distributed code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse import CSRMatrix, row_selector, spgemm
from .plan import ExtractStep, NormStep, ProbStep, SampleStep, SamplingPlan
from .sage_sampler import SageSampler
from .sampler_base import SpGEMMFn

__all__ = ["GraphSaintRWSampler"]


class GraphSaintRWSampler(SageSampler):
    """Random-walk subgraph sampling in the matrix framework.

    ``fanout`` is interpreted as the GNN depth only (its values are
    ignored); ``walk_length`` controls how far each root walks.  Each batch
    vertex starts one walk; the union of visited vertices induces the
    training subgraph.
    """

    name = "graphsaint-rw"

    def __init__(self, *, walk_length: int = 3) -> None:
        super().__init__(include_dst=True)
        if walk_length <= 0:
            raise ValueError("walk_length must be positive")
        self.walk_length = walk_length

    def induced_subgraph(
        self,
        adj: CSRMatrix,
        vertices: np.ndarray,
        *,
        spgemm_fn: SpGEMMFn = spgemm,
    ) -> CSRMatrix:
        """EXTRACT: ``A`` restricted to ``vertices`` on both axes."""
        rows = spgemm_fn(row_selector(vertices, adj.shape[0]), adj)
        mask = np.zeros(adj.shape[1], dtype=bool)
        mask[vertices] = True
        return rows.select_columns(mask)

    # ------------------------------------------------------------------ #
    # Plan emission: the graph-wise Algorithm-1 program
    # ------------------------------------------------------------------ #
    def plan(self, fanout: Sequence[int]) -> SamplingPlan:
        """``walk_length`` GraphSAGE-with-``s=1`` stages advancing every
        root's walk position, then one subgraph induction emitting all
        ``len(fanout)`` layers (fanout values are only the GNN depth)."""
        steps: list = []
        for _ in range(self.walk_length):
            steps += [
                ProbStep("frontier"),
                NormStep(),
                SampleStep(1),
                ExtractStep("walk"),
            ]
        steps.append(ExtractStep("subgraph", n_layers=len(fanout)))
        return SamplingPlan(tuple(steps))
