"""Matrix-based LADIES sampling (paper section 4.2).

Layer-wise sampling: a whole batch samples one set of ``s`` vertices from
the batch's *aggregated* neighborhood, with vertex ``v`` weighted by the
square of its in-neighbor count ``e_v`` within the previous layer:
``p_v = e_v^2 / sum_u e_u^2`` (Zou et al., 2019).

In matrix form ``Q^L`` has one row per batch with ``b`` ones (the batch
indicator); ``P = Q A`` counts, for every column ``v``, how many batch
vertices neighbor ``v`` — exactly ``e_v``.  NORM squares and normalizes the
row.  EXTRACT keeps *every* edge between the previous layer and the sampled
set: a row-extraction SpGEMM ``A_R = Q_R A`` followed by a column-extraction
SpGEMM ``A_S = A_R Q_C``.

Bulk sampling stacks the per-batch indicator rows.  Bulk column extraction
is block-diagonal in the paper (section 4.2.4), but a CSR representation of
the hypersparse stacked ``Q_C`` is memory-hostile (section 8.2.2), so it
runs as one SpGEMM per batch, ``A_Ri Q_Ci``.  The literal block-diagonal
single SpGEMM is the tests' oracle for this split path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse import (
    CSRMatrix,
    col_selector,
    indicator_rows,
    row_normalize_inplace,
    row_selector,
    spgemm,
)
from .frontier import LayerSample
from .plan import ExtractStep, NormStep, ProbStep, SampleStep, SamplingPlan
from .sampler_base import MatrixSampler, SpGEMMFn

__all__ = ["LadiesSampler"]


class LadiesSampler(MatrixSampler):
    """LADIES expressed in the matrix framework.

    ``include_dst`` unions the destination (batch) vertices into the sampled
    layer so models can keep a self term.
    """

    name = "ladies"
    default_fanout = (64,)

    def __init__(
        self,
        *,
        include_dst: bool = False,
        debias: bool = False,
    ) -> None:
        super().__init__()
        if debias and include_dst:
            raise ValueError(
                "debias needs pure LADIES samples: destinations unioned "
                "into the layer have no inclusion probability"
            )
        self.include_dst = include_dst
        self.debias = debias

    @staticmethod
    def debias_layer(
        layer: LayerSample, probs: np.ndarray, s: int
    ) -> LayerSample:
        """Importance-reweight a sampled layer for unbiased aggregation.

        Zou et al. scale each kept column by ``1 / (s p_v)`` so that the
        sampled aggregation is an unbiased estimator of the full
        aggregation: ``E[A_S x_S] = A x``.  ``probs`` holds the inclusion
        distribution over all of V that the layer was sampled from.
        """
        weights = probs[layer.src_ids] * s
        if np.any(weights <= 0):
            raise ValueError("sampled a vertex with zero probability")
        adj = CSRMatrix(
            layer.adj.indptr.copy(),
            layer.adj.indices.copy(),
            layer.adj.data / weights[layer.adj.indices],
            layer.adj.shape,
        )
        return LayerSample(adj, layer.src_ids, layer.dst_ids)

    # ------------------------------------------------------------------ #
    # Algorithm-1 pieces
    # ------------------------------------------------------------------ #
    @staticmethod
    def make_q(batches: Sequence[np.ndarray], n: int) -> CSRMatrix:
        """The LADIES ``Q^L``: one indicator row per batch."""
        return indicator_rows(batches, n)

    def norm(self, p: CSRMatrix) -> CSRMatrix:
        """LADIES weights: square the neighbor counts, normalize each row,
        both in place (``np.power(x, 2)`` is exactly what ``x**2``
        computes)."""
        np.power(p.data, 2, out=p.data)
        return row_normalize_inplace(p)

    @staticmethod
    def row_extract(
        adj: CSRMatrix,
        dst_lists: Sequence[np.ndarray],
        *,
        spgemm_fn: SpGEMMFn = spgemm,
    ) -> CSRMatrix:
        """Stacked row extraction ``A_R = Q_R A`` across all batches."""
        q_r = row_selector(np.concatenate(list(dst_lists)), adj.shape[0])
        return spgemm_fn(q_r, adj)

    def col_extract(
        self,
        a_r: CSRMatrix,
        dst_lists: Sequence[np.ndarray],
        sampled_lists: Sequence[np.ndarray],
        *,
        spgemm_fn: SpGEMMFn = spgemm,
    ) -> list[CSRMatrix]:
        """Per-batch column extraction ``A_Si = A_Ri Q_Ci``.

        ``a_r`` is the stacked row-extraction result; batch ``i`` owns the
        rows matching ``dst_lists[i]``.  Returns one ``(b_i, s_i)`` sampled
        adjacency per batch.  Each product is an SpGEMM like any other (the
        cost recorder and the tracer count it); when ``sampled_lists[i]``
        is sorted and distinct, as SAMPLE's ascending picks are, ``Q_Ci``
        is a unit column selector and :func:`~repro.sparse.spgemm` runs it
        as a compiled column gather of ``A_Ri``.
        """
        bounds = np.cumsum([0] + [len(d) for d in dst_lists])
        n = a_r.shape[1]
        out = []
        for i, sampled in enumerate(sampled_lists):
            block = a_r.row_block(int(bounds[i]), int(bounds[i + 1]))
            out.append(spgemm_fn(block, col_selector(sampled, n)))
        return out

    # ------------------------------------------------------------------ #
    # Plan emission: the layer-wise Algorithm-1 program
    # ------------------------------------------------------------------ #
    def plan(self, fanout: Sequence[int]) -> SamplingPlan:
        steps: list = []
        for s in fanout:
            steps += [
                ProbStep("indicator"),
                NormStep(),
                SampleStep(int(s)),
                ExtractStep(
                    "bipartite",
                    union_dst=self.include_dst,
                    debias=self.debias,
                ),
            ]
        return SamplingPlan(tuple(steps))
