"""Matrix-based FastGCN sampling (Chen et al., 2018).

The paper's background (section 2.2.2) describes FastGCN as the simplest
layer-wise sampler — each layer draws ``s`` vertices from a *global*,
batch-independent importance distribution ``q(v) ∝ ||A(:, v)||^2`` — and
its conclusion names extending the framework to more samplers as future
work.  This module is that extension: FastGCN drops into the same
Algorithm-1 skeleton with a different probability construction (the
distribution comes from column norms of ``A`` rather than a ``Q A``
product) while sharing SAMPLE and the LADIES-style EXTRACT.

Unlike LADIES, sampled vertices need not lie in the batch's aggregated
neighborhood, so sampled adjacencies may contain empty rows — the accuracy
tradeoff the paper points out.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse import CSRMatrix, row_normalize
from .ladies_sampler import LadiesSampler
from .plan import ExtractStep, ProbStep, SampleStep, SamplingPlan

__all__ = ["FastGCNSampler", "squared_column_norms", "norm_distribution"]


def squared_column_norms(adj: CSRMatrix) -> np.ndarray:
    """``||A(:, v)||_2^2`` for every column ``v`` of ``adj``, as float64.

    ``np.bincount`` with weights adds each column's squares strictly in
    entry order from ``0.0``, one pass — what ``np.add.at`` computed, bit
    for bit, without its per-element loop.
    """
    sq = np.bincount(adj.indices, weights=adj.data**2, minlength=adj.shape[1])
    return sq.astype(np.float64, copy=False)  # no entries: bincount's int64


def norm_distribution(col_sq: np.ndarray) -> CSRMatrix:
    """Squared column norms as a normalized ``1 x n`` CSR row (zeros not
    stored): FastGCN's global importance distribution."""
    cols = np.flatnonzero(col_sq)
    row = CSRMatrix.from_coo(
        np.zeros(cols.size, dtype=np.int64), cols, col_sq[cols], (1, col_sq.size)
    )
    return row_normalize(row)


class FastGCNSampler(LadiesSampler):
    """FastGCN: layer-wise sampling from a global degree-based distribution."""

    name = "fastgcn"

    @staticmethod
    def importance_row(adj: CSRMatrix) -> CSRMatrix:
        """The global FastGCN distribution as a ``1 x n`` CSR row.

        ``q(v) ∝ ||A(:, v)||_2^2``, i.e. the squared column norms; for a
        binary adjacency this is the in-degree of ``v``.
        """
        return norm_distribution(squared_column_norms(adj))

    def plan(self, fanout: Sequence[int]) -> SamplingPlan:
        """Per layer: stack ``k`` copies of the global importance row (no
        per-layer SpGEMM, no NORM — the row is already a distribution),
        SAMPLE, then LADIES-style bipartite extraction."""
        steps: list = []
        for s in fanout:
            steps += [
                ProbStep("global"),
                SampleStep(int(s)),
                ExtractStep("bipartite", union_dst=self.include_dst),
            ]
        return SamplingPlan(tuple(steps))
