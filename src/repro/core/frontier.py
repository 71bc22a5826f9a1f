"""Result types of sampling: per-layer frontiers and per-minibatch samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix

__all__ = ["LayerSample", "MinibatchSample"]


@dataclass
class LayerSample:
    """One sampled layer: a bipartite adjacency from sources to destinations.

    ``adj`` has shape ``(len(dst_ids), len(src_ids))``: row ``r`` lists which
    source vertices destination ``dst_ids[r]`` aggregates from.  ``src_ids``
    and ``dst_ids`` are global vertex ids; columns/rows of ``adj`` are local
    positions into them.
    """

    adj: CSRMatrix
    src_ids: np.ndarray
    dst_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.adj.shape != (len(self.dst_ids), len(self.src_ids)):
            raise ValueError(
                f"adj shape {self.adj.shape} does not match "
                f"(dst={len(self.dst_ids)}, src={len(self.src_ids)})"
            )

    @property
    def n_src(self) -> int:
        return len(self.src_ids)

    @property
    def n_dst(self) -> int:
        return len(self.dst_ids)

    def check_chain(self, next_layer: "LayerSample") -> None:
        """Verify this layer's destinations are the next layer's sources."""
        if not np.array_equal(self.dst_ids, next_layer.src_ids):
            raise ValueError("layer chain broken: dst_ids != next src_ids")


@dataclass
class MinibatchSample:
    """A fully sampled minibatch: the batch vertices plus L sampled layers.

    ``layers[0]`` is the layer furthest from the batch (the paper's layer 1)
    and ``layers[-1]`` aggregates directly into the batch vertices, i.e.
    ``layers[-1].dst_ids == batch``.  ``layers[0].src_ids`` is the input
    frontier whose feature rows must be fetched before propagation.
    """

    batch: np.ndarray
    layers: list[LayerSample]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a sample must contain at least one layer")
        if not np.array_equal(self.layers[-1].dst_ids, self.batch):
            raise ValueError("last layer must aggregate into the batch vertices")
        for lo, hi in zip(self.layers, self.layers[1:]):
            lo.check_chain(hi)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_frontier(self) -> np.ndarray:
        """Global vertex ids whose features are needed for forward prop."""
        return self.layers[0].src_ids

    def total_edges(self) -> int:
        """Sampled edges across all layers (proxy for propagation cost)."""
        return sum(layer.adj.nnz for layer in self.layers)
