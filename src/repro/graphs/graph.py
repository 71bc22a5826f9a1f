"""The Graph container: CSR adjacency plus node features, labels and splits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse import CSRMatrix

__all__ = ["Graph"]


@dataclass
class Graph:
    """A node-classification graph dataset.

    ``adj[u, v] != 0`` means an edge ``u -> v``; aggregation in layer ``l``
    pulls messages along rows, matching the paper's ``Q A`` orientation where
    row ``u`` of ``A`` lists the neighbors ``u`` aggregates from.
    """

    name: str
    adj: CSRMatrix
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    train_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    val_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    test_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        if self.adj.shape[0] != self.adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {self.adj.shape}")
        try:
            self.adj.check()
        except ValueError as exc:
            raise ValueError(
                f"graph {self.name!r} adjacency is not canonical CSR: {exc}. "
                f"Samplers and the delta-CSR overlay rely on sorted, "
                f"duplicate-free column indices per row; build the matrix "
                f"through CSRMatrix.from_coo (which sorts and merges "
                f"duplicates) instead of assembling indptr/indices by hand"
            ) from exc
        if self.features is not None and self.features.shape[0] != self.n:
            raise ValueError("one feature row per vertex required")
        if self.labels is not None and self.labels.shape[0] != self.n:
            raise ValueError("one label per vertex required")
        for split in ("train_idx", "val_idx", "test_idx"):
            idx = getattr(self, split)
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise ValueError(f"{split} holds a vertex id outside [0, {self.n})")

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.adj.shape[0]

    @property
    def m(self) -> int:
        """Number of (directed) edges."""
        return self.adj.nnz

    @property
    def n_features(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return 0 if self.labels is None else int(self.labels.max()) + 1

    def out_degrees(self) -> np.ndarray:
        """Out-degree (number of aggregation sources) of every vertex."""
        return self.adj.nnz_per_row()

    def avg_degree(self) -> float:
        """Mean directed degree m / n."""
        return self.m / self.n if self.n else 0.0

    def num_batches(self, batch_size: int) -> int:
        """Full minibatches available from the training split."""
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        return self.train_idx.size // batch_size

    def make_batches(
        self, batch_size: int, rng: np.random.Generator | None = None
    ) -> list[np.ndarray]:
        """Partition the training vertices into full-size minibatches.

        A ``rng`` shuffles vertices first (the usual epoch shuffle); without
        one the split is deterministic in index order.
        """
        idx = self.train_idx.copy()
        if rng is not None:
            rng.shuffle(idx)
        k = self.num_batches(batch_size)
        if k == 0:
            raise ValueError(
                f"training split ({idx.size}) smaller than one batch ({batch_size})"
            )
        return [idx[i * batch_size : (i + 1) * batch_size] for i in range(k)]
