"""Synthetic stand-ins for the paper's datasets (Table 3).

The paper evaluates on three graphs none of which can be used here (OGB
downloads and the HipMCL repository are network/storage gated, and the
full sizes need a GPU cluster's aggregate memory):

======== ========= ======== ======== ========== ==================
Name     Vertices  Edges    Batches  Features   Character
======== ========= ======== ======== ========== ==================
Products 2.4M      126M     196      100        dense (d about 53)
Protein  8.7M      1.3B     1024     128        densest (d about 150)
Papers   111M      1.6B     1172     128        sparse, huge n (d about 14)
======== ========= ======== ======== ========== ==================

Each stand-in keeps the property that drives the paper's performance story:
relative density and vertex count.  ``scale`` shrinks vertex counts while
preserving average degree, feature width and the train-fraction that yields
the paper's batch counts.  Protein's features are random in the paper too
(performance-only dataset), which we inherit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..names import check_name
from .generators import planted_partition, rmat
from .graph import Graph

__all__ = ["DatasetSpec", "PAPER_DATASETS", "load_dataset", "dataset_names"]


@dataclass(frozen=True)
class DatasetSpec:
    """Paper-scale statistics of one evaluation dataset (Table 3)."""

    name: str
    vertices: int
    edges: int
    batches: int
    features: int
    batch_size: int  # batch size the paper pairs with this dataset (Table 4)

    @property
    def avg_degree(self) -> float:
        return self.edges / self.vertices

    @property
    def train_fraction(self) -> float:
        """Fraction of vertices in the training split implied by Table 3."""
        return min(0.9, self.batches * self.batch_size / self.vertices)


PAPER_DATASETS: dict[str, DatasetSpec] = {
    "products": DatasetSpec("products", 2_449_029, 126_167_053, 196, 100, 1024),
    "protein": DatasetSpec("protein", 8_745_542, 1_300_000_000, 1024, 128, 1024),
    "papers": DatasetSpec("papers", 111_059_956, 1_615_685_872, 1172, 128, 1024),
}

#: RMAT scale exponent for each dataset at ``scale=1.0`` (sim-scale n = 2**exp).
_SIM_SCALE_EXP = {"products": 12, "protein": 13, "papers": 16}


def dataset_names() -> list[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(PAPER_DATASETS)


def load_dataset(
    name: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    with_labels: bool = False,
    n_classes: int = 16,
) -> Graph:
    """Generate the sim-scale stand-in for a paper dataset.

    ``scale`` multiplies the sim-scale vertex count (``scale=0.25`` quarters
    it); average degree, feature width and train fraction always follow the
    paper spec.  With ``with_labels`` the topology comes from the planted-
    partition generator so the labels are learnable (accuracy experiments);
    otherwise R-MAT topology with random features (performance experiments,
    like the paper's Protein dataset).
    """
    check_name("dataset", name, PAPER_DATASETS)
    if scale <= 0:
        raise ValueError("scale must be positive")
    spec = PAPER_DATASETS[name]
    rng = np.random.default_rng(seed)
    base_exp = _SIM_SCALE_EXP[name]
    n_target = max(256, int(round((1 << base_exp) * scale)))
    # Paper degree, capped so tiny sim graphs stay sparser than complete.
    avg_degree = min(spec.avg_degree, n_target / 8)

    labels: np.ndarray | None
    if with_labels:
        adj, labels = planted_partition(
            n_target, n_classes, avg_degree, rng, intra_fraction=0.85
        )
    else:
        scale_exp = max(8, int(round(np.log2(n_target))))
        edge_factor = max(1, int(round(avg_degree)))
        adj = rmat(scale_exp, edge_factor, rng)
        labels = rng.integers(0, n_classes, size=adj.shape[0])
    n = adj.shape[0]

    if with_labels:
        # Features carry a noisy class signal so the model can learn.
        centroids = rng.standard_normal((n_classes, spec.features))
        features = centroids[labels] + 0.5 * rng.standard_normal((n, spec.features))
    else:
        features = rng.standard_normal((n, spec.features))
    # The model's one width: features, weights, activations and gradients
    # are float32, as the paper's PyG training runs them (section 8.1.3).
    features = features.astype(np.float32)

    perm = rng.permutation(n)
    n_train = max(1, int(round(spec.train_fraction * n)))
    n_val = max(1, min(n - n_train, n // 10)) if n > n_train else 0
    return Graph(
        name=f"{name}-sim",
        adj=adj,
        features=features,
        labels=labels,
        train_idx=np.sort(perm[:n_train]),
        val_idx=np.sort(perm[n_train : n_train + n_val]),
        test_idx=np.sort(perm[n_train + n_val :]),
    )
