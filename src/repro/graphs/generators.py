"""Synthetic graph generators (vectorized numpy).

These stand in for the paper's datasets (OGB Products/Papers100M, HipMCL
Protein).  R-MAT reproduces the skewed degree
distributions of real web/citation graphs, Erdos-Renyi provides a flat
control, and the
planted-partition generator produces learnable community structure for the
accuracy experiments (paper section 8.1.3).
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix

__all__ = ["rmat", "erdos_renyi", "planted_partition"]


def _dedupe_and_build(
    rows: np.ndarray, cols: np.ndarray, n: int, *, drop_self_loops: bool = True
) -> CSRMatrix:
    if drop_self_loops:
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
    mat = CSRMatrix.from_coo(rows, cols, None, (n, n))
    # Duplicate edges were summed into values > 1; flatten back to binary.
    mat.data.fill(1.0)
    return mat


def rmat(
    scale: int,
    edge_factor: int,
    rng: np.random.Generator,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    make_undirected: bool = False,
) -> CSRMatrix:
    """Recursive-matrix (Kronecker) graph with ``2**scale`` vertices.

    ``edge_factor`` edges per vertex are drawn; the (a, b, c, 1-a-b-c)
    quadrant probabilities default to the Graph500 values, which yield the
    heavy-tailed degree distributions of the paper's datasets.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must be non-negative")
    if scale <= 0 or edge_factor <= 0:
        raise ValueError("scale and edge_factor must be positive")
    n = 1 << scale
    m = n * edge_factor
    rows = np.zeros(m, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    # One quadrant choice per (edge, bit); fully vectorized over edges.
    for bit in range(scale):
        quad = rng.choice(4, size=m, p=[a, b, c, d])
        rows |= ((quad >> 1) & 1).astype(np.int64) << bit
        cols |= (quad & 1).astype(np.int64) << bit
    # Permute vertex ids so high-degree vertices are not clustered at id 0.
    perm = rng.permutation(n)
    rows, cols = perm[rows], perm[cols]
    if make_undirected:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    return _dedupe_and_build(rows, cols, n)


def erdos_renyi(
    n: int, avg_degree: float, rng: np.random.Generator
) -> CSRMatrix:
    """G(n, m) random directed graph with ``n * avg_degree`` edges."""
    if n <= 0 or avg_degree < 0:
        raise ValueError("n must be positive and avg_degree non-negative")
    m = int(round(n * avg_degree))
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    return _dedupe_and_build(rows, cols, n)


def planted_partition(
    n: int,
    n_classes: int,
    avg_degree: float,
    rng: np.random.Generator,
    *,
    intra_fraction: float = 0.8,
) -> tuple[CSRMatrix, np.ndarray]:
    """Community graph with labels: ``intra_fraction`` of edges stay in-class.

    Returns ``(adjacency, labels)``.  A GNN can recover the labels from the
    connectivity, which is what the accuracy-parity experiment needs.
    """
    if not 0.0 <= intra_fraction <= 1.0:
        raise ValueError("intra_fraction must be in [0, 1]")
    if n_classes <= 0 or n < n_classes:
        raise ValueError("need at least one vertex per class")
    labels = rng.integers(0, n_classes, size=n)
    m = int(round(n * avg_degree))
    rows = rng.integers(0, n, size=m)
    intra = rng.random(m) < intra_fraction
    # Intra-class edges: pick a target uniformly from the source's class.
    # Vectorized via per-class vertex pools and random indices into them.
    cols = rng.integers(0, n, size=m)
    order = np.argsort(labels, kind="stable")
    class_start = np.searchsorted(labels[order], np.arange(n_classes))
    class_size = np.bincount(labels, minlength=n_classes)
    src_class = labels[rows[intra]]
    offsets = (rng.random(int(intra.sum())) * class_size[src_class]).astype(np.int64)
    cols[intra] = order[class_start[src_class] + offsets]
    adj = _dedupe_and_build(
        np.concatenate([rows, cols]), np.concatenate([cols, rows]), n
    )
    return adj, labels
