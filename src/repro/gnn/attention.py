"""Graph attention (GAT) convolution with explicit forward/backward.

A single-head GAT layer (Velickovic et al., 2018) over the sampled
bipartite layers the matrix samplers produce.  Included as part of the
"any model" claim of the paper's section 8.1.3 — the pipeline's sampled
adjacencies are model-agnostic, and attention is the standard layer beyond
SAGE/GCN a downstream user would reach for.

For a sampled layer with destination ``i`` and source ``j``::

    e_ij    = leaky_relu(a_dst . (h_i W) + a_src . (h_j W))
    alpha_i = softmax over j in N_S(i) of e_ij
    h_i'    = sum_j alpha_ij (h_j W) + b

The softmax runs over each destination's *sampled* neighborhood (a CSR
row), so all edge work is vectorized over the layer's nonzeros.
"""

from __future__ import annotations

import numpy as np

from ..core.frontier import LayerSample
from .layers import _ConvBase, glorot, stable_matmul

__all__ = ["GATConv"]

_LEAK = 0.2


def _segment_softmax(
    scores: np.ndarray, indptr: np.ndarray
) -> np.ndarray:
    """Row-segmented softmax over CSR-ordered edge scores."""
    n_rows = indptr.shape[0] - 1
    rows = _row_ids(indptr)
    # Stabilize per row: subtract the row max.
    row_max = np.full(n_rows, -np.inf, scores.dtype)
    np.maximum.at(row_max, rows, scores)
    shifted = np.exp(scores - row_max[rows])
    row_sum = np.zeros(n_rows, scores.dtype)
    np.add.at(row_sum, rows, shifted)
    return shifted / row_sum[rows]


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(
        np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr)
    )


class GATConv(_ConvBase):
    """Single-head graph attention over a sampled bipartite layer."""

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        self.params = {
            "W": glorot((in_dim, out_dim), rng),
            "a_src": glorot((out_dim, 1), rng)[:, 0],
            "a_dst": glorot((out_dim, 1), rng)[:, 0],
            "b": np.zeros(out_dim, np.float32),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache: tuple | None = None

    def forward(self, layer: LayerSample, h_src: np.ndarray) -> np.ndarray:
        if h_src.shape[0] != layer.n_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows for {layer.n_src} sources"
            )
        adj = layer.adj
        dst_pos = self._dst_positions(layer)
        if dst_pos is None:
            raise ValueError(
                "GATConv needs destinations inside the source frontier "
                "(sample with include_dst=True)"
            )
        z = h_src @ self.params["W"]  # (n_src, out)
        s_src = z @ self.params["a_src"]  # (n_src,)
        s_dst = z @ self.params["a_dst"]
        rows = _row_ids(adj.indptr)
        cols = adj.indices
        raw = s_dst[dst_pos][rows] + s_src[cols]
        leaky = np.where(raw > 0, raw, _LEAK * raw)
        alpha = _segment_softmax(leaky, adj.indptr)
        # Aggregate alpha-weighted source transforms per destination row.
        out = np.zeros((layer.n_dst, z.shape[1]), z.dtype)
        np.add.at(out, rows, alpha[:, None] * z[cols])
        self._cache = (layer, h_src, z, rows, cols, raw, alpha, dst_pos)
        return out + self.params["b"]

    def infer(self, layer: LayerSample, h_src: np.ndarray) -> np.ndarray:
        """Stateless, row-stable forward (see :func:`~repro.gnn.layers.stable_matmul`).

        The segmented softmax and the edge scatter already accumulate in
        CSR edge order per destination row, so only the dense transform
        needs :func:`~repro.gnn.layers.stable_matmul` for grouping-independent
        bits; the two score einsums are one dot product per row of ``z``,
        which no other row enters, so they are row-stable as they are.
        """
        if h_src.shape[0] != layer.n_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows for {layer.n_src} sources"
            )
        adj = layer.adj
        dst_pos = self._dst_positions(layer)
        if dst_pos is None:
            raise ValueError(
                "GATConv needs destinations inside the source frontier "
                "(sample with include_dst=True)"
            )
        z = stable_matmul(h_src, self.params["W"])
        s_src = np.einsum("ij,j->i", z, self.params["a_src"], optimize=False)
        s_dst = np.einsum("ij,j->i", z, self.params["a_dst"], optimize=False)
        rows = _row_ids(adj.indptr)
        cols = adj.indices
        raw = s_dst[dst_pos][rows] + s_src[cols]
        leaky = np.where(raw > 0, raw, _LEAK * raw)
        alpha = _segment_softmax(leaky, adj.indptr)
        out = np.zeros((layer.n_dst, z.shape[1]), z.dtype)
        np.add.at(out, rows, alpha[:, None] * z[cols])
        return out + self.params["b"]

    def backward(
        self, dy: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter gradients; return ``d(h_src)``.

        ``input_grad=False`` returns ``None`` and skips the final
        ``dz @ W.T`` (``dz`` itself feeds the parameter gradients).
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        layer, h_src, z, rows, cols, raw, alpha, dst_pos = self._cache
        n_src, out_dim = z.shape

        self.grads["b"] += dy.sum(axis=0)
        # d/d(alpha_e): dy_row . z_col
        dalpha = np.einsum("ef,ef->e", dy[rows], z[cols])
        # Softmax backward within each row segment.
        weighted = alpha * dalpha
        row_sums = np.zeros(layer.n_dst, weighted.dtype)
        np.add.at(row_sums, rows, weighted)
        dscore = alpha * (dalpha - row_sums[rows])
        # Leaky ReLU backward.
        draw = np.where(raw > 0, dscore, _LEAK * dscore)
        # raw = s_dst[dst_pos][row] + s_src[col]
        ds_src = np.zeros(n_src, draw.dtype)
        np.add.at(ds_src, cols, draw)
        ds_dst = np.zeros(n_src, draw.dtype)
        np.add.at(ds_dst, dst_pos[rows], draw)
        # z gradients: from aggregation term and from both score terms.
        dz = np.zeros_like(z)
        np.add.at(dz, cols, alpha[:, None] * dy[rows])
        dz += np.outer(ds_src, self.params["a_src"])
        dz += np.outer(ds_dst, self.params["a_dst"])
        self.grads["a_src"] += z.T @ ds_src
        self.grads["a_dst"] += z.T @ ds_dst
        self.grads["W"] += h_src.T @ dz
        if not input_grad:
            return None
        return dz @ self.params["W"].T
