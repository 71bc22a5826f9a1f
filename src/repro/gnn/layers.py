"""GNN layers with explicit forward/backward (numpy).

These stand in for the PyG layers the paper trains with (section 8.1.3 uses
PyG's 3-layer SAGE).  Each layer computes embeddings for a sampled layer's
*destination* vertices from its *source* embeddings — the bipartite
formulation produced by :class:`repro.core.frontier.LayerSample`.
"""

from __future__ import annotations

import numpy as np

from ..core.frontier import LayerSample
from ..sparse import CSRMatrix, row_normalize, spmm

__all__ = ["Linear", "SAGEConv", "GCNConv", "glorot", "stable_matmul"]


def glorot(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-limit, limit, size=shape)


def stable_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` with row-count-independent bit patterns.

    BLAS GEMM picks its blocking (and therefore its rounding) from the row
    count ``m``, so ``(x @ w)[rows]`` and ``x[rows] @ w`` can differ in the
    last bits.  Inference paths that must produce identical logits no
    matter how vertices are grouped into batches (layer-wise inference,
    online serving with micro-batching and embedding caches) route their
    dense transforms through this einsum, whose per-row accumulation order
    depends only on the inner dimension.  Training keeps plain ``@``.
    """
    return np.einsum("ij,jk->ik", x, w, optimize=False)


class Linear:
    """Dense affine layer ``y = x W + b``."""

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, *, bias: bool = True
    ) -> None:
        self.params = {"W": glorot((in_dim, out_dim), rng)}
        if bias:
            self.params["b"] = np.zeros(out_dim)
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.params["W"]
        if "b" in self.params:
            out = out + self.params["b"]
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grads["W"] += self._x.T @ dy
        if "b" in self.params:
            self.grads["b"] += dy.sum(axis=0)
        return dy @ self.params["W"].T

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)


class _ConvBase:
    """Shared bookkeeping for graph convolutions."""

    params: dict[str, np.ndarray]
    grads: dict[str, np.ndarray]

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    @staticmethod
    def _mean_adj(layer: LayerSample) -> CSRMatrix:
        """Row-normalized adjacency: mean aggregation over sampled neighbors."""
        return row_normalize(layer.adj)

    @staticmethod
    def _dst_positions(layer: LayerSample) -> np.ndarray | None:
        """Positions of destination vertices inside the source frontier.

        Present only when the sampler included destinations in the frontier
        (``include_dst=True``); otherwise the layer has no self term.
        """
        src = layer.src_ids
        pos = np.searchsorted(src, layer.dst_ids)
        pos = np.clip(pos, 0, max(0, len(src) - 1))
        if len(src) and np.array_equal(src[pos], layer.dst_ids):
            return pos
        return None


class SAGEConv(_ConvBase):
    """GraphSAGE convolution with mean aggregation.

    ``h_dst' = h_dst W_self + mean_{u in sampled N(dst)} h_u W_neigh + b``.
    The self term is dropped when destinations are absent from the source
    frontier (pure paper-form samples).
    """

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        self.params = {
            "W_self": glorot((in_dim, out_dim), rng),
            "W_neigh": glorot((in_dim, out_dim), rng),
            "b": np.zeros(out_dim),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache: tuple | None = None

    def forward(self, layer: LayerSample, h_src: np.ndarray) -> np.ndarray:
        if h_src.shape[0] != layer.n_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows for {layer.n_src} sources"
            )
        adj = self._mean_adj(layer)
        neigh = spmm(adj, h_src)
        dst_pos = self._dst_positions(layer)
        h_dst = h_src[dst_pos] if dst_pos is not None else None
        self._cache = (adj, h_src, neigh, h_dst, dst_pos)
        out = neigh @ self.params["W_neigh"] + self.params["b"]
        if h_dst is not None:
            out = out + h_dst @ self.params["W_self"]
        return out

    def backward(
        self, dy: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter gradients; return ``d(h_src)``.

        ``input_grad=False`` returns ``None`` and skips everything only
        ``d(h_src)`` needs: the adjacency transpose, both ``dy @ W.T``
        products, the transposed SpMM and the self-term scatter.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        adj, h_src, neigh, h_dst, dst_pos = self._cache
        self.grads["W_neigh"] += neigh.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        if h_dst is not None:
            self.grads["W_self"] += h_dst.T @ dy
        if not input_grad:
            return None
        dh_src = spmm(adj.transpose(), dy @ self.params["W_neigh"].T)
        if h_dst is not None:
            np.add.at(dh_src, dst_pos, dy @ self.params["W_self"].T)
        return dh_src

    def infer(self, layer: LayerSample, h_src: np.ndarray) -> np.ndarray:
        """Stateless, row-stable forward (see :func:`stable_matmul`)."""
        if h_src.shape[0] != layer.n_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows for {layer.n_src} sources"
            )
        neigh = spmm(self._mean_adj(layer), h_src)
        out = stable_matmul(neigh, self.params["W_neigh"]) + self.params["b"]
        dst_pos = self._dst_positions(layer)
        if dst_pos is not None:
            out = out + stable_matmul(h_src[dst_pos], self.params["W_self"])
        return out


class GCNConv(_ConvBase):
    """GCN-style convolution: ``h_dst' = norm(A) h_src W + b``.

    Used for layer-wise samplers (LADIES/FastGCN) whose samples have no
    guaranteed self edges; normalization is the mean over sampled sources.
    """

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        self.params = {
            "W": glorot((in_dim, out_dim), rng),
            "b": np.zeros(out_dim),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._cache: tuple | None = None

    def forward(self, layer: LayerSample, h_src: np.ndarray) -> np.ndarray:
        if h_src.shape[0] != layer.n_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows for {layer.n_src} sources"
            )
        adj = self._mean_adj(layer)
        agg = spmm(adj, h_src)
        self._cache = (adj, agg)
        return agg @ self.params["W"] + self.params["b"]

    def backward(
        self, dy: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate parameter gradients; return ``d(h_src)``.

        ``input_grad=False`` returns ``None`` and skips the adjacency
        transpose, ``dy @ W.T`` and the transposed SpMM.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        adj, agg = self._cache
        self.grads["W"] += agg.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        if not input_grad:
            return None
        return spmm(adj.transpose(), dy @ self.params["W"].T)

    def infer(self, layer: LayerSample, h_src: np.ndarray) -> np.ndarray:
        """Stateless, row-stable forward (see :func:`stable_matmul`)."""
        if h_src.shape[0] != layer.n_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows for {layer.n_src} sources"
            )
        agg = spmm(self._mean_adj(layer), h_src)
        return stable_matmul(agg, self.params["W"]) + self.params["b"]
