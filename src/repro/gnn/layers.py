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

__all__ = ["SAGEConv", "GCNConv", "glorot", "stable_matmul"]

#: Rows per GEMM: every product :func:`stable_matmul` runs is
#: ``(_ROWS, k) @ (k, n)``, whatever the row count of its operand.
_ROWS = 32


def glorot(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization, in the model's float32."""
    limit = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def stable_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` whose rows' bits do not depend on how rows are grouped.

    Plain ``@`` lets numpy and BLAS pick gemv or GEMM, and a blocking, from
    the row count ``m``, so ``(x @ w)[r]`` and ``x[r] @ w`` can differ in
    the last bits.  Inference paths that must produce identical logits
    however vertices are batched (layer-wise inference, online serving with
    micro-batching and embedding caches) route their dense transforms
    through this function; training keeps plain ``@``.  The contract:

    * **Order.**  A row's result is that row of one ``(32, k) @ (k, n)``
      BLAS GEMM: ``x`` goes in blocks of :data:`_ROWS` rows, the tail
      zero-padded to a full block.
    * **Independence.**  ``stable_matmul(x[r], w)`` is
      ``stable_matmul(x, w)[r]`` bitwise for any index array ``r``.
    * **Width.**  The blocks are padded in ``np.result_type(x, w)``, the
      width ``x @ w`` computes in: float32 (``sgemm``) for the model's
      float32 operands, float64 if either operand is float64.
    * **Scope.**  The bits are identical per BLAS build and CPU kernel, and
      ``allclose`` across them; the pinned digests skip themselves when
      ``tests/test_gnn.py::_gemm_probe`` sees another.
    """
    m, k = x.shape
    blocks = np.zeros((-(-m // _ROWS), _ROWS, k), np.result_type(x, w))
    blocks.reshape(-1, k)[:m] = x
    return (blocks @ w).reshape(-1, w.shape[1])[:m]


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
            "b": np.zeros(out_dim, np.float32),
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
        ``d(h_src)`` needs: both ``dy @ W.T`` products, the transposed SpMM
        and the self-term scatter.
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
        dh_src = spmm(adj, dy @ self.params["W_neigh"].T, transpose=True)
        if h_dst is not None:
            d_self = dy @ self.params["W_self"].T
            if np.bincount(dst_pos).max(initial=0) <= 1:
                # Distinct positions (distinct dst_ids into the sorted unique
                # src): one add per row, np.add.at's bits without its loop.
                dh_src[dst_pos] += d_self
            else:  # a destination listed twice gets both rows, in order
                np.add.at(dh_src, dst_pos, d_self)
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
            "b": np.zeros(out_dim, np.float32),
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

        ``input_grad=False`` returns ``None`` and skips ``dy @ W.T`` and
        the transposed SpMM.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        adj, agg = self._cache
        self.grads["W"] += agg.T @ dy
        self.grads["b"] += dy.sum(axis=0)
        if not input_grad:
            return None
        return spmm(adj, dy @ self.params["W"].T, transpose=True)

    def infer(self, layer: LayerSample, h_src: np.ndarray) -> np.ndarray:
        """Stateless, row-stable forward (see :func:`stable_matmul`)."""
        if h_src.shape[0] != layer.n_src:
            raise ValueError(
                f"h_src has {h_src.shape[0]} rows for {layer.n_src} sources"
            )
        agg = spmm(self._mean_adj(layer), h_src)
        return stable_matmul(agg, self.params["W"]) + self.params["b"]
