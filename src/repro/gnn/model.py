"""Multi-layer GNN models over sampled minibatches.

A model's layer ``l`` consumes :class:`MinibatchSample.layers[l]`: it maps
the source frontier's embeddings to the destination frontier's.  The final
destination frontier is the batch itself, so the network's output is one
logit row per batch vertex — matching the paper's pipeline (Figure 3).
"""

from __future__ import annotations

import numpy as np

from ..core.frontier import LayerSample, MinibatchSample
from ..sparse import CSRMatrix, spmm_flops
from .activations import make_activation
from .layers import GCNConv, SAGEConv

__all__ = ["GNNModel", "CONVS", "full_graph_sample", "propagation_flops"]

#: Convolution layer classes by ``conv`` name (what ``RunConfig.conv`` and
#: a sampler's ``default_conv`` metadata must be a key of).
CONVS: dict[str, type] = {"sage": SAGEConv, "gcn": GCNConv}


class GNNModel:
    """An L-layer GraphSAGE or GCN classifier.

    ``conv="sage"`` builds SAGEConv layers (self + neighbor terms, for
    node-wise samples that include destinations in the frontier);
    ``conv="gcn"`` builds GCNConv layers (aggregation only, suitable for
    layer-wise LADIES/FastGCN samples).
    ``activation`` names the inter-layer nonlinearity
    (:data:`repro.gnn.ACTIVATIONS`); inference paths read the configured
    instances from :attr:`acts` instead of assuming ReLU.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        n_layers: int,
        rng: np.random.Generator,
        *,
        conv: str = "sage",
        activation: str = "relu",
    ) -> None:
        if n_layers <= 0:
            raise ValueError("need at least one layer")
        conv_cls = CONVS.get(conv)
        if conv_cls is None:
            raise ValueError(
                f"unknown conv type {conv!r}; known convs: {', '.join(CONVS)}"
            )
        dims = [in_dim] + [hidden_dim] * (n_layers - 1) + [out_dim]
        self.convs = [
            conv_cls(dims[i], dims[i + 1], rng) for i in range(n_layers)
        ]
        self.acts = [make_activation(activation) for _ in range(n_layers - 1)]
        self.n_layers = n_layers

    # -------------------------------------------------------------- #
    # Parameter access
    # -------------------------------------------------------------- #
    def parameters(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every parameter."""
        return {
            f"conv{i}.{k}": v
            for i, conv in enumerate(self.convs)
            for k, v in conv.params.items()
        }

    @property
    def dtype(self) -> np.dtype:
        """The width the model computes in: its parameters' result type
        (float32 as constructed)."""
        return np.result_type(*self.parameters().values())

    def gradients(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every gradient accumulator."""
        return {
            f"conv{i}.{k}": v
            for i, conv in enumerate(self.convs)
            for k, v in conv.grads.items()
        }

    def zero_grad(self) -> None:
        for conv in self.convs:
            conv.zero_grad()

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Copy values into the model's parameters (data-parallel sync)."""
        own = self.parameters()
        for name, v in values.items():
            own[name][...] = v

    # -------------------------------------------------------------- #
    # Forward / backward
    # -------------------------------------------------------------- #
    def forward(self, sample: MinibatchSample, x_input: np.ndarray) -> np.ndarray:
        """Logits for the batch vertices.

        ``x_input`` holds feature rows for ``sample.input_frontier`` (the
        output of the feature-fetching step), in frontier order.
        """
        if len(sample.layers) != self.n_layers:
            raise ValueError(
                f"sample has {len(sample.layers)} layers for a "
                f"{self.n_layers}-layer model"
            )
        h = x_input
        for i, (conv, layer) in enumerate(zip(self.convs, sample.layers)):
            h = conv.forward(layer, h)
            if i < self.n_layers - 1:
                h = self.acts[i].forward(h)
        return h

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients.

        Returns ``None``: input features are never trainable here, so
        layer 0 runs with ``input_grad=False`` and the gradient with
        respect to them — the largest SpMM of a step — is not computed.
        """
        g = dlogits
        for i in reversed(range(self.n_layers)):
            if i < self.n_layers - 1:
                g = self.acts[i].backward(g)
            g = self.convs[i].backward(g, input_grad=i > 0)


def full_graph_sample(adj: CSRMatrix, n_layers: int) -> MinibatchSample:
    """A 'sample' covering the whole graph (full-neighbor inference).

    Every layer uses the complete adjacency with ``src = dst = V``; used to
    evaluate test accuracy without sampling noise (the paper's accuracy
    checks run full-fanout test inference).
    """
    n = adj.shape[0]
    ids = np.arange(n, dtype=np.int64)
    layers = [LayerSample(adj, ids, ids) for _ in range(n_layers)]
    return MinibatchSample(ids, layers)


def propagation_flops(sample: MinibatchSample, dims: list[int]) -> float:
    """Estimated forward+backward flops of one minibatch.

    Per layer: the aggregation SpMM (``2 nnz f_in``) plus the dense
    transforms (``2 n_dst f_in f_out``, twice for SAGE's self+neighbor
    weights), tripled to cover the backward pass.
    """
    if len(dims) != len(sample.layers) + 1:
        raise ValueError("dims must list one width per frontier")
    total = 0.0
    for layer, f_in, f_out in zip(sample.layers, dims[:-1], dims[1:]):
        total += spmm_flops(layer.adj, f_in)
        total += 2.0 * 2.0 * layer.n_dst * f_in * f_out
    return 3.0 * total
