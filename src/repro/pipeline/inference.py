"""Layer-wise minibatched full-graph inference.

Test-time GNN evaluation is usually done without sampling (the paper's
accuracy checks use full fanout at test time).  Materializing all L layers
for the whole graph at once costs L x n x f memory; the standard trick
(Hamilton et al., 2017) computes ONE layer at a time for all vertices in
row batches, so peak memory is one layer's activations plus one batch's
working set.

This module implements that schedule on top of the same
:class:`~repro.gnn.model.GNNModel` used for training.  Two exactness
properties are load-bearing (and tested):

* it applies the model's *configured* inter-layer activation
  (``model.acts``) rather than assuming ReLU, so an ``identity`` model
  gets exact full-graph inference too;
* it runs through the convolutions' row-stable ``infer`` path, whose dense
  transforms are fixed-shape 32-row BLAS GEMMs
  (:func:`~repro.gnn.layers.stable_matmul`), so the output is bit-identical
  for every ``batch_size`` — which is what lets the online serving engine
  (:mod:`repro.serve`) promise logits bit-identical to this function no
  matter how requests are micro-batched.
"""

from __future__ import annotations

import numpy as np

from ..core.frontier import LayerSample
from ..gnn.model import GNNModel
from ..graphs import Graph

__all__ = ["layerwise_inference"]


def layerwise_inference(
    model: GNNModel,
    graph: Graph,
    *,
    batch_size: int = 4096,
) -> np.ndarray:
    """Full-graph logits, computed one layer at a time in row batches.

    Equivalent to ``model.forward(full_graph_sample(...), features)`` but
    with bounded peak memory; use for graphs whose L-layer activation
    pyramid would not fit at once.
    """
    if graph.features is None:
        raise ValueError("inference needs node features")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    n = graph.n
    ids = np.arange(n, dtype=np.int64)
    h = graph.features
    for layer_idx, conv in enumerate(model.convs):
        outputs = []
        for start in range(0, n, batch_size):
            stop = min(n, start + batch_size)
            block = graph.adj.row_block(start, stop)
            layer = LayerSample(block, ids, ids[start:stop])
            outputs.append(conv.infer(layer, h))
        h = np.vstack(outputs)
        if layer_idx < model.n_layers - 1:
            # The model's configured activation, via the stateless apply()
            # so a training step's cached backward masks stay untouched.
            h = model.acts[layer_idx].apply(h)
    return h
