"""GAT attention layer: gradcheck, attention semantics, pipeline use."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SageSampler
from repro.core.frontier import LayerSample
from repro.gnn import GATConv, GNNModel, load_model_into, save_model
from repro.sparse import CSRMatrix

from tests.test_gnn import check_input_grad_false, make_layer, numeric_grad, widen


class TestGATGradients:
    def test_gradcheck_all_parameters(self, rng):
        layer = make_layer(rng, include_dst=True)
        conv = widen(GATConv(4, 3, rng))
        h = rng.random((layer.n_src, 4))
        target = rng.random((layer.n_dst, 3))

        def loss():
            return 0.5 * np.sum((conv.forward(layer, h) - target) ** 2)

        conv.zero_grad()
        dy = conv.forward(layer, h) - target
        dh = conv.backward(dy)
        for name in conv.params:
            num = numeric_grad(loss, conv.params[name])
            assert np.allclose(conv.grads[name], num, atol=1e-5), name
        assert np.allclose(dh, numeric_grad(loss, h), atol=1e-5)

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            GATConv(2, 2, rng).backward(np.ones((1, 2)))

    def test_input_grad_false_leaves_parameter_grads_unmoved(self, rng):
        layer = make_layer(rng, include_dst=True)
        conv = GATConv(4, 3, rng)
        h = rng.random((layer.n_src, 4))
        check_input_grad_false(conv, layer, h, rng.random((layer.n_dst, 3)))


class TestGATSemantics:
    def test_attention_weights_sum_to_one(self, rng):
        """Output of a row equals a convex combination of transformed srcs."""
        layer = make_layer(rng, include_dst=True)
        conv = GATConv(4, 3, rng)
        conv.params["b"][...] = 0.0
        h = rng.random((layer.n_src, 4))
        out = conv.forward(layer, h)
        z = h @ conv.params["W"]
        # Each output row must lie in the convex hull of its neighbors' z:
        # check the constant-feature case exactly.
        h1 = np.ones((layer.n_src, 4))
        out1 = conv.forward(layer, h1)
        z1 = h1 @ conv.params["W"]
        assert np.allclose(out1, z1[: layer.n_dst] * 0 + z1[0])

    def test_requires_dst_in_frontier(self, rng):
        layer = make_layer(rng, include_dst=False)
        conv = GATConv(4, 3, rng)
        with pytest.raises(ValueError):
            conv.forward(layer, rng.random((layer.n_src, 4)))

    def test_shape_validation(self, rng):
        layer = make_layer(rng, include_dst=True)
        conv = GATConv(4, 3, rng)
        with pytest.raises(ValueError):
            conv.forward(layer, rng.random((layer.n_src + 2, 4)))

    def test_in_model_on_sampled_batches(self, small_adj, rng):
        batch = rng.choice(small_adj.shape[0], 16, replace=False)
        mb = SageSampler().sample_bulk(small_adj, [batch], (4, 3), rng)[0]
        model = GNNModel(8, 16, 5, 2, rng, conv="gat")
        logits = model.forward(mb, rng.random((mb.input_frontier.size, 8)))
        assert logits.shape == (16, 5)
        # Gradients flow.
        model.zero_grad()
        model.backward(np.ones_like(logits))
        assert any(np.abs(g).sum() > 0 for g in model.gradients().values())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, rng):
        m1 = GNNModel(6, 8, 3, 2, np.random.default_rng(0), conv="gat")
        path = tmp_path / "model.npz"
        save_model(m1, path)
        m2 = GNNModel(6, 8, 3, 2, np.random.default_rng(1), conv="gat")
        load_model_into(m2, path)
        for a, b in zip(m1.parameters().values(), m2.parameters().values()):
            assert np.allclose(a, b)

    def test_architecture_mismatch_rejected(self, tmp_path, rng):
        m1 = GNNModel(6, 8, 3, 2, rng)
        path = tmp_path / "model.npz"
        save_model(m1, path)
        wrong_depth = GNNModel(6, 8, 3, 3, rng)
        with pytest.raises(ValueError):
            load_model_into(wrong_depth, path)
        wrong_width = GNNModel(6, 16, 3, 2, rng)
        with pytest.raises(ValueError):
            load_model_into(wrong_width, path)
