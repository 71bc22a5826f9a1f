"""Extension features beyond the paper's core: graph-wise sampling,
debiased LADIES, layer-wise inference, graph serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GraphSaintRWSampler, LadiesSampler
from repro.gnn import GNNModel, full_graph_sample
from repro.graphs import load_dataset, load_graph, save_graph
from repro.pipeline import layerwise_inference
from repro.sparse import CSRMatrix, spmm

from tests.test_gnn import widen


class TestGraphSaintRW:
    """The third sampler taxonomy (graph-wise), built on Algorithm-1 pieces."""

    def test_subgraph_is_induced(self, small_adj, batches, rng):
        sampler = GraphSaintRWSampler(walk_length=3)
        out = sampler.sample_bulk(small_adj, batches[:3], (2, 2), rng)
        dense = small_adj.to_dense()
        for mb in out:
            layer = mb.layers[0]
            # The subgraph layer contains EVERY edge among visited vertices.
            sub = dense[np.ix_(layer.dst_ids, layer.src_ids)]
            assert np.allclose(layer.adj.to_dense(), sub)

    def test_batch_vertices_in_subgraph(self, small_adj, batches, rng):
        out = GraphSaintRWSampler(walk_length=2).sample_bulk(
            small_adj, batches[:3], (2,), rng
        )
        for mb in out:
            assert np.all(np.isin(mb.batch, mb.layers[0].src_ids))
            assert np.array_equal(mb.layers[-1].dst_ids, mb.batch)

    def test_walk_reaches_beyond_roots(self, small_adj, rng):
        batch = np.arange(8)
        out = GraphSaintRWSampler(walk_length=4).sample_bulk(
            small_adj, [batch], (2,), rng
        )
        # With degree-8+ vertices and 4 steps, walks must leave the roots.
        assert out[0].layers[0].n_src > len(batch)

    def test_longer_walks_visit_more(self, small_adj, rng):
        batch = np.arange(16)
        sizes = []
        for length in (1, 8):
            out = GraphSaintRWSampler(walk_length=length).sample_bulk(
                small_adj, [batch], (2,), np.random.default_rng(0)
            )
            sizes.append(out[0].layers[0].n_src)
        assert sizes[1] > sizes[0]

    def test_model_trains_on_subgraph(self, small_adj, rng):
        out = GraphSaintRWSampler(walk_length=3).sample_bulk(
            small_adj, [np.arange(16)], (2, 2), rng
        )
        mb = out[0]
        model = GNNModel(8, 16, 3, 2, rng, conv="gcn")
        logits = model.forward(mb, rng.random((mb.input_frontier.size, 8)))
        assert logits.shape == (16, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphSaintRWSampler(walk_length=0)

    def test_isolated_roots_stay_in_place(self, rng):
        adj = CSRMatrix.zeros((10, 10))
        out = GraphSaintRWSampler(walk_length=2).sample_bulk(
            adj, [np.array([3, 7])], (2,), rng
        )
        assert np.array_equal(out[0].layers[0].src_ids, [3, 7])


class TestDebiasedLadies:
    def test_unbiased_aggregation(self, rng):
        """With 1/(s p_v) reweighting, E[A_S x_S] approximates A_agg x.

        This is the Zou et al. estimator property.  The 1/(s p_v) weights
        assume inclusion probabilities of about s p_v, which holds when
        s p_v << 1 — so the check uses a small s against a wide aggregated
        neighborhood, and compares the Monte-Carlo mean to the exact
        aggregation in relative L2 norm.
        """
        n = 256
        dense = (np.random.default_rng(0).random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(dense, 0)
        adj = CSRMatrix.from_dense(dense)
        batch = np.arange(8)
        x = np.ones(n)  # row-sum target keeps Monte-Carlo variance low
        exact = dense[batch] @ x

        sampler = LadiesSampler(debias=True)
        runs = 600
        acc = np.zeros(len(batch))
        for seed in range(runs):
            mb = sampler.sample_bulk(
                adj, [batch], (8,), np.random.default_rng(seed)
            )[0]
            layer = mb.layers[0]
            acc += spmm(layer.adj, x[layer.src_ids])
        estimate = acc / runs
        rel_err = np.linalg.norm(estimate - exact) / np.linalg.norm(exact)
        assert rel_err < 0.1

        # And the plain (biased) sample is far off the same target — the
        # reweighting is what closes the gap.
        plain = LadiesSampler(debias=False)
        acc_plain = np.zeros(len(batch))
        for seed in range(runs):
            mb = plain.sample_bulk(
                adj, [batch], (8,), np.random.default_rng(seed)
            )[0]
            layer = mb.layers[0]
            acc_plain += spmm(layer.adj, x[layer.src_ids])
        rel_err_plain = (
            np.linalg.norm(acc_plain / runs - exact) / np.linalg.norm(exact)
        )
        assert rel_err < rel_err_plain

    def test_biased_version_underestimates(self, rng):
        """Without reweighting the plain sampled aggregation is biased low
        (only s of the neighborhood contributes)."""
        n = 64
        dense = (np.random.default_rng(0).random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(dense, 0)
        adj = CSRMatrix.from_dense(dense)
        batch = np.arange(8)
        x = np.ones(n)
        exact = dense[batch] @ x

        plain = LadiesSampler(debias=False)
        acc = np.zeros(len(batch))
        runs = 100
        for seed in range(runs):
            mb = plain.sample_bulk(
                adj, [batch], (8,), np.random.default_rng(seed)
            )[0]
            layer = mb.layers[0]
            acc += spmm(layer.adj, x[layer.src_ids])
        assert np.all(acc / runs < exact)

    def test_debias_requires_pure_samples(self):
        with pytest.raises(ValueError):
            LadiesSampler(debias=True, include_dst=True)

    def test_debias_layer_rejects_zero_probability(self, rng):
        from repro.core.frontier import LayerSample
        from repro.sparse import sprand

        adj = sprand(2, 3, 0.9, rng)
        layer = LayerSample(adj, np.arange(3), np.arange(2))
        with pytest.raises(ValueError):
            LadiesSampler.debias_layer(layer, np.zeros(10), 3)


class TestLayerwiseInference:
    def test_matches_full_forward(self, labeled_graph, rng):
        model = GNNModel(
            labeled_graph.n_features, 16, labeled_graph.n_classes, 2, rng
        )
        full = model.forward(
            full_graph_sample(labeled_graph.adj, 2), labeled_graph.features
        )
        for bs in (37, 128, 10**6):
            fast = layerwise_inference(model, labeled_graph, batch_size=bs)
            assert np.allclose(full, fast)

    def test_three_layer_model(self, labeled_graph, rng):
        model = GNNModel(
            labeled_graph.n_features, 8, labeled_graph.n_classes, 3, rng,
            conv="gcn",
        )
        full = model.forward(
            full_graph_sample(labeled_graph.adj, 3), labeled_graph.features
        )
        fast = layerwise_inference(model, labeled_graph, batch_size=64)
        assert np.allclose(full, fast)

    def test_validation(self, labeled_graph, rng):
        model = GNNModel(labeled_graph.n_features, 8, 2, 1, rng)
        with pytest.raises(ValueError):
            layerwise_inference(model, labeled_graph, batch_size=0)

    def test_batch_size_larger_than_n(self, labeled_graph, rng):
        """One batch covering the whole graph: a single row block."""
        model = GNNModel(
            labeled_graph.n_features, 8, labeled_graph.n_classes, 2, rng
        )
        whole = layerwise_inference(
            model, labeled_graph, batch_size=labeled_graph.n + 1
        )
        full = model.forward(
            full_graph_sample(labeled_graph.adj, 2), labeled_graph.features
        )
        assert whole.shape == (labeled_graph.n, labeled_graph.n_classes)
        assert np.allclose(full, whole)

    def test_batch_size_one(self, rng):
        """Degenerate one-row batches still reproduce the default output
        bit-for-bit (the row-stable infer path is grouping-independent)."""
        small = load_dataset(
            "products", scale=0.05, seed=1, with_labels=True, n_classes=4
        )
        model = GNNModel(small.n_features, 8, small.n_classes, 2, rng)
        one = layerwise_inference(model, small, batch_size=1)
        default = layerwise_inference(model, small, batch_size=4096)
        assert np.array_equal(one, default)

    def test_gat_model_parity(self, labeled_graph, rng):
        """Attention models go through the same schedule exactly.

        Training's plain ``@`` and inference's ``stable_matmul`` associate
        differently, so the two agree to the width's precision: the
        ``allclose`` runs on a float64-widened model.  At the model's
        float32, layer-wise inference stays float32 and bit-stable across
        batch sizes."""
        model = GNNModel(
            labeled_graph.n_features, 8, labeled_graph.n_classes, 2, rng,
            conv="gat",
        )
        narrow = layerwise_inference(model, labeled_graph, batch_size=97)
        assert narrow.dtype == np.float32
        assert narrow.tobytes() == layerwise_inference(
            model, labeled_graph, batch_size=513
        ).tobytes()
        for conv in model.convs:
            widen(conv)
        full = model.forward(
            full_graph_sample(labeled_graph.adj, 2), labeled_graph.features
        )
        fast = layerwise_inference(model, labeled_graph, batch_size=97)
        assert np.allclose(full, fast)
        assert np.array_equal(
            fast, layerwise_inference(model, labeled_graph, batch_size=513)
        )

    @pytest.mark.parametrize("activation", ["tanh", "leaky_relu", "identity"])
    def test_non_relu_activation_is_exact(self, labeled_graph, rng, activation):
        """The configured activation is applied between layers — non-ReLU
        models match their own single-shot forward (the historical code
        hard-coded ReLU here)."""
        model = GNNModel(
            labeled_graph.n_features, 8, labeled_graph.n_classes, 3, rng,
            activation=activation,
        )
        full = model.forward(
            full_graph_sample(labeled_graph.adj, 3), labeled_graph.features
        )
        fast = layerwise_inference(model, labeled_graph, batch_size=64)
        assert np.allclose(full, fast)

    def test_bit_stable_across_batch_sizes(self, labeled_graph, rng):
        model = GNNModel(
            labeled_graph.n_features, 8, labeled_graph.n_classes, 2, rng
        )
        outs = [
            layerwise_inference(model, labeled_graph, batch_size=bs)
            for bs in (37, 512, 10**6)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])


class TestGraphIO:
    def test_roundtrip(self, tmp_path, labeled_graph):
        path = tmp_path / "g.npz"
        save_graph(labeled_graph, path)
        back = load_graph(path)
        assert back.name == labeled_graph.name
        assert back.adj.equal(labeled_graph.adj)
        assert np.allclose(back.features, labeled_graph.features)
        assert np.array_equal(back.labels, labeled_graph.labels)
        assert np.array_equal(back.train_idx, labeled_graph.train_idx)

    def test_roundtrip_without_features(self, tmp_path, small_adj):
        from repro.graphs import Graph

        g = Graph("bare", small_adj, train_idx=np.arange(5))
        path = tmp_path / "bare.npz"
        save_graph(g, path)
        back = load_graph(path)
        assert back.features is None and back.labels is None
        assert back.adj.equal(small_adj)

    def test_version_check(self, tmp_path, small_adj):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez(
            path,
            version=np.array([99]),
            name=np.array(["x"]),
            indptr=small_adj.indptr,
            indices=small_adj.indices,
            data=small_adj.data,
            shape=np.array(small_adj.shape),
            train_idx=np.empty(0, dtype=np.int64),
            val_idx=np.empty(0, dtype=np.int64),
            test_idx=np.empty(0, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            load_graph(path)


class TestLoadGraphValidates:
    """A corrupted file fails in ``load_graph``, naming the file and what
    is broken, not later inside a kernel."""

    def _corrupt(self, tmp_path, graph, **replace):
        path = save_graph(graph, tmp_path / "g.npz")
        with np.load(path) as f:
            arrays = {key: f[key] for key in f.files}
        arrays.update(replace)
        np.savez(path, **arrays)
        return path

    def test_unsorted_row(self, tmp_path, labeled_graph):
        adj = labeled_graph.adj
        row = int(np.argmax(adj.nnz_per_row()))
        lo, hi = adj.indptr[row], adj.indptr[row + 1]
        indices = adj.indices.copy()
        indices[lo:hi] = indices[lo:hi][::-1]
        path = self._corrupt(tmp_path, labeled_graph, indices=indices)
        with pytest.raises(ValueError, match="strictly increasing") as err:
            load_graph(path)
        assert str(path) in str(err.value)

    def test_truncated_indptr(self, tmp_path, labeled_graph):
        path = self._corrupt(
            tmp_path, labeled_graph, indptr=labeled_graph.adj.indptr[:-7]
        )
        with pytest.raises(ValueError, match="indptr length") as err:
            load_graph(path)
        assert str(path) in str(err.value)

    def test_out_of_range_test_idx(self, tmp_path, labeled_graph):
        test_idx = labeled_graph.test_idx.copy()
        test_idx[-1] = labeled_graph.n
        path = self._corrupt(tmp_path, labeled_graph, test_idx=test_idx)
        with pytest.raises(ValueError, match=r"test_idx .*outside \[0, ") as err:
            load_graph(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["features", "labels"])
    def test_one_row_per_vertex(self, tmp_path, labeled_graph, key):
        short = getattr(labeled_graph, key)[:-1]
        path = self._corrupt(tmp_path, labeled_graph, **{key: short})
        with pytest.raises(ValueError, match="per vertex") as err:
            load_graph(path)
        assert str(path) in str(err.value)
