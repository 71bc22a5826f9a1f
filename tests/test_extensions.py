"""Extension features beyond the paper's core: debiased LADIES,
layer-wise inference, graph and checkpoint serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LadiesSampler
from repro.gnn import (
    ACTIVATIONS,
    GNNModel,
    full_graph_sample,
    load_model_into,
    save_model,
)
from repro.graphs import load_dataset, load_graph, save_graph
from repro.pipeline import layerwise_inference
from repro.sparse import CSRMatrix, spmm


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


class _Tanh:
    """Test-only activation; inference paths call only ``apply``."""

    apply = staticmethod(np.tanh)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


class _LeakyReLU:
    """Test-only activation with a fixed 0.01 negative slope."""

    @staticmethod
    def apply(x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.01 * x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


_TEST_ACTIVATIONS = {"tanh": _Tanh, "leaky_relu": _LeakyReLU}


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

    @pytest.mark.parametrize("activation", ["tanh", "leaky_relu", "identity"])
    def test_non_relu_activation_is_exact(
        self, labeled_graph, rng, activation, monkeypatch
    ):
        """The configured activation is applied between layers — non-ReLU
        models match their own single-shot forward (the historical code
        hard-coded ReLU here).  ``tanh`` and ``leaky_relu`` are registered
        for this test only, so it also covers activations the library does
        not ship."""
        if activation in _TEST_ACTIVATIONS:
            monkeypatch.setitem(
                ACTIVATIONS, activation, _TEST_ACTIVATIONS[activation]
            )
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


class TestCheckpointErrors:
    """A checkpoint that does not fit fails in ``load_model_into`` with a
    ``ValueError`` naming the file, not deep inside numpy or zipfile."""

    @staticmethod
    def _sage():
        return GNNModel(5, 6, 3, 2, np.random.default_rng(0), conv="sage")

    def test_architecture_mismatch_rejected(self, tmp_path, rng):
        path = save_model(GNNModel(6, 8, 3, 2, rng), tmp_path / "model.npz")
        for wrong in (GNNModel(6, 8, 3, 3, rng), GNNModel(6, 16, 3, 2, rng)):
            with pytest.raises(ValueError) as err:
                load_model_into(wrong, path)
            assert str(path) in str(err.value)

    def test_other_conv_names_missing_and_unexpected(self, tmp_path):
        """A two-layer attention-conv checkpoint (``W``, ``a_src``,
        ``a_dst``, ``b`` per layer) loaded into a SAGE model."""
        rng = np.random.default_rng(1)
        arrays = {}
        for i, (fan_in, fan_out) in enumerate([(5, 6), (6, 3)]):
            arrays[f"conv{i}__W"] = rng.random((fan_in, fan_out))
            for name in ("a_src", "a_dst", "b"):
                arrays[f"conv{i}__{name}"] = rng.random(fan_out)
        path = tmp_path / "attention.npz"
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_model_into(self._sage(), path)
        message = str(err.value)
        assert str(path) in message
        missing, unexpected = message.split("unexpected")
        assert "missing" in missing
        assert "conv0.W_neigh" in missing and "conv1.W_self" in missing
        assert "conv0.a_src" not in missing and "conv0.a_src" in unexpected
        assert "conv0.W_self" not in unexpected

    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_truncated_or_corrupt_file(self, tmp_path, damage):
        """Half the file (no zip directory left), or eight flipped bytes
        inside the first compressed member (zlib fails on reading it)."""
        path = save_model(self._sage(), tmp_path / "model.npz")
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            raw = raw[: len(raw) // 2]
        else:
            raw[100:108] = bytes(b ^ 0xFF for b in raw[100:108])
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated or corrupt") as err:
            load_model_into(self._sage(), path)
        assert str(path) in str(err.value)

    def test_text_file(self, tmp_path):
        path = tmp_path / "notes.npz"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="not a .npz archive") as err:
            load_model_into(self._sage(), path)
        assert str(path) in str(err.value)
        assert "pickled" not in str(err.value)
