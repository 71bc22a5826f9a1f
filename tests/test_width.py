"""One width: the model computes in float32 end to end, and in float64 only
when it is built that way.

The library creates its features, weights and biases in float32; every
later array — activations, the loss gradient, parameter gradients, Adam's
moments, layer-wise inference, the serving embedding slab and served
logits — takes its width from numpy's propagation over those.  Nothing may
upcast silently: one float64 scratch buffer in a layer would turn the rest
of the step into float64 (and halve the BLAS rate).  A model widened to
float64 (the gradchecks' form) must stay float64 the same way.

Checkpoints: a float64 checkpoint — every one written before the model went
float32 — loads rounded once to float32, a float32 one round-trips bit for
bit, and a non-floating array is refused naming the parameter.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.gnn.layers as layers_module
from repro.api import RunConfig
from repro.core import SageSampler
from repro.gnn import (
    Adam,
    GNNModel,
    load_model_into,
    save_model,
    softmax_cross_entropy,
)
from repro.graphs import load_dataset
from repro.pipeline import layerwise_inference
from repro.serve import ServingCluster

from tests.test_gnn import widen


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products", scale=0.1, seed=0, with_labels=True,
                        n_classes=4)


def test_library_features_are_float32(graph):
    assert graph.features.dtype == np.float32


class _AllocationWatch:
    """``numpy`` for a layer module, recording the dtype of every floating
    buffer it allocates: a float64 scratch array whose values are cast
    back on store changes no output dtype, only the bits and the speed."""

    def __init__(self):
        self.dtypes = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def _record(self, out):
        if np.issubdtype(out.dtype, np.floating):
            self.dtypes.add(out.dtype)
        return out

    def zeros(self, *args, **kwargs):
        return self._record(np.zeros(*args, **kwargs))

    def zeros_like(self, *args, **kwargs):
        return self._record(np.zeros_like(*args, **kwargs))

    def full(self, *args, **kwargs):
        return self._record(np.full(*args, **kwargs))

    def empty(self, *args, **kwargs):
        return self._record(np.empty(*args, **kwargs))


def _model(graph, conv, width):
    model = GNNModel(graph.n_features, 8, graph.n_classes, 2,
                     np.random.default_rng(0), conv=conv)
    if width == np.float64:
        for c in model.convs:
            widen(c)
    return model


@pytest.mark.parametrize("width", [np.float32, np.float64])
@pytest.mark.parametrize("conv", ["sage", "gcn"])
def test_no_silent_upcast(graph, conv, width, monkeypatch):
    graph = dataclasses.replace(graph, features=graph.features.astype(width))
    model = _model(graph, conv, width)
    assert model.dtype == width
    watch = _AllocationWatch()
    monkeypatch.setattr(layers_module, "np", watch)
    rng = np.random.default_rng(1)
    batch = np.sort(rng.choice(graph.n, 16, replace=False))
    mb = SageSampler(include_dst=True).sample_bulk(
        graph.adj, [batch], (4, 3), rng
    )[0]
    x = graph.features[mb.input_frontier]

    # Training: forward, the loss gradient, backward, one Adam step.
    logits = model.forward(mb, x)
    _, dlogits = softmax_cross_entropy(logits, graph.labels[batch])
    model.backward(dlogits)
    assert logits.dtype == dlogits.dtype == width
    for name, g in model.gradients().items():
        assert g.dtype == width, name
    last = model.convs[-1]
    assert last.backward(dlogits).dtype == width  # d(h_src) of the top layer
    opt = Adam(lr=1e-2)
    opt.step(model.parameters(), model.gradients())
    for name, p in model.parameters().items():
        assert p.dtype == opt._m[name].dtype == opt._v[name].dtype == width, name

    # Inference: one conv's stateless forward, then the layer-wise pass.
    assert model.convs[0].infer(mb.layers[0], x).dtype == width
    reference = layerwise_inference(model, graph)
    assert reference.dtype == width
    assert watch.dtypes == {np.dtype(width)}  # every layer buffer, too

    # Serving through the embedding cache: the slab and the logits.
    cfg = RunConfig(dataset="products", scale=0.1, hidden=8,
                    fanout=(4, 3), embed_budget=65536.0, seed=0)
    cluster = ServingCluster(model, graph, cfg)
    cache = cluster.replicas[0].cache
    assert cache._slab.dtype == width
    assert cache.row_bytes == np.dtype(width).itemsize * 8
    verts = np.arange(0, graph.n, 7)
    for _ in range(2):  # cold, then warm from the slab
        served = cluster.serve(verts)
        assert served.dtype == width
        assert served.tobytes() == reference[verts].tobytes()
    assert cache.stats.hits > 0


# ---------------------------------------------------------------------- #
# Checkpoints
# ---------------------------------------------------------------------- #
def _sage(seed):
    return GNNModel(5, 6, 3, 2, np.random.default_rng(seed), conv="sage")


def test_float32_checkpoint_round_trips_bit_exact(tmp_path):
    m1, m2 = _sage(0), _sage(1)
    path = save_model(m1, tmp_path / "ckpt")
    with np.load(path) as data:
        assert {data[k].dtype for k in data.files} == {np.dtype(np.float32)}
    load_model_into(m2, path)
    for name, v in m1.parameters().items():
        got = m2.parameters()[name]
        assert got.dtype == np.float32 and got.tobytes() == v.tobytes(), name


def test_float64_checkpoint_loads_rounded_once(tmp_path):
    """What a checkpoint written by the float64 model holds."""
    rng = np.random.default_rng(2)
    m = _sage(0)
    wide = {k: rng.standard_normal(v.shape) for k, v in m.parameters().items()}
    path = tmp_path / "old.npz"
    np.savez_compressed(path, **{k.replace(".", "__"): v for k, v in wide.items()})
    load_model_into(m, path)
    for name, v in wide.items():
        got = m.parameters()[name]
        assert got.dtype == np.float32, name
        assert got.tobytes() == v.astype(np.float32).tobytes(), name


def test_non_float_checkpoint_array_is_refused(tmp_path):
    m = _sage(0)
    params = {k: v.copy() for k, v in m.parameters().items()}
    params["conv1.W_self"] = params["conv1.W_self"].astype(np.int64)
    path = tmp_path / "bad.npz"
    np.savez_compressed(path, **{k.replace(".", "__"): v for k, v in params.items()})
    before = {k: v.copy() for k, v in m.parameters().items()}
    with pytest.raises(ValueError, match=r"conv1\.W_self is int64"):
        load_model_into(m, path)
    for name, v in m.parameters().items():
        assert v.tobytes() == before[name].tobytes(), name
