"""GNN substrate: numerical gradient checks, losses, optimizers, metrics."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LayerSample, MinibatchSample, SageSampler
from repro.gnn import (
    Adam,
    GCNConv,
    GNNModel,
    ReLU,
    accuracy,
    full_graph_sample,
    glorot,
    propagation_flops,
    softmax,
    softmax_cross_entropy,
)
from repro.sparse import CSRMatrix, sprand


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        hi = f()
        x[idx] = old - eps
        lo = f()
        x[idx] = old
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def widen(conv):
    """``conv`` with float64 parameters and gradient buffers.

    The library builds float32 convs; the finite-difference checks run
    through the same layer code at float64, the width their ``eps`` and
    tolerances are set for (numpy's propagation keeps every intermediate
    float64 once parameters and inputs are)."""
    conv.params = {k: v.astype(np.float64) for k, v in conv.params.items()}
    conv.grads = {k: np.zeros_like(v) for k, v in conv.params.items()}
    return conv


def make_layer(rng, n_dst=3, n_src=5, include_dst=True):
    """A small random bipartite LayerSample with dst ⊆ src when asked."""
    dst = np.array([2, 4, 6])[:n_dst]
    src = np.union1d(dst, np.array([1, 3, 9]))[:n_src] if include_dst else np.arange(
        10, 10 + n_src
    )
    dense = (rng.random((n_dst, len(src))) < 0.6).astype(float)
    dense[0, 0] = 1.0  # no empty first row
    return LayerSample(CSRMatrix.from_dense(dense), src, dst)


def check_input_grad_false(conv, layer, h, dy):
    """``backward(dy, input_grad=False)`` returns ``None`` and accumulates the
    same parameter-gradient bytes as the default run from the same forward."""
    conv.zero_grad()
    conv.forward(layer, h)
    assert conv.backward(dy).shape == h.shape
    full = {k: g.tobytes() for k, g in conv.grads.items()}
    conv.zero_grad()
    assert conv.backward(dy, input_grad=False) is None
    assert {k: g.tobytes() for k, g in conv.grads.items()} == full
    assert any(np.frombuffer(b).any() for b in full.values())


def test_glorot_range(rng):
    w = glorot((100, 100), rng)
    limit = np.sqrt(6 / 200)
    assert np.all(np.abs(w) <= limit)


class TestActivations:
    def test_relu(self):
        r = ReLU()
        x = np.array([[-1.0, 2.0], [0.0, -3.0]])
        assert np.allclose(r.forward(x), [[0, 2], [0, 0]])
        assert np.allclose(r.backward(np.ones_like(x)), [[0, 1], [0, 0]])
        with pytest.raises(RuntimeError):
            ReLU().backward(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_selects_are_np_where_bit_for_bit(self, dtype):
        """Every ReLU entry point selects on bit patterns; each returns
        ``np.where``'s bytes and dtype — NaN (with a payload and a sign),
        ``±0.0``, ``±inf`` and subnormals included — on a contiguous and a
        strided operand."""
        rng = np.random.default_rng(5)
        special = np.array(
            [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45,
             np.finfo(dtype).tiny, -np.finfo(dtype).max, 3.0, -2.5],
            dtype=dtype,
        )
        special.view(f"i{special.itemsize}")[1] += 1  # a payload
        grid = rng.standard_normal((9, 24)).astype(dtype)
        grid.flat[: special.size * 3 : 3] = special
        for x in (grid, grid[:, ::3], grid.T):
            dy = x[::-1] * dtype(0.5)
            mask = x > 0
            relu = ReLU()
            cases = [
                (ReLU.apply(x), np.where(mask, x, 0.0)),
                (relu.forward(x), np.where(mask, x, 0.0)),
                (relu.backward(dy), np.where(mask, dy, 0.0)),
            ]
            for got, want in cases:
                assert got.dtype == want.dtype == dtype
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestConvGradients:
    @pytest.mark.parametrize("conv_cls", [GCNConv])
    def test_gcn_gradcheck(self, conv_cls, rng):
        layer = make_layer(rng, include_dst=False)
        conv = widen(conv_cls(4, 3, rng))
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

    def test_sage_gradcheck_with_self_term(self, rng):
        from repro.gnn import SAGEConv

        layer = make_layer(rng, include_dst=True)
        conv = widen(SAGEConv(4, 3, rng))
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

    def test_sage_without_dst_drops_self_term(self, rng):
        from repro.gnn import SAGEConv

        layer = make_layer(rng, include_dst=False)
        conv = SAGEConv(4, 3, rng)
        h = rng.random((layer.n_src, 4))
        out = conv.forward(layer, h)
        # Output independent of W_self when no self positions exist.
        conv.params["W_self"][...] = 99.0
        assert np.allclose(conv.forward(layer, h), out)

    def test_sampled_dst_positions_are_unique(self, small_adj, rng):
        """Every layer a SAGE bulk hands the model has distinct ``dst_pos``
        (distinct destinations into a sorted unique frontier), so the
        backward self term scatters with one plain add per row."""
        from repro.gnn import SAGEConv

        batches = [rng.choice(small_adj.shape[0], 12, replace=False) for _ in range(3)]
        for mb in SageSampler().sample_bulk(small_adj, batches, (4, 3), rng):
            for layer in mb.layers:
                pos = SAGEConv._dst_positions(layer)
                assert pos is not None
                assert np.unique(pos).size == pos.size

    def test_sage_gradcheck_with_a_repeated_destination(self, rng):
        """A destination listed twice (a hand-built layer) gets both rows'
        self-term gradient: the scatter falls back to ``np.add.at``."""
        from repro.gnn import SAGEConv

        src, dst = np.array([1, 2, 3, 4]), np.array([2, 4, 2])
        dense = np.array([[1.0, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]])
        layer = LayerSample(CSRMatrix.from_dense(dense), src, dst)
        conv = widen(SAGEConv(4, 3, rng))
        h = rng.random((layer.n_src, 4))
        target = rng.random((layer.n_dst, 3))

        def loss():
            return 0.5 * np.sum((conv.forward(layer, h) - target) ** 2)

        conv.zero_grad()
        dh = conv.backward(conv.forward(layer, h) - target)
        assert np.allclose(dh, numeric_grad(loss, h), atol=1e-5)

    def test_shape_validation(self, rng):
        from repro.gnn import SAGEConv

        layer = make_layer(rng)
        conv = SAGEConv(4, 3, rng)
        with pytest.raises(ValueError):
            conv.forward(layer, np.ones((layer.n_src + 1, 4)))


@given(st.integers(1, 30), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_unique_scatter_is_add_at_bitwise(n_src, width, data):
    """``x[pos] += g`` on distinct positions is ``np.add.at(x, pos, g)``,
    bit for bit: one addition per touched row either way."""
    pos = np.array(
        data.draw(st.lists(st.integers(0, n_src - 1), unique=True)),
        dtype=np.int64,
    )
    floats = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0])
    x = np.array(
        data.draw(st.lists(floats, min_size=n_src * width, max_size=n_src * width))
    ).reshape(n_src, width)
    g = np.array(
        data.draw(st.lists(floats, min_size=pos.size * width, max_size=pos.size * width))
    ).reshape(pos.size, width)
    want = x.copy()
    np.add.at(want, pos, g)
    got = x.copy()
    got[pos] += g
    assert got.tobytes() == want.tobytes()


class TestInputGrad:
    """The gradient with respect to a layer's input is optional; skipping it
    must leave every parameter gradient bit-identical."""

    @pytest.mark.parametrize(
        "conv_name, include_dst",
        [("sage", True), ("sage", False), ("gcn", False)],
    )
    def test_conv_parameter_grads_unmoved(self, conv_name, include_dst, rng):
        from repro.gnn import SAGEConv

        layer = make_layer(rng, include_dst=include_dst)
        conv = {"sage": SAGEConv, "gcn": GCNConv}[conv_name](4, 3, rng)
        h = rng.random((layer.n_src, 4))
        check_input_grad_false(conv, layer, h, rng.random((layer.n_dst, 3)))

    @pytest.mark.parametrize("conv_name", ["sage", "gcn"])
    def test_model_backward_skips_layer0_propagation(
        self, conv_name, small_adj, rng, monkeypatch
    ):
        """An L-layer backward runs L - 1 transposed SpMMs, not L, and
        builds no transpose and no COO matrix for them."""
        import repro.gnn.layers as layers_module

        batch = rng.choice(small_adj.shape[0], 16, replace=False)
        mb = SageSampler().sample_bulk(small_adj, [batch], (4, 3, 2), rng)[0]
        model = GNNModel(8, 16, 5, 3, rng, conv=conv_name)
        logits = model.forward(mb, rng.random((mb.input_frontier.size, 8)))
        calls = {"spmm": 0, "transpose": 0, "from_coo": 0}
        real_spmm, real_from_coo = layers_module.spmm, CSRMatrix.from_coo

        def counting_spmm(a, dense, **kwargs):
            calls["spmm"] += 1
            calls["transpose"] += kwargs.get("transpose", False)
            return real_spmm(a, dense, **kwargs)

        def counting_from_coo(*args, **kwargs):
            calls["from_coo"] += 1
            return real_from_coo(*args, **kwargs)

        monkeypatch.setattr(layers_module, "spmm", counting_spmm)
        monkeypatch.setattr(CSRMatrix, "from_coo", counting_from_coo)
        model.zero_grad()
        assert model.backward(np.ones_like(logits)) is None
        assert calls == {"spmm": 2, "transpose": 2, "from_coo": 0}
        assert all(np.abs(g).sum() > 0 for g in model.gradients().values())


class TestLossAndMetrics:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.random((6, 4)) * 10)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_cross_entropy_gradcheck(self, rng):
        logits = rng.random((5, 3))
        labels = np.array([0, 2, 1, 1, 0])

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits.copy(), labels)
        num = numeric_grad(loss, logits, eps=1e-6)
        assert np.allclose(grad, num, atol=1e-5)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_cross_entropy_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.ones((2, 2)), np.array([0]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.ones((1, 2)), np.array([5]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.ones(3), np.array([0]))

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
        assert accuracy(np.empty((0, 2)), np.empty(0, dtype=int)) == 0.0


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        opt = Adam(lr=0.1)
        params = {"w": np.array([5.0])}
        for _ in range(200):
            opt.step(params, {"w": 2 * params["w"]})
        assert abs(params["w"][0]) < 1e-2

    def test_adam_weight_decay(self):
        opt = Adam(lr=0.01, weight_decay=0.1)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([0.0])})
        assert params["w"][0] < 1.0


class TestModel:
    def test_forward_shapes(self, small_adj, rng):
        sampler = SageSampler()
        batch = rng.choice(small_adj.shape[0], 16, replace=False)
        mb = sampler.sample_bulk(small_adj, [batch], (4, 3), rng)[0]
        model = GNNModel(8, 16, 5, 2, rng)
        x = rng.random((mb.input_frontier.size, 8))
        logits = model.forward(mb, x)
        assert logits.shape == (16, 5)

    def test_model_gradcheck(self, rng):
        layer0 = make_layer(rng, include_dst=True)
        # Chain a second layer whose sources are layer0's destinations.
        dense = (rng.random((2, layer0.n_dst)) < 0.7).astype(float)
        dense[0, 0] = 1.0
        layer1 = LayerSample(
            CSRMatrix.from_dense(dense), layer0.dst_ids, layer0.dst_ids[:2]
        )
        mb = MinibatchSample(layer0.dst_ids[:2], [layer0, layer1])
        model = GNNModel(3, 4, 2, 2, rng, conv="gcn")
        for conv in model.convs:
            widen(conv)
        x = rng.random((layer0.n_src, 3))
        labels = np.array([0, 1])

        def loss():
            return softmax_cross_entropy(model.forward(mb, x), labels)[0]

        model.zero_grad()
        logits = model.forward(mb, x)
        _, dl = softmax_cross_entropy(logits, labels)
        model.backward(dl)
        grads = model.gradients()
        for name, p in model.parameters().items():
            num = numeric_grad(loss, p)
            assert np.allclose(grads[name], num, atol=1e-5), name

    def test_layer_count_validation(self, small_adj, rng):
        sampler = SageSampler()
        batch = rng.choice(small_adj.shape[0], 8, replace=False)
        mb = sampler.sample_bulk(small_adj, [batch], (4,), rng)[0]
        model = GNNModel(8, 16, 5, 2, rng)
        with pytest.raises(ValueError):
            model.forward(mb, rng.random((mb.input_frontier.size, 8)))

    def test_set_parameters_roundtrip(self, rng):
        m1 = GNNModel(4, 8, 3, 2, np.random.default_rng(0))
        m2 = GNNModel(4, 8, 3, 2, np.random.default_rng(1))
        m2.set_parameters(m1.parameters())
        for a, b in zip(m1.parameters().values(), m2.parameters().values()):
            assert np.allclose(a, b)

    def test_full_graph_sample(self, small_adj):
        mb = full_graph_sample(small_adj, 3)
        assert mb.num_layers == 3
        assert mb.layers[0].n_src == small_adj.shape[0]

    def test_propagation_flops_positive(self, small_adj, rng):
        batch = rng.choice(small_adj.shape[0], 8, replace=False)
        mb = SageSampler().sample_bulk(small_adj, [batch], (4, 2), rng)[0]
        f = propagation_flops(mb, [16, 8, 4])
        assert f > 0
        with pytest.raises(ValueError):
            propagation_flops(mb, [16, 8])

    def test_invalid_conv(self, rng):
        with pytest.raises(ValueError):
            GNNModel(4, 8, 3, 2, rng, conv="transformer")
        with pytest.raises(ValueError):
            GNNModel(4, 8, 3, 0, rng)


# ---------------------------------------------------------------------- #
# Training bits: pinned, and reproduced in-process from the left-to-right
# SpMM oracle with the input-feature gradient computed and dropped
# ---------------------------------------------------------------------- #
#: (sampler, algorithm) -> (loss bytes of epochs 0 and 1, parameter digest),
#: recorded with ``_train_bits`` below when the model moved to float32
#: (features, weights, activations and gradients), and re-recorded when
#: SAMPLE moved to one prefix sum with rejection rounds (the float32 pins
#: were sage-replicated 000000301e721040…, sage-partitioned 00000010e00f1140…,
#: ladies-replicated 555555655cca0540…, ladies-partitioned 000000dc200e0640…).
PARENT_TRAINING_BITS = {
    ("sage", "replicated"): (
        ["5555551d59211040", "00000010e80b0540"],
        "bace8bc8b62962a6d21c38b712ab038e72f3c57e46f01a44a17995a7a6aa293a",
    ),
    ("sage", "partitioned"): (
        ["0000002095b91040", "0000002c04520840"],
        "16602d63e5b75eb4d7eac06b9d78b8af80d7168d2b0632b6c5a60cd8395f0f97",
    ),
    ("ladies", "replicated"): (
        ["555555b5abca0540", "abaaaafa07f60340"],
        "65944f5d6cf07bb37bd8735b2cc6aee98632685a772af7c4aace9024bd081578",
    ),
    ("ladies", "partitioned"): (
        ["0000006c72130640", "000000f42b920440"],
        "fd6ac1039c14dbbba36a88a374aaa26fd7cb2afa0e155f2aa8bb04b6a695599d",
    ),
}

#: ``_gemm_probe()`` on the machine the pins were recorded on.  Training
#: runs its dense transforms through BLAS, and serving through
#: ``stable_matmul``'s fixed-shape BLAS GEMMs, whose rounding is the
#: library's and the CPU kernel's business; on a machine whose GEMM rounds
#: differently the pins prove nothing, and the in-process reference test and
#: the relative serving tests are the check.
PINNED_GEMM_PROBE = "7317ea466ca3950f"


def _gemm_probe() -> str:
    """The products the pins run, in both widths: ``dgemm`` and, for the
    float32 model, ``sgemm`` (training's ``@`` and ``stable_matmul``)."""
    from repro.gnn.layers import stable_matmul

    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for m, k, n in ((32, 100, 24), (301, 24, 24), (57, 24, 7)):
        x, w = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        for x, w in ((x, w), (x.astype(np.float32), w.astype(np.float32))):
            h.update((x @ w).tobytes())
            h.update((x.T @ (x @ w)).tobytes())
    x, w = rng.standard_normal((33, 100)), rng.standard_normal((100, 24))
    h.update(stable_matmul(x, w).tobytes())
    h.update(stable_matmul(x.astype(np.float32), w.astype(np.float32)).tobytes())
    return h.hexdigest()[:16]


#: ``_spmm_probe()`` on the build the pins here, in ``test_fleet.py``,
#: ``test_stream.py`` and ``test_obs.py`` were recorded on.  ``spmm``'s bits
#: are promised per build of scipy's CSR kernel: one compiled to contract
#: ``y + a * x`` into an FMA rounds once where this one rounds twice.  Nine
#: float64 zeros, then eighteen float32 ones (plain and transposed).
PINNED_SPMM_PROBE = "00" * 8 * 9 + "00" * 4 * 9 * 2


def _spmm_probe() -> str:
    """One product whose strict left-to-right sum and FMA-contracted sum
    differ: ``(0 + -r) + a * a`` with ``r = round(a * a)`` is exactly 0.0 in
    two roundings and ``a * a``'s rounding error, ``2**-60``, in one.  Nine
    columns, so a vector body and its scalar tail are both probed.

    The float32 kernel (the model's width) gets the same product with
    ``a = 1 + 2**-12``: the float64 value ``-(a * a)`` rounds once to
    ``-r``, and the FMA would leave ``2**-24``; plain and transposed, the
    CSC kernel the backward pass runs."""
    from repro.sparse import CSRMatrix, spmm

    a = 1.0 + 2.0**-30
    row = CSRMatrix.from_dense(np.array([[-(a * a), a]]))
    wide = spmm(row, np.array([[1.0] * 9, [a] * 9]))
    a = 1.0 + 2.0**-12
    row = CSRMatrix.from_dense(np.array([[-(a * a), a]]))
    x = np.array([[1.0] * 9, [a] * 9], np.float32)
    narrow = spmm(row, x)
    narrow_t = spmm(CSRMatrix.from_dense(np.array([[-(a * a)], [a]])), x,
                    transpose=True)
    return (wide.tobytes() + narrow.tobytes() + narrow_t.tobytes()).hex()


#: ``_spgemm_probe()`` on the same build: ``spgemm`` runs scipy's
#: ``csr_matmat``, whose accumulate ``sum += a * b`` an FMA-contracting
#: build would round once.
PINNED_SPGEMM_PROBE = "00" * 8 * 9


def _spgemm_probe() -> str:
    """``_spmm_probe``'s product as an SpGEMM: ``(0 + -r) + a * a`` cancels
    to an absent entry in two roundings and leaves ``2**-60`` in one."""
    from repro.sparse import CSRMatrix, spgemm

    a = 1.0 + 2.0**-30
    row = CSRMatrix.from_dense(np.array([[-(a * a), a]]))
    col = CSRMatrix.from_dense(np.array([[1.0] * 9, [a] * 9]))
    return spgemm(row, col).to_dense().tobytes().hex()


def pinned_kernel_mismatch() -> str:
    """The probes that differ from the build the absolute pins were recorded
    on, comma-separated, or ``""``; the CI digest steps print it too."""
    return ", ".join(
        name
        for name, probe, pinned in (
            ("_spmm_probe (scipy's CSR kernel)", _spmm_probe, PINNED_SPMM_PROBE),
            ("_spgemm_probe (scipy's CSR SpGEMM)", _spgemm_probe,
             PINNED_SPGEMM_PROBE),
            ("_gemm_probe (BLAS GEMM)", _gemm_probe, PINNED_GEMM_PROBE),
        )
        if probe() != pinned
    )


def skip_unless_pinned_kernels() -> None:
    """Guard of every re-recorded absolute pin; relative checks (served ==
    ``layerwise_inference``, cache on / off, fleet shapes) need no guard."""
    differs = pinned_kernel_mismatch()
    if differs:
        pytest.skip(f"{differs} rounds differently from the build the pins "
                    "were recorded on")


def _train_bits(sampler: str, algorithm: str):
    from repro.api import Engine, RunConfig

    p, c = {"replicated": (2, 1), "partitioned": (4, 2)}[algorithm]
    cfg = RunConfig(
        dataset="products", scale=0.1, train_split=0.5, p=p, c=c,
        algorithm=algorithm, sampler=sampler,
        fanout=(10, 5, 3) if sampler == "sage" else (48, 48),
        batch_size=32, hidden=24, seed=0,
    )
    with Engine(cfg) as eng:
        losses = [eng.train_epoch(e).loss for e in range(2)]
        h = hashlib.sha256()
        for name, v in sorted(eng.model.parameters().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(v).tobytes())
    return [np.float64(x).tobytes().hex() for x in losses], h.hexdigest()


@pytest.mark.parametrize("sampler, algorithm", sorted(PARENT_TRAINING_BITS))
class TestTrainingBitsUnchanged:
    def test_matches_parent_commit(self, sampler, algorithm):
        skip_unless_pinned_kernels()
        assert _train_bits(sampler, algorithm) == PARENT_TRAINING_BITS[
            sampler, algorithm
        ]

    def test_matches_row_major_full_gradient_reference(
        self, sampler, algorithm, monkeypatch
    ):
        """Portable form of the pin: the same two epochs with the reference
        propagation — the strict left-to-right ``spmm`` oracle, backward's
        transposed products through a built CSR transpose, input-feature
        gradient computed and dropped — give the same loss and weight bytes
        in this process."""
        import repro.gnn.layers as layers_module

        from reference_spgemm import transpose as built_transpose
        from tests.test_spmm_layout import _left_to_right_spmm

        got = _train_bits(sampler, algorithm)

        def reference_spmm(a, dense, *, transpose=False):
            return _left_to_right_spmm(built_transpose(a) if transpose else a, dense)

        def full_backward(self, dlogits):
            g = dlogits
            for i in reversed(range(self.n_layers)):
                if i < self.n_layers - 1:
                    g = self.acts[i].backward(g)
                g = self.convs[i].backward(g)

        monkeypatch.setattr(layers_module, "spmm", reference_spmm)
        monkeypatch.setattr(GNNModel, "backward", full_backward)
        assert _train_bits(sampler, algorithm) == got
