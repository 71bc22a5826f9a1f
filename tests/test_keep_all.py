"""Keep-all SAMPLE: ``None`` in a fanout position == ITS at max degree.

Exact serving used to be "sample with ``s`` = the graph's max in-degree":
a coupon-collector game ITS plays to select *every positive entry*.  A
``None`` fanout position now says that directly — ``SAMPLE(all)`` returns
``P.data > 0`` without a draw — and this file holds it to the thing it
replaced, which survives only here, as the oracle:

* byte-equality with ``fanout=(max_degree,) * L`` on every ``LayerSample``
  array, locally and on three grids, against the ``Q^{l-1}``-materializing
  reference interpreter, under both SAMPLE backends, on graphs with empty
  rows, stored zero weights and isolated targets;
* the generator is not touched, and what that does to a stream shared
  with counted layers;
* the samplers that cannot keep all refuse by name; ``RunConfig.fanout``
  stays integers-only;
* one emitted plan per ``(sampler, fanout)``;
* a streaming server whose max in-degree grows under insertions stays
  bit-equal to ``layerwise_inference`` — the reason the old cap had to be
  recomputed after every update;
* exact serving stays bit-equal to ``layerwise_inference`` on graphs with
  stored ``0.0`` / ``-0.0`` weights, which SpGEMM's zero rule drops from
  ``P`` on the gather as on the general path.  (Weights that cancel need a
  negative entry, which keep-all SAMPLE refuses like ITS; their zero rule
  is held at the kernel, ``tests/test_compile.py``.)
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.api import Engine, RunConfig
from repro.api.registries import make_sampler
from repro.comm import Communicator, ProcessGrid
from repro.core import SageSampler, batch_rng
from repro.core.plan import SampleStep
from repro.distributed.partitioned import PartitionedExecutor
from repro.graphs import Graph
from repro.partition import BlockRows
from repro.pipeline import layerwise_inference
from repro.serve import ServingCluster
from repro.sparse import CSRMatrix
from repro.stream import EdgeBatch, StreamingGraph

from reference_interpreter import reference_sample_bulk


def _layer_arrays(layer) -> list[bytes]:
    return [
        layer.adj.indptr.tobytes(),
        layer.adj.indices.tobytes(),
        layer.adj.data.tobytes(),
        repr(layer.adj.shape).encode(),
        np.asarray(layer.src_ids, dtype=np.int64).tobytes(),
        np.asarray(layer.dst_ids, dtype=np.int64).tobytes(),
    ]


def _arrays(samples) -> list[bytes]:
    """Every array of every layer of every minibatch, as bytes."""
    out = []
    for mb in samples:
        out.append(np.asarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            out += _layer_arrays(layer)
    return out


# --------------------------------------------------------------------- #
# Equivalence with ITS / Gumbel at max degree
# --------------------------------------------------------------------- #
@st.composite
def keep_all_cases(draw):
    """A small weighted digraph with empty rows and stored zeros, plus
    batches that may target isolated vertices."""
    n = draw(st.integers(6, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    present = rng.random((n, n)) < draw(st.sampled_from([0.05, 0.15, 0.4]))
    empty = rng.random(n) < 0.25
    empty[0] = True  # vertex 0 is always isolated as a destination
    present[empty] = False
    weights = rng.random((n, n)) + 0.1
    weights[rng.random((n, n)) < 0.2] = 0.0  # stored, explicit zeros
    weights[rng.random((n, n)) < 0.05] = -0.0  # ... of either sign
    rows, cols = np.nonzero(present)
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
    adj = CSRMatrix(indptr, cols, weights[rows, cols], (n, n))
    adj.check()
    k = draw(st.integers(1, 3))
    batches = []
    for _ in range(k):
        size = int(rng.integers(1, min(n, 6) + 1))
        batch = rng.choice(n, size, replace=False)
        if draw(st.booleans()):
            batch = np.union1d(batch, [0])
        batches.append(np.sort(batch).astype(np.int64))
    return {
        "adj": adj,
        "batches": batches,
        "n_layers": draw(st.integers(1, 3)),
        "include_dst": draw(st.booleans()),
        "backend": draw(st.sampled_from(["its", "gumbel"])),
        "seed": draw(st.integers(0, 2**16)),
    }


def _partitioned(sampler, adj, batches, fanout, seed, p, c):
    grid = ProcessGrid(p, c)
    executor = PartitionedExecutor(
        Communicator(p), grid, sampler,
        BlockRows.partition(adj, grid.n_rows), batches, seed,
    )
    return executor.run(sampler.emitted_plan(fanout))


@settings(max_examples=60, deadline=None)
@given(case=keep_all_cases())
def test_keep_all_equals_sampling_at_max_degree(case):
    adj, batches, seed = case["adj"], case["batches"], case["seed"]
    sampler = SageSampler(
        include_dst=case["include_dst"], sample_backend=case["backend"]
    )
    max_degree = max(1, int(adj.nnz_per_row().max()))
    runs = {}
    for label, s in (("all", None), ("max", max_degree)):
        fanout = (s,) * case["n_layers"]
        per_batch = lambda: [batch_rng(seed, i) for i in range(len(batches))]
        runs[label, "local"] = sampler.sample_bulk(
            adj, batches, fanout, np.random.default_rng(seed)
        )
        runs[label, "local-per-batch"] = sampler.sample_bulk(
            adj, batches, fanout, per_batch()
        )
        runs[label, "oracle"] = reference_sample_bulk(
            sampler, adj, batches, fanout, per_batch()
        )
        for p, c in ((1, 1), (4, 2)):
            runs[label, f"partitioned{p}x{c}"] = _partitioned(
                sampler, adj, batches, fanout, seed, p, c
            )
    want = _arrays(runs["max", "local"])
    for key, samples in runs.items():
        assert _arrays(samples) == want, key
    # Keep-all really kept all: a layer's edges are its destinations'
    # positive entries, no more (stored zeros) and no fewer.
    positive = np.bincount(
        adj.row_ids()[adj.data > 0], minlength=adj.shape[0]
    )
    for mb in runs["all", "local"]:
        for layer in mb.layers:
            assert np.array_equal(
                np.diff(layer.adj.indptr), positive[layer.dst_ids]
            )


@pytest.mark.parametrize("backend", ["its", "gumbel"])
def test_keep_all_does_not_touch_the_generator(small_adj, backend):
    sampler = SageSampler(sample_backend=backend)
    batches = [np.arange(0, 40, 3), np.arange(100, 130, 2)]
    rng = np.random.default_rng(5)
    before = copy.deepcopy(rng.bit_generator.state)
    sampler.sample_bulk(small_adj, batches, (None, None), rng)
    assert rng.bit_generator.state == before
    sampler.sample_bulk(small_adj, batches, (2,), rng)
    assert rng.bit_generator.state != before  # a counted layer does draw


def test_keep_all_position_shortens_a_shared_stream(small_adj):
    """One generator across layers: ``(None, 3)`` and ``(max_degree, 3)``
    agree on the batch-adjacent layer (both keep all), but the keep-all
    layer consumed no uniforms, so the second layer draws others."""
    sampler = SageSampler()
    batches = [np.arange(0, 64, 2)]
    max_degree = int(small_adj.nnz_per_row().max())
    (kept,) = sampler.sample_bulk(
        small_adj, batches, (None, 3), np.random.default_rng(9)
    )
    (capped,) = sampler.sample_bulk(
        small_adj, batches, (max_degree, 3), np.random.default_rng(9)
    )
    # layers[-1] is fanout[0]'s layer (adjacent to the batch).
    assert _layer_arrays(kept.layers[-1]) == _layer_arrays(capped.layers[-1])
    assert np.array_equal(kept.layers[0].dst_ids, capped.layers[0].dst_ids)
    assert _layer_arrays(kept.layers[0]) != _layer_arrays(capped.layers[0])
    # ... and it is the stream position, nothing else: replaying the
    # second layer alone from a fresh generator gives keep-all's draws.
    (alone,) = sampler.sample_bulk(
        small_adj, [kept.layers[0].dst_ids], (3,), np.random.default_rng(9)
    )
    assert _layer_arrays(alone.layers[0]) == _layer_arrays(kept.layers[0])


def test_keep_all_refuses_negative_weights():
    """Same refusal as ITS: a negative entry of P is an error, not an
    edge silently dropped from an "exact" neighbourhood."""
    adj = CSRMatrix.from_dense(
        np.array([[0.0, 2.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    )
    for fanout in ((None,), (3,)):
        with pytest.raises(ValueError, match="non-negative"):
            SageSampler().sample_bulk(
                adj, [np.array([0, 1])], fanout, np.random.default_rng(0)
            )


def test_describe_prints_s_all():
    plan = SageSampler().emitted_plan((None, 4))
    assert plan.describe().splitlines() == [
        "probability  PROB(frontier)",
        "sampling     NORM()",
        "sampling     SAMPLE(s=all)",
        "extraction   EXTRACT(compact)",
        "probability  PROB(frontier)",
        "sampling     NORM()",
        "sampling     SAMPLE(s=4)",
        "extraction   EXTRACT(compact)",
    ]
    assert SampleStep(None).describe_args() == ["s=all"]
    with pytest.raises(ValueError, match="positive"):
        SampleStep(0)


# --------------------------------------------------------------------- #
# Refusals
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["ladies", "fastgcn", "saint"])
def test_layerwise_and_walk_samplers_refuse_keep_all(small_adj, name):
    sampler = make_sampler(name)
    with pytest.raises(ValueError) as err:
        sampler.sample_bulk(
            small_adj, [np.arange(8)], (4, None), np.random.default_rng(0)
        )
    message = str(err.value)
    assert repr(sampler.name) in message
    assert "fanout[1]" in message
    assert "use an integer count" in message


@pytest.mark.parametrize("fanout", [(5, None), [None], (3, 0), [4, -1]])
def test_runconfig_fanout_stays_positive_integers(fanout):
    with pytest.raises(ValueError) as err:
        RunConfig(dataset="products", fanout=fanout)
    message = str(err.value)
    assert "positive integers" in message
    assert "Engine.serving(fanout=None)" in message


def test_sample_bulk_still_rejects_nonpositive_counts(small_adj):
    with pytest.raises(ValueError, match="positive"):
        SageSampler().sample_bulk(
            small_adj, [np.arange(4)], (None, 0), np.random.default_rng(0)
        )


# --------------------------------------------------------------------- #
# One emitted plan per (sampler, fanout)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trained_engine() -> Engine:
    cfg = RunConfig(
        dataset="products", scale=0.1, train_split=0.5, p=1, c=1,
        algorithm="single", sampler="sage", fanout=(4, 3), batch_size=16,
        hidden=16, epochs=1, seed=0,
    )
    engine = Engine(cfg)
    engine.train(1)
    return engine


@pytest.mark.parametrize(
    "embed_budget, fanout, tuples",
    [
        (65536.0, None, {(None,)}),  # cached path: outer + miss frontier
        (0.0, None, {(None, None)}),
        (0.0, (4, 3), {(4, 3)}),
    ],
    ids=["exact-cached", "exact", "sampled"],
)
def test_plan_is_emitted_once_per_fanout(
    trained_engine, monkeypatch, embed_budget, fanout, tuples
):
    emitted = []
    original = SageSampler.plan

    def counting(self, fanout):
        emitted.append(tuple(fanout))
        return original(self, fanout)

    monkeypatch.setattr(SageSampler, "plan", counting)
    engine = trained_engine
    server = ServingCluster(
        engine.model, copy.copy(engine.graph),
        engine.config.replace(embed_budget=embed_budget), fanout=fanout,
    )
    for v in engine.graph.test_idx[:50]:
        server.serve(np.array([v]))
    assert sorted(emitted, key=repr) == sorted(tuples, key=repr)


def test_plan_memo_is_per_instance_and_survives_pickling(small_adj):
    with_dst = SageSampler(include_dst=True)
    without = SageSampler(include_dst=False)
    batches = [np.arange(0, 30, 2)]
    runs = [
        s.sample_bulk(small_adj, batches, (None,), np.random.default_rng(1))
        for s in (with_dst, without)
    ]
    assert with_dst._plans is not without._plans
    assert _arrays(runs[0]) != _arrays(runs[1])  # dst joined one frontier only
    assert with_dst.emitted_plan((None,)) is with_dst.emitted_plan([None])
    # A sampler shipped to a worker process carries its memo and serves
    # (worker-built samplers start cold: tests/test_parallel.py holds the
    # pool bit-identical to serial either way).
    shipped = pickle.loads(pickle.dumps(with_dst))
    assert shipped.emitted_plan((None,)) == with_dst.emitted_plan((None,))
    again = shipped.sample_bulk(
        small_adj, batches, (None,), np.random.default_rng(1)
    )
    assert _arrays(again) == _arrays(runs[0])


# --------------------------------------------------------------------- #
# The reason the old cap was recomputed: degrees that grow under updates
# --------------------------------------------------------------------- #
def _absent_sources(adj, v: int, count: int) -> np.ndarray:
    have = set(adj.row(v)[0].tolist())
    return np.array(
        [u for u in range(adj.shape[0]) if u != v and u not in have][:count],
        dtype=np.int64,
    )


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("embed_budget", [0.0, 65536.0], ids=["nocache", "cache"])
def test_exact_serving_follows_a_growing_max_degree(
    trained_engine, replicas, embed_budget
):
    engine = trained_engine
    graph = copy.copy(engine.graph)
    cfg = engine.config.replace(
        stream_updates=True, embed_budget=embed_budget, replicas=replicas,
        router="round_robin" if replicas > 1 else "direct",
    )
    server = ServingCluster(
        engine.model, graph, cfg, stream=StreamingGraph(graph)
    )
    degree = graph.adj.nnz_per_row()
    initial_max = int(degree.max())
    order = np.argsort(degree, kind="stable")
    first, second = int(order[0]), int(order[1])  # two low-degree vertices
    server.serve(graph.test_idx[:32])  # warm every cache on the old graph

    def check(hub: int) -> None:
        rebuilt = server.stream.rebuild_from_scratch()
        reference = layerwise_inference(engine.model, rebuilt)
        # The hub, vertices that aggregate *from* it, and its sources.
        readers = np.flatnonzero(
            np.bincount(
                rebuilt.adj.row_ids()[rebuilt.adj.indices == hub],
                minlength=graph.n,
            )
        )[:12]
        targets = np.unique(
            np.concatenate(([hub], readers, rebuilt.adj.row(hub)[0][:12]))
        )
        for _ in range(replicas):  # every replica takes a turn
            assert np.array_equal(server.serve(targets), reference[targets])
            assert np.array_equal(
                server.serve(np.array([hub])), reference[[hub]]
            )

    # Batch 1 lifts `first` above the initial max in-degree ...
    grow = _absent_sources(graph.adj, first, initial_max + 3 - int(degree[first]))
    server.apply_update(EdgeBatch(np.full(grow.size, first), grow, "insert"))
    assert int(graph.adj.nnz_per_row()[first]) == initial_max + 3
    check(first)
    # ... batch 2 lifts a *different* vertex past the first.
    grow = _absent_sources(graph.adj, second, initial_max + 9 - int(degree[second]))
    server.apply_update(EdgeBatch(np.full(grow.size, second), grow, "insert"))
    assert int(graph.adj.nnz_per_row().max()) == initial_max + 9
    assert int(np.argmax(graph.adj.nnz_per_row())) == second
    check(second)
    check(first)


# --------------------------------------------------------------------- #
# Stored zeros: absent from P on every path, invisible in the logits
# --------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    zeros=st.sampled_from([0.1, 0.4, 0.9]),
    embed_budget=st.sampled_from([0.0, 65536.0]),
)
def test_exact_serving_equals_layerwise_inference_on_stored_zeros(
    trained_engine, seed, zeros, embed_budget
):
    """The trained model over its graph's pattern with a share of the edges
    stored as ``0.0`` or ``-0.0``: exact serving keeps the positive ones
    (every sampled layer is a unit-weight pattern), ``layerwise_inference``
    multiplies the zeros in, and the logits are the same bytes."""
    engine = trained_engine
    adj = engine.graph.adj
    rng = np.random.default_rng(seed)
    draw = rng.random(adj.nnz)
    data = np.where(draw < zeros, np.where(draw < zeros / 2, -0.0, 0.0), 1.0)
    graph = Graph(
        name="stored-zeros",
        adj=CSRMatrix(adj.indptr, adj.indices, data, adj.shape),
        features=engine.graph.features,
    )
    reference = layerwise_inference(engine.model, graph)
    server = ServingCluster(
        engine.model, graph, engine.config.replace(embed_budget=embed_budget),
        fanout=None,
    )
    targets = rng.choice(graph.n, 24, replace=False)
    assert server.serve(targets).tobytes() == reference[targets].tobytes()
    for v in targets[:4]:
        assert server.serve(np.array([v])).tobytes() == reference[[v]].tobytes()
