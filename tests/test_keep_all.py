"""Exact serving's neighbourhood gather, held to SAMPLE at full count.

Exact serving builds each hop as a row gather of ``A`` plus a column
compaction (:func:`repro.serve.replica.neighborhood_sample`).  Before that
it ran GraphSAGE's plan with a keep-all SAMPLE, and before *that* with
``s`` = the graph's largest positive row count: ITS at that count selects
every positive entry, so it is the definition the gather answers to.  This
file holds:

* byte-equality of every ``LayerSample`` array with
  ``SageSampler(include_dst=True)`` at that count — the product path
  (``sample_bulk``, one generator or one per batch) and the
  ``Q^{l-1}``-materializing reference interpreter — on graphs with empty
  rows, stored zero weights and isolated targets, at 1–3 hops; each
  layer's edges are exactly its destinations' positive entries;
* the gather's refusals (a negative weight, a target outside the graph)
  and the plan IR's (a ``None`` count is no SAMPLE: samplers and
  ``SampleStep`` refuse it, naming the serving mode that keeps every
  neighbour); ``RunConfig.fanout`` stays integers-only;
* one emitted plan per ``(sampler, fanout)``, and none for exact serving;
* a streaming server whose max in-degree grows under insertions stays
  bit-equal to ``layerwise_inference`` — the reason the old cap had to be
  recomputed after every update;
* exact serving stays bit-equal to ``layerwise_inference`` on graphs with
  stored ``0.0`` / ``-0.0`` weights, which are not edges.
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
from repro.core import SageSampler, batch_rng
from repro.core.plan import SampleStep
from repro.graphs import Graph
from repro.pipeline import layerwise_inference
from repro.serve import ServingCluster
from repro.serve.replica import neighborhood_sample
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
# The gather == SAMPLE at the largest positive row count
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
        "seed": draw(st.integers(0, 2**16)),
    }


def _positive_per_row(adj) -> np.ndarray:
    return np.bincount(adj.row_ids()[adj.data > 0], minlength=adj.shape[0])


@settings(max_examples=60, deadline=None)
@given(case=keep_all_cases())
def test_keep_all_equals_sampling_at_max_degree(case):
    adj, batches, seed = case["adj"], case["batches"], case["seed"]
    positive = _positive_per_row(adj)
    fanout = (max(1, int(positive.max())),) * case["n_layers"]
    sampler = SageSampler(include_dst=True)
    per_batch = lambda: [batch_rng(seed, i) for i in range(len(batches))]
    gathered = [neighborhood_sample(adj, b, case["n_layers"]) for b in batches]
    want = _arrays(gathered)
    for label, samples in {
        "local": sampler.sample_bulk(
            adj, batches, fanout, np.random.default_rng(seed)
        ),
        "local-per-batch": sampler.sample_bulk(adj, batches, fanout, per_batch()),
        "oracle": reference_sample_bulk(
            sampler, adj, batches, fanout, per_batch()
        ),
    }.items():
        assert _arrays(samples) == want, label
    # The gather kept exactly the positive entries: a layer's edges are its
    # destinations' positive entries, no more (stored zeros), no fewer.
    for mb in gathered:
        for layer in mb.layers:
            assert np.array_equal(
                np.diff(layer.adj.indptr), positive[layer.dst_ids]
            )


def test_keep_all_refuses_negative_weights():
    """Same refusal as ITS: a negative weight is an error, not an edge
    silently dropped from an "exact" neighbourhood."""
    adj = CSRMatrix.from_dense(
        np.array([[0.0, 2.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    )
    with pytest.raises(ValueError, match="non-negative"):
        neighborhood_sample(adj, np.array([0, 1]), 1)
    with pytest.raises(ValueError, match="non-negative"):
        SageSampler().sample_bulk(
            adj, [np.array([0, 1])], (3,), np.random.default_rng(0)
        )
    # A negative weight the gather never reaches is not its business.
    assert neighborhood_sample(adj, np.array([2]), 1).layers[0].adj.nnz == 1


@pytest.mark.parametrize("target", [-1, 3])
def test_gather_refuses_a_target_outside_the_graph(target):
    adj = CSRMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError, match="out of range"):
        neighborhood_sample(adj, np.array([0, target]), 2)


# --------------------------------------------------------------------- #
# Refusals
# --------------------------------------------------------------------- #
def _refuses_none(sampler, adj, fanout) -> None:
    with pytest.raises(ValueError) as err:
        sampler.sample_bulk(adj, [np.arange(8)], fanout, np.random.default_rng(0))
    message = str(err.value)
    assert "None" in message
    assert "Engine.serving(fanout=None)" in message


@pytest.mark.parametrize("name", ["ladies", "fastgcn"])
def test_layerwise_samplers_refuse_keep_all(small_adj, name):
    _refuses_none(make_sampler(name), small_adj, (4, None))


def test_sample_counts_are_positive_integers(small_adj):
    """Keeping every neighbour is the serving mode, not a SAMPLE count."""
    _refuses_none(SageSampler(), small_adj, (None,))
    with pytest.raises(ValueError, match="positive integer, got None"):
        SampleStep(None)
    with pytest.raises(ValueError, match="positive"):
        SampleStep(0)
    assert SampleStep(4).describe_args() == ["s=4"]


@pytest.mark.parametrize("fanout", [(5, None), [None], (3, 0), [4, -1]])
def test_runconfig_fanout_stays_positive_integers(fanout):
    with pytest.raises(ValueError) as err:
        RunConfig(dataset="products", fanout=fanout)
    message = str(err.value)
    assert "positive integers" in message
    assert "Engine.serving(fanout=None)" in message


def test_sample_bulk_still_rejects_nonpositive_counts(small_adj):
    for fanout in ((3, 0), [4, -1]):
        with pytest.raises(ValueError, match="must be positive"):
            SageSampler().sample_bulk(
                small_adj, [np.arange(4)], fanout, np.random.default_rng(0)
            )


# --------------------------------------------------------------------- #
# One emitted plan per (sampler, fanout); none for exact serving
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
        (65536.0, None, set()),  # exact, cached or not: gathers, no plan
        (0.0, None, set()),
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
        s.sample_bulk(small_adj, batches, (3,), np.random.default_rng(1))
        for s in (with_dst, without)
    ]
    assert with_dst._plans is not without._plans
    assert _arrays(runs[0]) != _arrays(runs[1])  # dst joined one frontier only
    assert with_dst.emitted_plan((3,)) is with_dst.emitted_plan([3])
    # A sampler shipped to a worker process carries its memo and serves
    # (worker-built samplers start cold: tests/test_parallel.py holds the
    # pool bit-identical to serial either way).
    shipped = pickle.loads(pickle.dumps(with_dst))
    assert shipped.emitted_plan((3,)) == with_dst.emitted_plan((3,))
    again = shipped.sample_bulk(
        small_adj, batches, (3,), np.random.default_rng(1)
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
    (every gathered layer is a unit-weight pattern), ``layerwise_inference``
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
