"""Property-based tests (hypothesis) over the sampling framework.

For arbitrary random graphs, batch configurations and fanouts, every
sampler must uphold its structural invariants: sampled edges exist in the
graph, layer chains are consistent, fanout bounds hold, and the bulk
stacking never mixes batches.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import FastGCNSampler, LadiesSampler, SageSampler
from repro.graphs import erdos_renyi


@st.composite
def sampling_cases(draw):
    """(adjacency, batches, seed) over small random graphs."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(32, 128))
    avg_deg = draw(st.integers(2, 12))
    adj = erdos_renyi(n, avg_deg, rng)
    k = draw(st.integers(1, 4))
    b = draw(st.integers(1, 16))
    batches = [rng.choice(n, min(b, n), replace=False) for _ in range(k)]
    return adj, batches, seed


def _check_edges_exist(adj, mb):
    dense = adj.to_dense()
    for layer in mb.layers:
        rows, cols, _ = layer.adj.to_coo()
        if rows.size:
            assert np.all(dense[layer.dst_ids[rows], layer.src_ids[cols]] != 0)


def _check_chain(mb, batch):
    assert np.array_equal(mb.layers[-1].dst_ids, batch)
    for lo, hi in zip(mb.layers, mb.layers[1:]):
        assert np.array_equal(lo.dst_ids, hi.src_ids)


@given(sampling_cases(), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_sage_invariants(case, s, n_layers):
    adj, batches, seed = case
    rng = np.random.default_rng(seed + 1)
    out = SageSampler(include_dst=False).sample_bulk(
        adj, batches, tuple([s] * n_layers), rng
    )
    assert len(out) == len(batches)
    for mb, batch in zip(out, batches):
        _check_chain(mb, np.asarray(batch))
        _check_edges_exist(adj, mb)
        for layer in mb.layers:
            assert layer.adj.nnz_per_row().max(initial=0) <= s


@given(sampling_cases(), st.integers(2, 24))
@settings(max_examples=40, deadline=None)
def test_ladies_invariants(case, s):
    adj, batches, seed = case
    rng = np.random.default_rng(seed + 2)
    out = LadiesSampler().sample_bulk(adj, batches, (s,), rng)
    dense = adj.to_dense()
    for mb, batch in zip(out, batches):
        layer = mb.layers[0]
        assert layer.n_src <= s
        # Extraction completeness: every cross edge kept.
        sub = dense[np.ix_(layer.dst_ids, layer.src_ids)]
        assert np.allclose(layer.adj.to_dense(), sub)
        # Sampled vertices lie in the aggregated neighborhood.
        if layer.n_src:
            neigh = dense[np.asarray(batch)].sum(axis=0) > 0
            assert np.all(neigh[layer.src_ids])


@given(sampling_cases(), st.integers(2, 24))
@settings(max_examples=30, deadline=None)
def test_fastgcn_invariants(case, s):
    adj, batches, seed = case
    rng = np.random.default_rng(seed + 3)
    out = FastGCNSampler().sample_bulk(adj, batches, (s,), rng)
    dense = adj.to_dense()
    indeg = dense.sum(axis=0)
    for mb in out:
        layer = mb.layers[0]
        assert layer.n_src <= s
        # FastGCN only proposes vertices with nonzero in-degree.
        if layer.n_src:
            assert np.all(indeg[layer.src_ids] > 0)
        sub = dense[np.ix_(layer.dst_ids, layer.src_ids)]
        assert np.allclose(layer.adj.to_dense(), sub)


@given(sampling_cases())
@settings(max_examples=30, deadline=None)
def test_distributed_replicated_covers_batches(case):
    from repro.comm import Communicator
    from repro.distributed import replicated_bulk_sampling

    adj, batches, seed = case
    comm = Communicator(4)
    out = replicated_bulk_sampling(
        comm, SageSampler(), adj, batches, (3,), seed=seed
    )
    got = sorted(
        tuple(np.sort(mb.batch)) for rank in out for mb in rank
    )
    want = sorted(tuple(np.sort(np.asarray(b))) for b in batches)
    assert got == want
    assert comm.ledger.sent() == 0  # still communication-free
