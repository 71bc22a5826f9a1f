"""Sampler semantics: the paper's worked example, GraphSAGE, LADIES, FastGCN."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FastGCNSampler,
    LadiesSampler,
    LayerSample,
    MinibatchSample,
    SageSampler,
)
from repro.core.fastgcn_sampler import squared_column_norms
from repro.sparse import CSRMatrix, indicator_rows, row_selector, spgemm, sprand

from reference_interpreter import block_diag, blockdiag_col_extract


class TestPaperWorkedExample:
    """Checks against the concrete numbers in the paper's Figures 1 and 2."""

    def test_sage_probability_matrix(self, paper_example_adj):
        """Figure 2a: P for batch {1, 5} has 1/3 over N(1), 1/2 over N(5)."""
        sampler = SageSampler()
        q = sampler.make_q(np.array([1, 5]), 6)
        p = sampler.norm(spgemm(q, paper_example_adj))
        dense = p.to_dense()
        expected = np.array(
            [
                [1 / 3, 0, 1 / 3, 0, 1 / 3, 0],
                [0, 0, 0, 1 / 2, 1 / 2, 0],
            ]
        )
        assert np.allclose(dense, expected)

    def test_ladies_probability_matrix(self, paper_example_adj):
        """Section 2.2.2: batch {1,5} gives p = [1/7, 0, 1/7, 1/7, 4/7, 0]."""
        sampler = LadiesSampler()
        q = sampler.make_q([np.array([1, 5])], 6)
        p = sampler.norm(spgemm(q, paper_example_adj))
        expected = np.array([[1 / 7, 0, 1 / 7, 1 / 7, 4 / 7, 0]])
        assert np.allclose(p.to_dense(), expected)

    def test_ladies_extraction_for_papers_sample(self, paper_example_adj):
        """Figure 2b: sampling {0, 4} for batch {1, 5} keeps every edge
        between the two sets: (1,0), (1,4), (5,4)."""
        sampler = LadiesSampler()
        a_r = sampler.row_extract(paper_example_adj, [np.array([1, 5])])
        adjs = sampler.col_extract(a_r, [np.array([1, 5])], [np.array([0, 4])])
        expected = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(adjs[0].to_dense(), expected)


class TestSageSampler:
    def test_fanout_respected(self, small_adj, batches, rng):
        sampler = SageSampler(include_dst=False)
        out = sampler.sample_bulk(small_adj, batches, (4, 2), rng)
        for mb in out:
            for layer in mb.layers:
                assert layer.adj.nnz_per_row().max() <= 4

    def test_sampled_edges_exist(self, small_adj, batches, rng):
        sampler = SageSampler()
        out = sampler.sample_bulk(small_adj, batches, (5, 3), rng)
        dense = small_adj.to_dense()
        for mb in out:
            for layer in mb.layers:
                rows, cols, _ = layer.adj.to_coo()
                src = layer.src_ids[cols]
                dst = layer.dst_ids[rows]
                assert np.all(dense[dst, src] != 0)

    def test_layer_chaining(self, small_adj, batches, rng):
        out = SageSampler().sample_bulk(small_adj, batches, (5, 3, 2), rng)
        for mb in out:
            assert len(mb.layers) == 3
            assert np.array_equal(mb.layers[-1].dst_ids, mb.batch)
            for lo, hi in zip(mb.layers, mb.layers[1:]):
                assert np.array_equal(lo.dst_ids, hi.src_ids)

    def test_include_dst_makes_dst_subset_of_src(self, small_adj, batches, rng):
        out = SageSampler(include_dst=True).sample_bulk(
            small_adj, batches, (4, 2), rng
        )
        for mb in out:
            for layer in mb.layers:
                assert np.all(np.isin(layer.dst_ids, layer.src_ids))

    def test_pure_mode_frontier_only_sampled(self, small_adj, batches, rng):
        out = SageSampler(include_dst=False).sample_bulk(
            small_adj, batches, (4,), rng
        )
        for mb in out:
            layer = mb.layers[0]
            # every src must appear in some sampled edge (no padding)
            assert np.array_equal(
                np.unique(layer.src_ids[layer.adj.indices]), layer.src_ids
            )

    def test_uniform_neighbor_selection(self):
        """Each neighbor of a degree-4 vertex is picked ~uniformly."""
        dense = np.zeros((5, 5))
        dense[0, 1:] = 1.0
        adj = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(0)
        sampler = SageSampler(include_dst=False)
        counts = np.zeros(5)
        trials = 2000
        for _ in range(trials):
            out = sampler.sample_bulk(adj, [np.array([0])], (1,), rng)
            counts[out[0].layers[0].src_ids[0]] += 1
        assert np.all(np.abs(counts[1:] / trials - 0.25) < 0.05)

    def test_determinism_with_seed(self, small_adj, batches):
        a = SageSampler().sample_bulk(
            small_adj, batches, (4, 2), np.random.default_rng(5)
        )
        b = SageSampler().sample_bulk(
            small_adj, batches, (4, 2), np.random.default_rng(5)
        )
        for x, y in zip(a, b):
            for lx, ly in zip(x.layers, y.layers):
                assert lx.adj.equal(ly.adj)
                assert np.array_equal(lx.src_ids, ly.src_ids)

    def test_validation(self, small_adj, rng):
        sampler = SageSampler()
        with pytest.raises(ValueError):
            sampler.sample_bulk(small_adj, [], (4,), rng)
        with pytest.raises(ValueError):
            sampler.sample_bulk(small_adj, [np.array([0])], (), rng)
        with pytest.raises(ValueError):
            sampler.sample_bulk(small_adj, [np.array([0])], (0,), rng)
        with pytest.raises(ValueError):
            sampler.sample_bulk(small_adj, [np.array([10**6])], (4,), rng)

    def test_gumbel_backend(self, small_adj, batches, rng):
        """SAMPLE has no backend knob; a sampler that wants another
        implementation of the same law overrides ``sample_mask``, and the
        executor runs it (here: Gumbel top-``s``, from the tests)."""
        from reference_its import gumbel_select_mask

        class GumbelSage(SageSampler):
            def sample_mask(self, p, s, rng):
                return gumbel_select_mask(p, s, rng)

        with pytest.raises(TypeError):
            SageSampler(sample_backend="gumbel")
        out = GumbelSage(include_dst=False).sample_bulk(
            small_adj, batches, (4,), rng
        )
        assert len(out) == len(batches)
        degree = small_adj.nnz_per_row()
        for mb, batch in zip(out, batches):
            layer = mb.layers[0]
            assert np.array_equal(
                np.diff(layer.adj.indptr), np.minimum(4, degree[batch])
            )


class TestLadiesSampler:
    def test_layer_width_bounded_by_s(self, small_adj, batches, rng):
        out = LadiesSampler().sample_bulk(small_adj, batches, (16,), rng)
        for mb in out:
            assert mb.layers[0].n_src <= 16

    def test_extraction_completeness(self, small_adj, batches, rng):
        """LADIES keeps EVERY edge between batch and sampled set."""
        out = LadiesSampler().sample_bulk(small_adj, batches, (16,), rng)
        dense = small_adj.to_dense()
        for mb in out:
            layer = mb.layers[0]
            sub = dense[np.ix_(layer.dst_ids, layer.src_ids)]
            assert np.allclose(layer.adj.to_dense(), sub)

    def test_sampled_in_aggregated_neighborhood(self, small_adj, batches, rng):
        out = LadiesSampler(include_dst=False).sample_bulk(
            small_adj, batches, (16,), rng
        )
        dense = small_adj.to_dense()
        for mb in out:
            layer = mb.layers[0]
            neigh = dense[mb.batch].sum(axis=0) > 0
            assert np.all(neigh[layer.src_ids])

    def test_probability_proportional_to_squared_counts(self):
        """p_v = e_v^2 / sum e_u^2 with e_v the in-batch neighbor count."""
        dense = np.zeros((4, 4))
        dense[0, 2] = dense[1, 2] = 1.0  # vertex 2 has e=2
        dense[0, 3] = 1.0  # vertex 3 has e=1
        adj = CSRMatrix.from_dense(dense)
        sampler = LadiesSampler()
        q = sampler.make_q([np.array([0, 1])], 4)
        p = sampler.norm(spgemm(q, adj)).to_dense()
        assert np.allclose(p[0], [0, 0, 4 / 5, 1 / 5])

    def test_split_and_blockdiag_col_extract_agree(self, small_adj, rng):
        """The per-batch SpGEMMs ``A_Ri Q_Ci`` equal section 4.2.4's single
        block-diagonal SpGEMM on every layer of a two-layer bulk whose
        batches sample layers of unequal width ``s_i``."""
        widths = []

        class Checked(LadiesSampler):
            def col_extract(self, a_r, dst_lists, sampled_lists, **kw):
                split = super().col_extract(a_r, dst_lists, sampled_lists, **kw)
                literal = blockdiag_col_extract(a_r, dst_lists, sampled_lists)
                assert len(split) == len(literal)
                for x, y in zip(split, literal):
                    assert x.equal(y)
                widths.append([len(v) for v in sampled_lists])
                return split

        n = small_adj.shape[0]
        batches = [rng.choice(n, b, replace=False) for b in (4, 16, 32, 64)]
        Checked(include_dst=True).sample_bulk(
            small_adj, batches, (16, 8), np.random.default_rng(7)
        )
        assert len(widths) == 2
        assert all(len(set(w)) > 1 for w in widths), widths

    def test_block_diag_matches_scipy(self, rng):
        """The oracle's block-diagonal expansion, against scipy's."""
        import scipy.sparse as sp

        from reference_sparse import to_scipy

        mats = [sprand(3, 4, 0.4, rng), sprand(2, 2, 0.6, rng), sprand(4, 1, 0.5, rng)]
        ours = block_diag(mats)
        ref = sp.block_diag([to_scipy(m) for m in mats]).toarray()
        assert np.allclose(ours.to_dense(), ref)
        ours.check()

    def test_multilayer_chaining(self, small_adj, batches, rng):
        out = LadiesSampler().sample_bulk(small_adj, batches, (16, 8), rng)
        for mb in out:
            assert len(mb.layers) == 2
            assert np.array_equal(mb.layers[1].src_ids, mb.layers[0].dst_ids)

    def test_include_dst(self, small_adj, batches, rng):
        out = LadiesSampler(include_dst=True).sample_bulk(
            small_adj, batches, (16,), rng
        )
        for mb in out:
            assert np.all(np.isin(mb.batch, mb.layers[0].src_ids))


class TestFastGCNSampler:
    def test_importance_proportional_to_squared_column_norms(self, small_adj):
        imp = FastGCNSampler.importance_row(small_adj).to_dense()[0]
        dense = small_adj.to_dense()
        expected = (dense**2).sum(axis=0)
        expected = expected / expected.sum()
        assert np.allclose(imp, expected)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-170]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_squared_column_norms_are_add_at_bitwise(self, entries):
        """``bincount(weights=)`` adds in entry order from 0.0, as the
        ``np.add.at`` it replaced did: same bits, any order of columns."""
        cols = np.array([c for c, _ in entries], dtype=np.int64)
        vals = np.array([v for _, v in entries], dtype=np.float64)
        want = np.zeros(10)
        np.add.at(want, cols, vals**2)
        adj = CSRMatrix(np.array([0, cols.size]), cols, vals, (1, 10))
        got = squared_column_norms(adj)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_extraction_completeness(self, small_adj, batches, rng):
        out = FastGCNSampler().sample_bulk(small_adj, batches, (16,), rng)
        dense = small_adj.to_dense()
        for mb in out:
            layer = mb.layers[0]
            sub = dense[np.ix_(layer.dst_ids, layer.src_ids)]
            assert np.allclose(layer.adj.to_dense(), sub)

    def test_samples_can_miss_neighborhood(self, rng):
        """Unlike LADIES, FastGCN may sample outside the batch neighborhood
        (the accuracy caveat in section 2.2.2): sampled rows may be empty."""
        dense = np.zeros((30, 30))
        dense[0, 1] = 1.0  # batch vertex 0 only neighbors vertex 1
        for i in range(2, 30):
            dense[i, (i + 1) % 30] = 1.0
        adj = CSRMatrix.from_dense(dense)
        out = FastGCNSampler().sample_bulk(adj, [np.array([0])], (5,), rng)
        layer = out[0].layers[0]
        # High-degree elsewhere means samples usually avoid vertex 1.
        assert layer.adj.nnz <= layer.n_src


class TestResultTypes:
    def test_layer_sample_validation(self, rng):
        from repro.sparse import sprand

        adj = sprand(3, 4, 0.5, rng)
        with pytest.raises(ValueError):
            LayerSample(adj, np.arange(5), np.arange(3))
        layer = LayerSample(adj, np.arange(4), np.arange(3))
        assert layer.n_src == 4 and layer.n_dst == 3

    def test_minibatch_sample_validation(self, rng):
        from repro.sparse import sprand

        adj = sprand(2, 3, 0.5, rng)
        layer = LayerSample(adj, np.arange(3), np.array([7, 8]))
        mb = MinibatchSample(np.array([7, 8]), [layer])
        assert mb.num_layers == 1
        assert np.array_equal(mb.input_frontier, np.arange(3))
        assert mb.total_edges() == adj.nnz
        with pytest.raises(ValueError):
            MinibatchSample(np.array([1, 2]), [layer])  # batch mismatch
        with pytest.raises(ValueError):
            MinibatchSample(np.array([7, 8]), [])
