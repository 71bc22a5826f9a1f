"""Structural sparse operations: stacking, block-diagonal, selectors, NORM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import (
    CSRMatrix,
    block_diag,
    col_selector,
    compact_columns,
    indicator_rows,
    row_normalize,
    row_selector,
    spgemm,
    sprand,
    vstack,
)


class TestStacking:
    def test_vstack_matches_dense(self, rng):
        mats = [sprand(i + 2, 7, 0.3, rng) for i in range(3)]
        stacked = vstack(mats)
        ref = np.vstack([m.to_dense() for m in mats])
        assert np.allclose(stacked.to_dense(), ref)
        stacked.check()

    def test_vstack_requires_common_columns(self, rng):
        with pytest.raises(ValueError):
            vstack([sprand(2, 3, 0.5, rng), sprand(2, 4, 0.5, rng)])

    def test_vstack_empty_list(self):
        with pytest.raises(ValueError):
            vstack([])

    def test_vstack_with_empty_blocks(self, rng):
        mats = [CSRMatrix.zeros((0, 5)), sprand(3, 5, 0.4, rng), CSRMatrix.zeros((2, 5))]
        stacked = vstack(mats)
        assert stacked.shape == (5, 5)
        stacked.check()

    def test_block_diag_matches_scipy(self, rng):
        import scipy.sparse as sp

        mats = [sprand(3, 4, 0.4, rng), sprand(2, 2, 0.6, rng), sprand(4, 1, 0.5, rng)]
        ours = block_diag(mats)
        ref = sp.block_diag([m.to_scipy() for m in mats]).toarray()
        assert np.allclose(ours.to_dense(), ref)
        ours.check()

    def test_vstack_then_slice_roundtrip(self, rng):
        mats = [sprand(3, 6, 0.4, rng) for _ in range(4)]
        stacked = vstack(mats)
        for i, m in enumerate(mats):
            assert stacked.row_block(3 * i, 3 * (i + 1)).equal(m)


class TestSelectors:
    def test_row_selector_gathers_rows(self, rng):
        a = sprand(10, 10, 0.4, rng)
        verts = np.array([4, 1, 4, 9])
        q = row_selector(verts, 10)
        assert np.allclose(spgemm(q, a).to_dense(), a.to_dense()[verts])

    def test_row_selector_bounds(self):
        with pytest.raises(ValueError):
            row_selector(np.array([5]), 5)
        with pytest.raises(ValueError):
            row_selector(np.array([[1, 2]]), 5)

    def test_col_selector_gathers_columns(self, rng):
        a = sprand(8, 12, 0.4, rng)
        verts = np.array([0, 11, 3])
        qc = col_selector(verts, 12)
        assert np.allclose(spgemm(a, qc).to_dense(), a.to_dense()[:, verts])

    def test_indicator_rows(self):
        q = indicator_rows([np.array([1, 5]), np.array([0, 2, 3])], 6)
        dense = q.to_dense()
        assert np.array_equal(dense[0], [0, 1, 0, 0, 0, 1])
        assert np.array_equal(dense[1], [1, 0, 1, 1, 0, 0])

    def test_indicator_rows_empty(self):
        with pytest.raises(ValueError):
            indicator_rows([], 6)


class TestNormalizeAndCompact:
    def test_row_normalize_rows_sum_to_one(self, rng):
        m = sprand(10, 10, 0.4, rng)
        normed = row_normalize(m)
        sums = normed.to_dense().sum(axis=1)
        nonzero = m.nnz_per_row() > 0
        assert np.allclose(sums[nonzero], 1.0)
        assert np.allclose(sums[~nonzero], 0.0)

    def test_row_normalize_preserves_ratios(self):
        m = CSRMatrix.from_dense([[1.0, 3.0]])
        normed = row_normalize(m).to_dense()
        assert np.allclose(normed, [[0.25, 0.75]])

    def test_compact_columns(self):
        m = CSRMatrix.from_coo([0, 1], [3, 7], [1.0, 2.0], (2, 10))
        compacted, kept = compact_columns(m)
        assert np.array_equal(kept, [3, 7])
        assert compacted.shape == (2, 2)
        assert np.allclose(compacted.to_dense(), [[1, 0], [0, 2]])

    def test_compact_columns_all_empty(self):
        m = CSRMatrix.zeros((3, 5))
        compacted, kept = compact_columns(m)
        assert compacted.shape == (3, 0) and kept.size == 0


class TestRandomGenerators:
    def test_sprand_density(self, rng):
        m = sprand(50, 50, 0.1, rng)
        assert m.nnz == 250
        m.check()

    def test_sprand_bounds(self, rng):
        with pytest.raises(ValueError):
            sprand(5, 5, 1.5, rng)
        with pytest.raises(ValueError):
            sprand(5, 5, 0.5, rng, values="bogus")

    def test_sprand_ones(self, rng):
        m = sprand(10, 10, 0.2, rng, values="ones")
        assert np.all(m.data == 1.0)
