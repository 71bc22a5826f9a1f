"""SpGEMM and SpMM kernels vs the scipy oracle, plus flop accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import (
    CSRMatrix,
    required_rows,
    spgemm,
    spgemm_flops,
    sprand,
    spmm,
    spmm_flops,
)

from reference_sparse import to_scipy


class TestSpGEMM:
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.5])
    def test_matches_scipy(self, density, rng):
        a = sprand(40, 30, density, rng)
        b = sprand(30, 50, density, rng)
        ref = (to_scipy(a) @ to_scipy(b)).toarray()
        out = spgemm(a, b)
        assert np.allclose(out.to_dense(), ref)
        out.check()

    def test_identity_is_neutral(self, rng):
        a = sprand(12, 12, 0.3, rng)
        eye = CSRMatrix.identity(12)
        assert spgemm(a, eye).equal(a)
        assert spgemm(eye, a).equal(a)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            spgemm(sprand(3, 4, 0.5, rng), sprand(5, 3, 0.5, rng))

    def test_empty_operands(self, rng):
        a = CSRMatrix.zeros((4, 5))
        b = sprand(5, 6, 0.5, rng)
        assert spgemm(a, b).nnz == 0
        assert spgemm(a, b).shape == (4, 6)

    def test_associativity(self, rng):
        a = sprand(8, 9, 0.3, rng)
        b = sprand(9, 7, 0.3, rng)
        c = sprand(7, 6, 0.3, rng)
        left = spgemm(spgemm(a, b), c)
        right = spgemm(a, spgemm(b, c))
        assert np.allclose(left.to_dense(), right.to_dense(), atol=1e-10)

    def test_binary_selector_gathers_rows(self, rng):
        a = sprand(10, 10, 0.4, rng)
        sel = CSRMatrix.from_coo([0, 1, 2], [7, 2, 7], None, (3, 10))
        out = spgemm(sel, a)
        assert np.allclose(out.to_dense(), a.to_dense()[[7, 2, 7]])

    def test_flops_equal_expansion_size(self, rng):
        a = sprand(10, 12, 0.3, rng)
        b = sprand(12, 9, 0.3, rng)
        expected = int(b.nnz_per_row()[a.indices].sum())
        assert spgemm_flops(a, b) == expected

    def test_flops_zero_for_empty(self, rng):
        assert spgemm_flops(CSRMatrix.zeros((3, 3)), sprand(3, 3, 0.5, rng)) == 0

    def test_flops_dimension_check(self, rng):
        with pytest.raises(ValueError):
            spgemm_flops(sprand(3, 4, 0.5, rng), sprand(3, 4, 0.5, rng))

    def test_required_rows(self):
        a = CSRMatrix.from_coo([0, 1, 1], [3, 3, 8], None, (2, 10))
        assert np.array_equal(required_rows(a, 10), [3, 8])
        with pytest.raises(ValueError):
            required_rows(a, 5)

    def test_cancellation_prunes_cleanly(self):
        # +1 and -1 hitting the same output cell must sum to zero.
        a = CSRMatrix.from_coo([0, 0], [0, 1], [1.0, -1.0], (1, 2))
        b = CSRMatrix.from_coo([0, 1], [0, 0], [1.0, 1.0], (2, 1))
        out = spgemm(a, b).prune_zeros()
        assert out.nnz == 0


class TestSpMM:
    def test_matches_dense(self, rng):
        a = sprand(20, 15, 0.2, rng)
        x = rng.random((15, 7))
        assert np.allclose(spmm(a, x), a.to_dense() @ x)

    def test_vector_operand(self, rng):
        a = sprand(10, 10, 0.3, rng)
        v = rng.random(10)
        out = spmm(a, v)
        assert out.shape == (10,)
        assert np.allclose(out, a.to_dense() @ v)

    def test_empty_rows_are_zero(self):
        a = CSRMatrix.from_coo([0], [2], [2.0], (3, 3))
        x = np.ones((3, 2))
        out = spmm(a, x)
        assert np.allclose(out[1], 0) and np.allclose(out[2], 0)
        assert np.allclose(out[0], 2)

    def test_empty_matrix(self):
        out = spmm(CSRMatrix.zeros((4, 3)), np.ones((3, 2)))
        assert out.shape == (4, 2) and np.allclose(out, 0)

    def test_trailing_empty_rows(self, rng):
        # Regression guard: reduceat indexing at nnz boundary.
        a = CSRMatrix.from_coo([0], [0], [1.0], (5, 3))
        out = spmm(a, rng.random((3, 2)))
        assert np.allclose(out[1:], 0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            spmm(sprand(3, 4, 0.5, rng), np.ones((5, 2)))

    def test_rejects_3d_operand(self, rng):
        with pytest.raises(ValueError):
            spmm(sprand(3, 3, 0.5, rng), np.ones((3, 2, 2)))

    def test_flops(self, rng):
        a = sprand(6, 6, 0.5, rng)
        assert spmm_flops(a, 10) == 2 * a.nnz * 10
