"""Unit tests for the CSR matrix substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import CSRMatrix, sprand

from reference_spgemm import from_scipy, transpose


class TestConstruction:
    def test_from_coo_sorts_and_sums_duplicates(self):
        m = CSRMatrix.from_coo(
            rows=[1, 0, 1, 1], cols=[2, 1, 2, 0], vals=[1.0, 2.0, 3.0, 4.0],
            shape=(2, 3),
        )
        assert m.nnz == 3
        dense = m.to_dense()
        assert dense[1, 2] == 4.0  # 1 + 3 summed
        assert dense[0, 1] == 2.0
        assert dense[1, 0] == 4.0
        m.check()

    def test_from_coo_default_values_are_ones(self):
        m = CSRMatrix.from_coo([0, 1], [1, 0], None, (2, 2))
        assert np.array_equal(m.data, [1.0, 1.0])

    def test_from_coo_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([0], [5], None, (2, 3))
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([2], [0], None, (2, 3))
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([-1], [0], None, (2, 3))

    def test_from_coo_shape_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([0, 1], [0], None, (2, 2))

    def test_from_dense_roundtrip(self, rng):
        dense = rng.random((7, 5))
        dense[dense < 0.6] = 0.0
        m = CSRMatrix.from_dense(dense)
        assert np.allclose(m.to_dense(), dense)
        m.check()

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_dense(np.ones(4))

    def test_zeros(self):
        m = CSRMatrix.zeros((3, 4))
        assert m.nnz == 0
        assert m.shape == (3, 4)
        m.check()

    def test_identity(self):
        m = CSRMatrix.identity(5)
        assert np.allclose(m.to_dense(), np.eye(5))
        m.check()

    def test_scipy_roundtrip(self, rng):
        m = sprand(20, 30, 0.1, rng)
        back = from_scipy(m.to_scipy())
        assert m.equal(back)

    def test_to_scipy_is_a_zero_copy_view(self, rng):
        """Both views hold the matrix's own int64 / float64 arrays: no
        re-cast, no copy, whatever the index range."""
        m = sprand(20, 30, 0.1, rng)
        for view, fmt, shape in (
            (m.to_scipy(), "csr", (20, 30)),
            (m.to_scipy(transpose=True), "csc", (30, 20)),
        ):
            assert (view.format, view.shape) == (fmt, shape)
            for mine, theirs in zip(
                m.buffers(), (view.indptr, view.indices, view.data)
            ):
                assert theirs.dtype == mine.dtype
                assert np.shares_memory(theirs, mine)

    def test_to_scipy_on_read_only_operands(self, small_adj):
        """An adjacency over read-only arrays is a valid operand of both
        products, on either side, and gives the writable original's
        bits."""
        from repro.sparse import indicator_rows, spgemm, spmm

        n = small_adj.shape[0]
        q = indicator_rows([np.arange(0, 40, 3), np.arange(7, 60, 5)], n)
        q = CSRMatrix(q.indptr, q.indices, q.data * 0.3, q.shape)
        x = np.linspace(-1.0, 1.0, n * 3).reshape(n, 3)
        frozen = [buf.copy() for buf in small_adj.buffers()]
        for buf in frozen:
            buf.setflags(write=False)
        adj = CSRMatrix(*frozen, small_adj.shape)
        assert not adj.to_scipy().indices.flags.writeable
        assert np.shares_memory(adj.to_scipy().indices, adj.indices)
        for got, want in (
            (spgemm(q, adj), spgemm(q, small_adj)),
            (spgemm(adj, adj), spgemm(small_adj, small_adj)),
        ):
            for x1, x2 in zip(got.buffers(), want.buffers()):
                assert x1.tobytes() == x2.tobytes()
        for transpose in (False, True):
            assert (
                spmm(adj, x, transpose=transpose).tobytes()
                == spmm(small_adj, x, transpose=transpose).tobytes()
            )


class TestIntrospection:
    def test_nnz_per_row(self):
        m = CSRMatrix.from_dense([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
        assert np.array_equal(m.nnz_per_row(), [2, 0, 2])

    def test_row_access(self):
        m = CSRMatrix.from_dense([[0.0, 5.0], [6.0, 0.0]])
        cols, vals = m.row(0)
        assert np.array_equal(cols, [1]) and np.allclose(vals, [5.0])
        with pytest.raises(IndexError):
            m.row(2)

    def test_row_ids(self, rng):
        m = sprand(15, 15, 0.2, rng)
        rows, cols, _ = m.to_coo()
        assert np.array_equal(rows, m.row_ids())

    def test_check_detects_corruption(self, rng):
        m = sprand(10, 10, 0.3, rng)
        bad = m.copy()
        bad.indices[0] = 99
        with pytest.raises(ValueError):
            bad.check()
        bad2 = m.copy()
        bad2.indptr[-1] += 1
        with pytest.raises(ValueError):
            bad2.check()


class TestStructuralOps:
    def test_transpose(self, rng):
        """The CSC view of the transpose is the built CSR transpose."""
        m = sprand(12, 18, 0.15, rng)
        t = from_scipy(m.to_scipy(transpose=True))
        t.check()
        assert np.allclose(t.to_dense(), m.to_dense().T)
        assert t.equal(transpose(m), 0.0)

    def test_transpose_involution(self, rng):
        m = sprand(10, 10, 0.2, rng)
        assert transpose(transpose(m)).equal(m)

    def test_extract_rows_order_and_duplicates(self, rng):
        m = sprand(10, 8, 0.3, rng)
        sel = np.array([3, 3, 0, 9])
        sub = m.extract_rows(sel)
        assert np.allclose(sub.to_dense(), m.to_dense()[sel])
        sub.check()

    def test_extract_rows_out_of_range(self, rng):
        m = sprand(5, 5, 0.2, rng)
        for rows in ([5], [-1], [0, 5]):
            with pytest.raises(IndexError, match="row index out of range"):
                m.extract_rows(rows)

    def test_extract_rows_never_scans_the_whole_indptr(self, rng, monkeypatch):
        """A gather costs O(len(rows)): it must not take ``nnz_per_row()``
        (a diff over every row of the matrix) to learn a few row lengths."""
        m = sprand(40, 12, 0.3, rng)
        expect = m.to_dense()

        def boom(self):
            raise AssertionError("extract_rows diffed the whole indptr")

        with monkeypatch.context() as patched:
            patched.setattr(CSRMatrix, "nnz_per_row", boom)
            sub = m.extract_rows([7, 31, 7])
        assert np.array_equal(sub.to_dense(), expect[[7, 31, 7]])

    @pytest.mark.parametrize(
        "rows",
        [[], [4], [9, 9, 9], [8, 2, 5, 2, 0], list(range(9, -1, -1)), [3, 1]],
        ids=["empty", "one", "dup", "unordered-dup", "reversed", "empty-row"],
    )
    def test_extract_rows_equals_the_full_diff_gather(self, rng, rows):
        """Array-for-array what the old body (``nnz_per_row()[rows]``) built."""
        m = sprand(10, 8, 0.3, rng)
        m = CSRMatrix.from_dense(  # row 3 empty
            np.where(np.arange(10)[:, None] == 3, 0.0, m.to_dense())
        )
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.diff(m.indptr)[rows]
        take = np.concatenate(
            [np.arange(m.indptr[r], m.indptr[r + 1]) for r in rows]
            + [np.empty(0, dtype=np.int64)]
        ).astype(np.int64)
        sub = m.extract_rows(rows)
        assert np.array_equal(sub.indptr, np.concatenate(([0], np.cumsum(counts))))
        assert sub.indptr.dtype == np.int64
        assert np.array_equal(sub.indices, m.indices[take])
        assert np.array_equal(sub.data, m.data[take])
        assert sub.shape == (rows.size, 8)
        sub.check()

    def test_row_block(self, rng):
        m = sprand(20, 10, 0.25, rng)
        blk = m.row_block(5, 12)
        assert np.allclose(blk.to_dense(), m.to_dense()[5:12])
        blk.check()
        with pytest.raises(IndexError):
            m.row_block(12, 5)

    def test_row_block_empty(self, rng):
        m = sprand(10, 10, 0.2, rng)
        blk = m.row_block(4, 4)
        assert blk.shape == (0, 10) and blk.nnz == 0

    def test_select_columns(self, rng):
        m = sprand(8, 10, 0.4, rng)
        mask = np.zeros(10, dtype=bool)
        mask[[1, 4, 7]] = True
        sub = m.select_columns(mask)
        assert np.allclose(sub.to_dense(), m.to_dense()[:, [1, 4, 7]])
        sub.check()

    def test_select_columns_bad_mask(self, rng):
        m = sprand(4, 6, 0.5, rng)
        with pytest.raises(ValueError):
            m.select_columns(np.ones(3, dtype=bool))

    def test_nonzero_columns(self):
        m = CSRMatrix.from_coo([0, 1, 1], [5, 2, 5], None, (2, 8))
        assert np.array_equal(m.nonzero_columns(), [2, 5])

    def test_prune_zeros(self):
        m = CSRMatrix.from_coo([0, 0, 1], [0, 1, 1], [0.0, 2.0, -0.0], (2, 2))
        pruned = m.prune_zeros()
        assert pruned.nnz == 1
        assert pruned.to_dense()[0, 1] == 2.0
        nan = CSRMatrix.from_coo([0, 1], [0, 1], [np.nan, 0.0], (2, 2))
        assert nan.prune_zeros().indices.tolist() == [0]  # NaN is not zero


class TestArithmetic:
    def test_add(self, rng):
        a = sprand(9, 9, 0.2, rng)
        b = sprand(9, 9, 0.2, rng)
        assert np.allclose(a.add(b).to_dense(), a.to_dense() + b.to_dense())

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            sprand(3, 3, 0.5, rng).add(sprand(4, 3, 0.5, rng))

    def test_matmul_operator_sparse_and_dense(self, rng):
        a = sprand(5, 6, 0.4, rng)
        b = sprand(6, 4, 0.4, rng)
        x = rng.random((6, 3))
        assert np.allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense())
        assert np.allclose(a @ x, a.to_dense() @ x)

    def test_equal_ignores_explicit_zeros(self):
        a = CSRMatrix.from_coo([0], [0], [1.0], (2, 2))
        b = CSRMatrix.from_coo([0, 1], [0, 1], [1.0, 0.0], (2, 2))
        assert a.equal(b)

    def test_repr(self, rng):
        m = sprand(3, 4, 0.5, rng)
        assert "CSRMatrix" in repr(m) and "shape=(3, 4)" in repr(m)
