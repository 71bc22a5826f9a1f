"""Compressed sparse row matrices built on numpy arrays.

This is the sparse substrate the paper's sampling framework runs on.  The
paper uses cuSPARSE/nsparse CSR kernels on GPU; here the structural
operations are vectorized numpy, and the two products (SpGEMM, SpMM) run
scipy's compiled CSR kernels over :meth:`CSRMatrix.to_scipy`'s zero-copy
views.  Only CSR supports SpGEMM (matching
the constraint the paper works around in section 8.2.2), so everything
funnels through this class.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A CSR sparse matrix with float64 values and int64 indices.

    Invariants (checked by :meth:`check`):

    * ``indptr`` has length ``shape[0] + 1``, is non-decreasing, starts at 0
      and ends at ``nnz``.
    * ``indices`` and ``data`` have length ``nnz``; column indices are within
      ``[0, shape[1])`` and sorted within each row with no duplicates.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None,
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> "CSRMatrix":
        """Build from COO triplets, canonicalizing to sorted, duplicate-free CSR.

        Entries are ordered by the single flat key ``row * n_cols + col``.
        Input already in row-major order (a row-selector product, a
        ``to_coo`` round trip) is detected with one linear pass and not
        sorted at all; anything else takes one stable argsort, which merges
        concatenated sorted runs (``a.add(b)``, the sparse all-reduce) in
        near-linear time.  Duplicates of one ``(row, col)`` keep their input
        order and are summed by one ``np.add.reduceat`` run: the first value
        plus numpy's pairwise sum of the rest (left to right for two, not
        beyond).  Shapes whose flat key space does not fit
        int64 fall back to a two-key lexsort — the same permutation, so the
        result does not depend on which path ran.  The returned arrays never
        alias the caller's.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if vals is None:
            data = np.ones(rows.shape[0], dtype=np.float64)
        else:
            data = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape):
            raise ValueError("rows, cols and vals must have identical shapes")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        if n_rows * n_cols >= 2**63:  # flat keys would overflow int64
            return cls._from_coo_lexsort(
                rows, cols, data, (n_rows, n_cols), sum_duplicates
            )
        keys = rows * np.int64(n_cols) + cols
        del rows, cols  # re-derived from the keys once those are final
        if keys.size > 1 and not np.all(keys[1:] >= keys[:-1]):
            order = np.argsort(keys, kind="stable")
            data = data[order]
            keys = keys[order]
            del order
        if sum_duplicates and keys.size > 1:
            distinct = keys[1:] != keys[:-1]
            if not distinct.all():
                starts = np.concatenate(([0], np.flatnonzero(distinct) + 1))
                data = np.add.reduceat(data, starts)
                keys = keys[starts]
        if vals is not None and np.may_share_memory(data, vals):
            data = data.copy()  # neither sorted nor summed: still the caller's
        rows = keys // n_cols
        keys -= rows * n_cols
        return cls(_indptr_from_rows(rows, n_rows), keys, data, (n_rows, n_cols))

    @classmethod
    def _from_coo_lexsort(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        sum_duplicates: bool,
    ) -> "CSRMatrix":
        """:meth:`from_coo` for validated triplets whose flat key would
        overflow int64: the two-key sort, same order and same sums."""
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            boundary = np.empty(rows.size, dtype=bool)
            boundary[0] = True
            boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(boundary)
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        return cls(_indptr_from_rows(rows, shape[0]), cols, vals, shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a 2-D dense array, keeping exact nonzeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "CSRMatrix":
        """An empty matrix of the given shape."""
        return cls(
            np.zeros(int(shape[0]) + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            shape,
        )

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n-by-n identity."""
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), idx, np.ones(n), (n, n))

    # ------------------------------------------------------------------ #
    # Buffer export (zero-copy shared-memory publication)
    # ------------------------------------------------------------------ #
    def buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three CSR arrays ``(indptr, indices, data)``, by reference.

        The constructor normalizes to contiguous int64/int64/float64, so
        these are directly publishable into shared memory; mutating them
        mutates the matrix.
        """
        return self.indptr, self.indices, self.data

    @classmethod
    def from_buffers(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Rebuild from :meth:`buffers` output without copying.

        Arrays that are already contiguous with the canonical dtypes
        (int64/int64/float64) — e.g. views over an attached shared-memory
        segment — pass through ``np.ascontiguousarray`` untouched, so the
        matrix aliases the caller's buffers (read-only views stay
        read-only).  No invariant checking happens here; callers exporting
        untrusted buffers should :meth:`check`.
        """
        return cls(indptr, indices, data, shape)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.indices.shape[0])

    def nnz_per_row(self) -> np.ndarray:
        """Stored entries in each row, length ``shape[0]``."""
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry (COO expansion of ``indptr``)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), self.nnz_per_row())

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"row {i} out of range for shape {self.shape}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def check(self) -> None:
        """Validate CSR invariants; raise ``ValueError`` on violation."""
        if self.indptr.shape[0] != self.shape[0] + 1:
            raise ValueError("indptr length does not match row count")
        if self.indptr[0] != 0 or self.indptr[-1] != self.nnz:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data length mismatch")
        if self.nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.shape[1]:
                raise ValueError("column index out of range")
            # Neighbouring entries must increase except across a row start
            # (no flat row * n_cols + col key: that wraps int64 on huge shapes).
            increasing = np.diff(self.indices) > 0
            starts = self.indptr[1:-1]
            increasing[starts[(starts > 0) & (starts < self.nnz)] - 1] = True
            if not increasing.all():
                raise ValueError("columns must be strictly increasing within rows")

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array."""
        out = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            out[self.row_ids(), self.indices] = self.data
        return out

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) triplets in row-major order."""
        return self.row_ids(), self.indices.copy(), self.data.copy()

    def to_scipy(self, *, transpose: bool = False):
        """A ``scipy.sparse`` view over this matrix's own int64 / int64 /
        float64 arrays: a ``csr_matrix``, or with ``transpose=True`` the
        ``csc_matrix`` of the transpose.

        O(1): the arrays are set as attributes of an empty matrix, because
        scipy's ``(data, indices, indptr)`` constructor — and ``.T`` —
        re-casts int64 indices that fit int32, a copy of the whole index
        array per call.  scipy's products take int64 operands as they are
        and never write them, so read-only (shared-memory) arrays work.
        """
        if transpose:
            view = csc_matrix((self.shape[1], self.shape[0]))
        else:
            view = csr_matrix(self.shape)
        view.indptr, view.indices, view.data = self.indptr, self.indices, self.data
        return view

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape
        )

    # ------------------------------------------------------------------ #
    # Structural operations
    # ------------------------------------------------------------------ #
    def extract_rows(self, rows: Iterable[int] | np.ndarray) -> "CSRMatrix":
        """Gather ``rows`` (in the given order, duplicates allowed) into a new matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise IndexError("row index out of range")
        # Lengths of the asked-for rows only: O(len(rows)), not a diff over
        # the whole matrix's indptr.
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        take = _ranges(starts, counts)
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, self.indices[take], self.data[take], (rows.size, self.shape[1]))

    def row_block(self, start: int, stop: int) -> "CSRMatrix":
        """Contiguous block of rows ``[start, stop)`` (zero-copy on indices/data)."""
        if not 0 <= start <= stop <= self.shape[0]:
            raise IndexError(f"block [{start}, {stop}) out of range")
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRMatrix(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (stop - start, self.shape[1]),
        )

    def select_columns(self, mask: np.ndarray) -> "CSRMatrix":
        """Keep only columns where ``mask`` is true, renumbering them densely."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.shape[1]:
            raise ValueError("mask length must equal column count")
        new_id = np.cumsum(mask, dtype=np.int64) - 1
        keep = mask[self.indices]
        return CSRMatrix(
            _masked_indptr(self.indptr, keep),
            new_id[self.indices[keep]],
            self.data[keep],
            (self.shape[0], int(mask.sum())),
        )

    def nonzero_columns(self) -> np.ndarray:
        """Sorted unique column ids that hold at least one nonzero."""
        return np.unique(self.indices)

    def prune_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop stored entries with ``|value| <= tol`` (a NaN is kept, as
        scipy's products keep it)."""
        keep = ~(np.abs(self.data) <= tol)
        return CSRMatrix(
            _masked_indptr(self.indptr, keep),
            self.indices[keep],
            self.data[keep],
            self.shape,
        )

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __matmul__(self, other):
        from .spgemm import spgemm
        from .spmm import spmm

        if isinstance(other, CSRMatrix):
            return spgemm(self, other)
        return spmm(self, np.asarray(other))

    def add(self, other: "CSRMatrix") -> "CSRMatrix":
        """Element-wise sum with another matrix of the same shape."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        rows = np.concatenate([self.row_ids(), other.row_ids()])
        cols = np.concatenate([self.indices, other.indices])
        vals = np.concatenate([self.data, other.data])
        return CSRMatrix.from_coo(rows, cols, vals, self.shape)

    def equal(self, other: "CSRMatrix", tol: float = 1e-12) -> bool:
        """Structural + numeric equality after pruning entries at ``tol``.

        Pruning uses ``tol`` (not 0) so that a cancellation one operand
        resolves to an exact 0.0 and another to ~1e-17 — kernels are free
        to differ in summation order — does not read as a structural
        mismatch.
        """
        a, b = self.prune_zeros(tol), other.prune_zeros(tol)
        return (
            a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.allclose(a.data, b.data, atol=tol)
        )

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


def _indptr_from_rows(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row pointer of entries whose row ids (in ``[0, n_rows)``) are ``rows``."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr


def _masked_indptr(indptr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """CSR row pointer of the entries ``mask`` keeps.

    ``indptr`` lays rows over ``mask`` (``mask[0]`` is entry ``indptr[0]``,
    so a row block's slice of a row pointer works as it is).  A prefix count
    of ``mask`` read at the row boundaries: no per-entry row ids.
    """
    kept = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=kept[1:])
    return kept[indptr - indptr[0]]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start+count)`` for each pair, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Entry j of pair i is start_i + (j - first slot of pair i): one repeat.
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out
