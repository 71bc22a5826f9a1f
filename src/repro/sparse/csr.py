"""Compressed sparse row matrices built on numpy arrays.

This is the sparse substrate the paper's sampling framework runs on.  The
paper uses cuSPARSE/nsparse CSR kernels on GPU; here the per-entry work
runs in scipy's compiled CSR routines, called directly on this class's own
int64 / float64 arrays: the two products (``csr_matmat`` and the gathers
of :func:`~repro.sparse.spgemm`, ``csr_matvecs`` of
:func:`~repro.sparse.spmm`) and four structural operations —
``_sparsetools.csr_row_index`` (the row gather of
:meth:`CSRMatrix.extract_rows`), ``csr_plus_csr`` (:meth:`CSRMatrix.add`),
``csr_matvec`` (the row sums of :func:`~repro.sparse.ops.row_normalize`)
and ``coo_tocsr`` then ``csr_tocsc`` (the two counting passes that bucket
a graph's edge list in :meth:`CSRMatrix.from_coo`).
They are called directly because the public entry points cost more than
they save: a ``scipy.sparse`` matrix built from these arrays, its
``__getitem__`` and ``+`` downcast the indices to int32 (a copy of the
whole index array, and another to cast back), every ``@`` builds and
checks matrix objects per call, and ``coo_matrix.tocsr`` downcasts too
and sums duplicates in another order.  No ``scipy.sparse`` matrix is built
anywhere.  Every output is a
fresh C-contiguous buffer: the routines dispatch on the operands' dtypes
and write only into buffers of exactly those dtypes.  A row copy or a
bucket scatter does no arithmetic, ``x * 1.0`` is exact, and
``csr_plus_csr`` is the kernel scipy's ``+`` runs, so none of them moves a
bit.  The other
structural operations are vectorized numpy.  Only CSR supports SpGEMM
(matching the constraint the paper works around in section 8.2.2), so
everything funnels through this class.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.sparse import _sparsetools

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

        Entries are ordered by ``(row, col)``, duplicates of one pair keeping
        their input order, and the duplicates are summed by one
        ``np.add.reduceat`` run: the first value plus numpy's pairwise sum of
        the rest (left to right for two, not beyond).  Which of four paths
        produces that order does not show in the result:

        * input already in row-major order (a ``to_coo`` round trip) is
          detected with one linear pass over the flat keys
          ``row * n_cols + col`` and not sorted at all;
        * unsorted input over an index space no larger than twice its
          entries (``n_rows + n_cols <= 2 * nnz``: the edge list of any
          graph of average degree 1 or more) is bucketed by column and then
          by row with two stable counting passes, scipy's compiled
          ``coo_tocsr`` and ``csr_tocsc`` — an LSD radix sort,
          O(nnz + n_rows + n_cols);
        * any other unsorted input takes one stable argsort of the flat
          keys, which merges concatenated sorted runs in near-linear time
          and allocates nothing of the index space's size;
        * shapes whose flat key space does not fit int64 fall back to a
          two-key lexsort.

        The shape rule keeps the counting passes where they win.  On random
        triplets (one Xeon core, 10 to 1e6 entries) they take 0.25x to 0.6x
        of the argsort wherever ``n_rows + n_cols <= 2 * nnz``, and break
        even near ``16 * nnz``, where the passes' two pointer arrays over
        the index space cost what the log factor saves; the factor 2 keeps
        a wide margin below that, and sparse selectors (a few rows over all
        of a graph's columns) on the argsort.  Row-major input keeps the
        linear check, which costs 1.7x to 4x less than the two passes from
        1e4 entries up.  The returned arrays never alias the caller's.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = None if vals is None else np.asarray(vals, dtype=np.float64)
        if rows.shape != cols.shape or (data is not None and data.shape != rows.shape):
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
        presorted = keys.size < 2 or bool(np.all(keys[1:] >= keys[:-1]))
        if not presorted and n_rows + n_cols <= 2 * keys.size:
            del keys
            return cls._from_coo_counting(
                rows, cols, data, (n_rows, n_cols), sum_duplicates
            )
        del rows, cols  # re-derived from the keys once those are final
        if data is None:
            data = np.ones(keys.size, dtype=np.float64)
        if not presorted:
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
    def _from_coo_counting(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None,
        shape: tuple[int, int],
        sum_duplicates: bool,
    ) -> "CSRMatrix":
        """:meth:`from_coo` for validated, unsorted triplets over a small
        index space: two stable counting passes, same order and same sums.

        The values ride through both passes (no permutation, no gathers).
        Absent values ride as a one-byte marker and become float64 counts
        after the merge: a run of ``k`` ones sums to exactly ``k`` on every
        path, so no bit moves.  Each pass's buffers are freed before the
        next is allocated, which keeps the peak under the argsort's.
        """
        n_rows, n_cols = shape
        nnz = rows.size
        carried = np.ones(nnz, dtype=np.int8) if vals is None else vals
        # Bucket by column, input order kept inside each column ...
        col_ptr = np.empty(n_cols + 1, dtype=np.int64)
        by_col_rows = np.empty(nnz, dtype=np.int64)
        by_col_data = np.empty(nnz, dtype=carried.dtype)
        _sparsetools.coo_tocsr(
            n_cols, n_rows, nnz, cols, rows, carried,
            col_ptr, by_col_rows, by_col_data,
        )
        del carried
        # ... then by row, walking the columns in order: scipy's transpose.
        indptr = np.empty(n_rows + 1, dtype=np.int64)
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=by_col_data.dtype)
        _sparsetools.csr_tocsc(
            n_cols, n_rows, col_ptr, by_col_rows, by_col_data,
            indptr, indices, data,
        )
        del col_ptr, by_col_rows, by_col_data
        if sum_duplicates and nnz > 1:
            # A run starts wherever the column changes or a row starts
            # (check()'s exemption), so no flat key is built.
            first = np.empty(nnz, dtype=bool)
            first[0] = True
            np.not_equal(indices[1:], indices[:-1], out=first[1:])
            row_starts = indptr[1:-1]
            first[row_starts[row_starts < nnz]] = True
            if not first.all():
                starts = np.flatnonzero(first)
                del first
                indptr = np.searchsorted(starts, indptr)  # runs before each row
                indices = indices[starts]
                if vals is None:
                    data = np.empty(starts.size, dtype=np.float64)
                    np.subtract(starts[1:], starts[:-1], out=data[:-1])
                    data[-1] = nnz - starts[-1]
                else:
                    data = np.add.reduceat(data, starts)
                return cls(indptr, indices, data, shape)
        if vals is None:
            data = np.ones(nnz, dtype=np.float64)
        return cls(indptr, indices, data, shape)

    @classmethod
    def _from_coo_lexsort(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray | None,
        shape: tuple[int, int],
        sum_duplicates: bool,
    ) -> "CSRMatrix":
        """:meth:`from_coo` for validated triplets whose flat key would
        overflow int64: the two-key sort, same order and same sums."""
        if vals is None:
            vals = np.ones(rows.size, dtype=np.float64)
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
    # Buffer export
    # ------------------------------------------------------------------ #
    def buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three CSR arrays ``(indptr, indices, data)``, by reference.

        The constructor normalizes to contiguous int64/int64/float64;
        mutating them mutates the matrix.
        """
        return self.indptr, self.indices, self.data

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

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape
        )

    # ------------------------------------------------------------------ #
    # Structural operations
    # ------------------------------------------------------------------ #
    def extract_rows(self, rows: Iterable[int] | np.ndarray) -> "CSRMatrix":
        """Gather ``rows`` (in the given order, duplicates allowed) into a new matrix.

        The copy itself is scipy's compiled ``csr_row_index``: no per-entry
        take-list.  The result never aliases this matrix's arrays.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise IndexError("row index out of range")
        # Lengths of the asked-for rows only: O(len(rows)), not a diff over
        # the whole matrix's indptr.
        counts = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz, dtype=np.float64)
        _sparsetools.csr_row_index(
            rows.size, rows, self.indptr, self.indices, self.data, indices, data
        )
        return CSRMatrix(indptr, indices, data, (rows.size, self.shape[1]))

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
        """Element-wise sum with another matrix of the same shape.

        scipy's compiled merge of two canonical CSR matrices
        (``csr_plus_csr``, the kernel scipy's ``+`` runs), called on the
        operands' own arrays into int64 / float64 buffers of
        ``nnz(self) + nnz(other)`` entries and trimmed: one linear pass, no
        int32 round trip.  An entry both hold is ``self``'s value plus
        ``other``'s, rounded once; an entry one holds is its value.  An
        entry whose sum is exactly zero — a cancellation, or a stored
        ``0.0`` / ``-0.0`` — is absent, as in :func:`~repro.sparse.spgemm`;
        NaN and ±inf stay.
        """
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        n_rows, n_cols = self.shape
        cap = self.nnz + other.nnz
        indptr = np.empty(n_rows + 1, dtype=np.int64)
        indices = np.empty(cap, dtype=np.int64)
        data = np.empty(cap, dtype=np.float64)
        _sparsetools.csr_plus_csr(
            n_rows, n_cols, self.indptr, self.indices, self.data,
            other.indptr, other.indices, other.data, indptr, indices, data,
        )
        nnz = int(indptr[-1])
        return CSRMatrix(indptr, indices[:nnz], data[:nnz], self.shape)

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
    so a row block's slice of a row pointer works as it is).  Each boundary
    is the number of kept entries before it, found by a binary search in
    the kept positions: no per-entry row ids, no prefix count over every
    entry.
    """
    return np.searchsorted(np.flatnonzero(mask), indptr - indptr[0])
