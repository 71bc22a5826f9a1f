"""Sparse general matrix-matrix multiplication (SpGEMM): the one kernel.

:func:`spgemm` calls scipy's compiled ``csr_matmat`` — the row-wise
accumulator SpGEMM — directly on both operands' own int64 / float64 arrays
(``csr_matmat_maxnnz`` sizes the output; ``csr_sort_indices``, or for long
rows two ``csr_tocsc`` counting passes, sorts each output row's columns),
with no scipy matrix built per call.  Two selector
products skip the accumulator: one whose left operand has at most one
``1.0`` per row (GraphSAGE's ``Q``, LADIES' ``Q_R`` and their 1.5D stage
slices) is a row gather of the right operand, and one whose right operand
is a unit column selector (LADIES' ``Q_C``) is a column gather of the left
operand, scipy's ``csr_column_index1`` / ``csr_column_index2``.

Besides the kernel the module exposes :func:`spgemm_flops` (the
multiply-add count the simulated cost model charges) and
:func:`required_rows` (which rows of ``B`` an ``A`` block touches: the
sparsity-aware communication of the paper's Algorithm 2).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import (
    csr_column_index1,
    csr_column_index2,
    csr_matmat,
    csr_matmat_maxnnz,
    csr_sort_indices,
    csr_tocsc,
)

from .csr import CSRMatrix

__all__ = ["spgemm", "get_kernel", "spgemm_flops", "required_rows"]


def spgemm(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Compute ``a @ b`` for two CSR matrices (``ValueError`` on an
    inner-dimension mismatch).

    Every product in the repo — this function, ``a @ b``, the samplers,
    the cost recorder and the 1.5D SpGEMM — runs this body, and its bits
    are a contract (the golden sampler digests and every serving pin read
    them).  It is :func:`~repro.sparse.spmm.spmm`'s order rule:

    * **Order.**  Each output entry ``(i, k)`` is the strict left-to-right
      sum ``((0 + p1) + p2) + ...`` from ``0.0`` over its partial products
      ``a[i, j] * b[j, k]`` in (a-entry, b-entry) order: ``a``'s entries of
      row ``i`` in column order, each followed by its row of ``b``.
    * **Zeros.**  An entry whose sum is exactly zero — a cancellation, or
      products of stored zeros — is absent, as is an entry no product
      reaches.  Columns are sorted within each row.
    * **Gather.**  When every row of ``a`` holds at most one entry and each
      is ``1.0`` — a unit row selector, or one with empty rows, like a 1.5D
      stage's slice of one — output row ``i`` is ``b``'s row ``j`` for
      ``a``'s entry ``(i, j)`` and empty for an empty row, minus ``b``'s
      stored zeros: what the general path computes too (``0.0 + 1.0 * x``
      is ``x``), without the accumulator.
    * **Columns.**  When every row of ``b`` holds at most one entry, each
      is ``1.0``, and ``b``'s column ids increase strictly in entry order —
      :func:`~repro.sparse.col_selector` of sorted distinct ids — output
      entry ``(i, k)`` is ``a[i, j]`` for ``b``'s entry ``(j, k)``, minus
      ``a``'s stored zeros (``0.0`` and ``-0.0`` go, NaN stays): again the
      general path's one partial product, copied in row order, sorted
      because ``k`` grows with ``j``.
    * **Scope.**  The bits are promised per build of scipy's kernel, like
      SpMM's (a compiler that contracts ``sum + a * b`` into an FMA rounds
      once where this one rounds twice; ``tests/test_gnn.py::_spgemm_probe``
      names such a build).
    """
    return _KERNEL.spgemm(a, b)


class _Kernel:
    """The object the body lives on.  :func:`spgemm` and ``a @ b`` look
    :meth:`spgemm` up on the one instance at call time, so a wrapper set
    on the class — ``benchmarks/e2e/trace.py`` finds it through
    :func:`get_kernel` — sees every product.  Kept only for that tracer
    (ROADMAP item 0 retargets it and deletes this class)."""

    def spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
        out_shape = (a.shape[0], b.shape[1])
        if a.nnz == 0 or b.nnz == 0:
            return CSRMatrix.zeros(out_shape)
        if _is_row_gather(a):
            rows = b.extract_rows(a.indices)
            out = CSRMatrix(rows.indptr[a.indptr], rows.indices, rows.data, out_shape)
        elif _is_column_selector(b):
            out = _column_gather(a, b)
        else:
            return _matmat(a, b)
        # A gather copies stored zeros, which the accumulator drops.
        return out.prune_zeros() if (out.data == 0).any() else out


_KERNEL = _Kernel()


def get_kernel(name: str) -> _Kernel:
    """The one SpGEMM kernel object, for a tracer that wraps its class.
    ``"esc"`` is its only name — the legacy one, from when the body was
    expand-sort-compress (ROADMAP item 0 deletes this lookup)."""
    if name != "esc":
        raise ValueError(
            f"unknown kernel {name!r}: 'esc' is the only SpGEMM kernel"
        )
    return _KERNEL


def _is_row_gather(a: CSRMatrix) -> bool:
    """True iff every row of ``a`` holds at most one entry, and each entry
    is ``1.0``.

    The test is O(rows of ``a``) and only reached when ``a`` has no more
    entries than rows.
    """
    return (
        a.nnz <= a.shape[0]
        and bool(np.all(np.diff(a.indptr) <= 1))
        and bool(np.all(a.data == 1.0))
    )


def _is_column_selector(b: CSRMatrix) -> bool:
    """True iff every row of ``b`` holds at most one entry, each entry is
    ``1.0``, and ``b.indices`` increases strictly.

    O(rows of ``b``), and only reached when ``b`` has no more entries than
    rows.
    """
    return (
        b.nnz <= b.shape[0]
        and bool(np.all(np.diff(b.indptr) <= 1))
        and bool(np.all(b.data == 1.0))
        and bool(np.all(b.indices[1:] > b.indices[:-1]))
    )


def _column_gather(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """``a @ b`` for a unit column selector ``b``: scipy's column indexing
    (``csr_column_index1`` counts and lays out the rows,
    ``csr_column_index2`` copies) on ``a``'s own arrays.

    The column ids asked for are the rows of ``b`` holding an entry, in
    entry order, so ascending; the output column of the ``k``-th is
    ``b.indices[k]`` — passed as the kernel's ``col_order``, which
    ``arange`` would only match when ``b`` skips no column.  Stored zeros
    are copied like any value.
    """
    n_rows, n_inner = a.shape
    picked = np.flatnonzero(b.indptr[1:] != b.indptr[:-1])
    offsets = np.zeros(n_inner, dtype=np.int64)
    indptr = np.empty(n_rows + 1, dtype=np.int64)
    csr_column_index1(
        picked.size, picked, n_rows, n_inner, a.indptr, a.indices,
        offsets, indptr,
    )
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=np.float64)
    csr_column_index2(b.indices, offsets, a.nnz, a.indices, a.data, indices, data)
    return CSRMatrix(indptr, indices, data, (n_rows, b.shape[1]))


def _matmat(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """``a @ b`` by scipy's ``csr_matmat`` into int64 / float64 buffers
    sized by ``csr_matmat_maxnnz``: the kernel and dtypes scipy's ``@``
    runs on int64 operands, without the three matrix objects it builds
    around them.  Then each row's columns are sorted; they are distinct,
    so how they are sorted moves no bit.

    ``csr_sort_indices`` (what scipy's ``sort_indices`` runs) sorts row by
    row, O(nnz log row length).  Products whose rows average 256 or more
    entries over at most ``4 * nnz`` rows plus columns — LADIES' and
    FastGCN's ``P = Q A``, a few rows of thousands of columns — are
    bucketed instead by two stable counting passes, scipy's transpose
    there and back (``csr_tocsc`` twice, as :meth:`CSRMatrix.from_coo`
    does), O(nnz + rows + columns).  On one row of 8 192 columns the
    passes take 0.3x of the sort at 4 096 entries and 0.7x at 2 048; on
    256 rows of 16 entries, which the row-length bound keeps on the sort,
    2.4x (one Xeon core, scipy 1.17).
    """
    n_rows, n_cols = a.shape[0], b.shape[1]
    cap = csr_matmat_maxnnz(n_rows, n_cols, a.indptr, a.indices, b.indptr, b.indices)
    indptr = np.empty(n_rows + 1, dtype=np.int64)
    indices = np.empty(cap, dtype=np.int64)
    data = np.empty(cap, dtype=np.float64)
    csr_matmat(
        n_rows, n_cols, a.indptr, a.indices, a.data,
        b.indptr, b.indices, b.data, indptr, indices, data,
    )
    nnz = int(indptr[-1])
    if nnz < 256 * n_rows or n_rows + n_cols > 4 * nnz:
        indices, data = indices[:nnz], data[:nnz]
        csr_sort_indices(n_rows, indptr, indices, data)
        return CSRMatrix(indptr, indices, data, (n_rows, n_cols))
    col_ptr = np.empty(n_cols + 1, dtype=np.int64)
    col_rows = np.empty(nnz, dtype=np.int64)
    col_data = np.empty(nnz, dtype=np.float64)
    csr_tocsc(n_rows, n_cols, indptr, indices, data, col_ptr, col_rows, col_data)
    del indices, data
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=np.float64)
    csr_tocsc(n_cols, n_rows, col_ptr, col_rows, col_data, indptr, indices, data)
    return CSRMatrix(indptr, indices, data, (n_rows, n_cols))


def spgemm_flops(a: CSRMatrix, b: CSRMatrix) -> int:
    """Multiply-add count of ``a @ b`` (size of the expanded intermediate)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return 0
    return int(b.nnz_per_row()[a.indices].sum())


def required_rows(a: CSRMatrix, n_rows_b: int) -> np.ndarray:
    """Rows of the right-hand matrix actually read when computing ``a @ b``.

    These are exactly the nonzero column ids of ``a``.  In the 1.5D
    sparsity-aware algorithm only these rows of ``A_k`` are communicated
    instead of broadcasting the whole block row.
    """
    cols = a.nonzero_columns()
    if cols.size and cols[-1] >= n_rows_b:
        raise ValueError("a has columns beyond the right matrix's row count")
    return cols
