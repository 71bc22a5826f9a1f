"""Sparse general matrix-matrix multiplication (SpGEMM): the one kernel.

:func:`spgemm` runs scipy's compiled ``csr_matmat`` — the row-wise
accumulator SpGEMM — on :meth:`CSRMatrix.to_scipy`'s zero-copy int64 views
of both operands, and sorts each output row's columns.  A product whose left
operand has at most one ``1.0`` per row (GraphSAGE's ``Q``, LADIES' ``Q_R``
and their 1.5D stage slices) is a row gather of the right operand and runs
as one.

Besides the kernel the module exposes :func:`spgemm_flops` (the
multiply-add count the simulated cost model charges) and
:func:`required_rows` (which rows of ``B`` an ``A`` block touches: the
sparsity-aware communication of the paper's Algorithm 2).
"""

from __future__ import annotations

import numpy as np

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
            rows = CSRMatrix(rows.indptr[a.indptr], rows.indices, rows.data, out_shape)
            return rows.prune_zeros() if (rows.data == 0).any() else rows
        out = a.to_scipy() @ b.to_scipy()
        out.sort_indices()
        return CSRMatrix(out.indptr, out.indices, out.data, out_shape)


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
