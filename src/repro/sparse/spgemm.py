"""Sparse general matrix-matrix multiplication (SpGEMM): the one kernel.

:func:`spgemm` is expand-sort-compress, the family of the GPU nsparse
kernels the paper uses: every nonzero ``A[i, j]`` contributes
``A[i, j] * B[j, :]`` to row ``i`` of the output, and
:meth:`CSRMatrix.from_coo` orders the expanded triplets by one flat
``row * n_cols + col`` key and sums duplicate keys.  A product whose left
operand is a unit row selector (GraphSAGE's ``Q``, LADIES' ``Q_R``, a walk
frontier) is a row gather of the right operand and runs as one.

Besides the kernel the module exposes :func:`spgemm_flops` (the
multiply-add count the simulated cost model charges) and
:func:`required_rows` (which rows of ``B`` an ``A`` block touches: the
sparsity-aware communication of the paper's Algorithm 2).
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, _ranges

__all__ = ["spgemm", "get_kernel", "spgemm_flops", "required_rows"]


def spgemm(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Compute ``a @ b`` for two CSR matrices (``ValueError`` on an
    inner-dimension mismatch).

    Every product in the repo — this function, ``a @ b``, the samplers,
    the cost recorder and the 1.5D SpGEMM — runs this body, and its bits
    are a contract (the golden sampler digests and every serving pin read
    them):

    * **Order.**  The expansion lists the partial products
      ``a[i, j] * b[j, k]`` in (a-entry, b-entry) order: ``a``'s entries
      row-major, each followed by its row of ``b`` in column order.  The
      stable single-key sort keeps that order among the products of one
      output entry, and one ``np.add.reduceat`` run sums them: the first
      product plus numpy's pairwise sum of the rest.  Two products are a
      left-to-right sum; three or more are not, so a strictly sequential
      kernel (scipy's ``csr_matmat``) can differ in the last bit on
      weighted operands.  Unit-weight products sum exact integers and
      agree under any order.
    * **Zeros.**  An entry whose products cancel keeps an explicit ``0.0``;
      an entry no product reaches is absent.
    * **Gather.**  When every row of ``a`` is one entry of value ``1.0``
      the result is ``b.extract_rows(a.indices)``: ``b``'s rows bit for
      bit, which is what the general path computes too (``1.0 * x`` is
      ``x``), without expanding or sorting anything.
    * **Scope.**  The bits are promised per numpy build, like
      :func:`~repro.sparse.spmm.spmm`'s per scipy build.
    """
    return _KERNEL.spgemm(a, b)


class _ESCKernel:
    """The object the body lives on.  :func:`spgemm` and ``a @ b`` look
    :meth:`spgemm` up on the one instance at call time, so a wrapper set
    on the class — ``benchmarks/e2e/trace.py`` finds it through
    :func:`get_kernel` — sees every product.  Kept only for that tracer
    (ROADMAP item 8 retargets it and deletes this class)."""

    def spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
        out_shape = (a.shape[0], b.shape[1])
        if a.nnz == 0 or b.nnz == 0:
            return CSRMatrix.zeros(out_shape)
        if _is_unit_row_selector(a):
            return b.extract_rows(a.indices)
        rows, cols, vals = _expand(a, b)
        return CSRMatrix.from_coo(rows, cols, vals, out_shape)


_KERNEL = _ESCKernel()


def get_kernel(name: str) -> _ESCKernel:
    """The one SpGEMM kernel object, for a tracer that wraps its class.
    ``"esc"`` is the only name (ROADMAP item 8 deletes this lookup)."""
    if name != "esc":
        raise ValueError(
            f"unknown kernel {name!r}: 'esc' is the only SpGEMM kernel"
        )
    return _KERNEL


def _is_unit_row_selector(a: CSRMatrix) -> bool:
    """True iff every row of ``a`` holds exactly one entry of value 1.0.

    The test is O(rows of ``a``) and only reached when ``a`` has as many
    entries as rows.
    """
    return (
        a.nnz == a.shape[0]
        and bool(np.all(np.diff(a.indptr) == 1))
        and bool(np.all(a.data == 1.0))
    )


def _expand(a: CSRMatrix, b: CSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of every partial product ``A[i, j] * B[j, :]``, in
    (a-entry, b-entry) order, duplicates not yet combined."""
    counts = b.nnz_per_row()[a.indices]  # expansion count per A nonzero
    take = _ranges(b.indptr[a.indices], counts)
    rows = np.repeat(a.row_ids(), counts)
    cols = b.indices[take]
    vals = np.repeat(a.data, counts) * b.data[take]
    return rows, cols, vals


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
