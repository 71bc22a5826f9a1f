"""Sparse-times-dense multiplication (SpMM) and its flop accounting.

Forward propagation of a sampled minibatch is an SpMM between the sampled
adjacency matrix and the fetched feature matrix (paper section 6.2); the
backward pass multiplies by the transposed adjacency through the same entry
point (``transpose=True``), without building the transpose.

:func:`spmm` is the one SpMM every caller shares — ``a @ dense`` and
``gnn.layers`` — and it calls ``scipy.sparse``'s compiled kernels on the
matrix's own arrays: ``_sparsetools.csr_matvecs`` (``csc_matvecs`` for the
transpose, the mat-vecs for one dense column), the kernels ``csr_matrix @
dense`` runs, with no scipy matrix built per call.
Its *bits* are part of the repo's contract (golden training losses, the
pinned serving digests), and this is the whole contract:

* **Order.**  Each output element ``(i, k)`` is the strict left-to-right
  sum ``((0 + a1*x1) + a2*x2) + ...`` over ``a.data[e] * dense[a.indices[e],
  k]``, ``e`` in CSR entry order of row ``i`` — what ``np.add.at`` over the
  same products computes, bit for bit.  Transposed (``transpose=True``),
  element ``(c, k)`` sums the entries ``a[r, c] * dense[r, k]`` over rows
  ``r`` in ascending order, strictly left to right: bitwise the product
  with ``a``'s CSR transpose.  :func:`~repro.sparse.spgemm.spgemm` sums by
  the same rule.
* **Independence.**  A row's result depends on no other row, and a feature
  column's on no other column: ``spmm(a.extract_rows(r), x)`` is
  ``spmm(a, x)[r]`` and ``spmm(a, x[:, cols])`` is ``spmm(a, x)[:, cols]``,
  bitwise.  Exact serving, the embedding cache, workers-0-vs-N and
  fleet-shape invariance rest on this.
* **Width.**  A float32 dense operand — the model's one width — runs
  scipy's float32 kernel: ``a``'s float64 values are rounded once to
  float32 and every product and partial sum above is a float32 operation,
  in the same order.  Any other dense operand runs in float64.  ``a``
  itself stays float64 (sampling needs the headroom), so a row-normalized
  adjacency is normalized in float64 before that one rounding.
* **Scope.**  Bit-identity is promised *per build of the kernel*; across
  builds (a compiler that contracts ``y + a*x`` to one FMA rounds once where
  this box rounds twice) results are ``allclose``, and the pinned digests
  skip themselves when ``tests/test_gnn.py::_spmm_probe`` (or
  ``_spgemm_probe``) sees such a build.

Kernels that associate differently are not drop-in replacements, however
close numerically: numpy's segmented reduction sums a row as its first
product plus the *pairwise* sum of the rest (the body this module had
before; now the ``allclose`` oracle in ``tests/test_spmm_layout.py``), and
reassociating to ``A (H W)`` changes every product.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from .csr import CSRMatrix

__all__ = ["spmm", "spmm_flops"]


def spmm(
    a: CSRMatrix, dense: np.ndarray, *, transpose: bool = False
) -> np.ndarray:
    """Compute ``a @ dense`` — or ``a.T @ dense`` with ``transpose=True`` —
    where ``dense`` is a 2-D (or 1-D) array.

    The result is a fresh C-contiguous array in ``dense``'s width — float32
    for a float32 operand, float64 for any other; each element is summed
    strictly left to right in CSR entry order, independently of every other
    row and feature column (see the module docstring — callers' digests
    depend on it).  No memory is held beyond the output and, for a float32
    operand, ``a``'s values rounded to float32.

    ``transpose=True`` runs scipy's CSC kernel over ``a``'s own arrays (the
    backward pass's ``A^T dy``, with no transpose built): element ``(c, k)``
    is the strict left-to-right sum from ``0.0`` over column ``c``'s entries,
    rows in ascending order.
    """
    dense = np.asarray(dense)
    width = np.float32 if dense.dtype == np.float32 else np.float64
    dense = dense.astype(width, copy=False)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got {dense.ndim}-D")
    shape = a.shape[::-1] if transpose else a.shape
    if shape[1] != dense.shape[0]:
        raise ValueError(f"inner dimensions differ: {shape} @ {dense.shape}")
    # The kernels ``csr_matrix @ dense`` (``csc_matrix`` for the transpose)
    # runs, called on ``a``'s own arrays: one column takes the mat-vec, more
    # take the multi-vector kernel, each adding into a zeroed output.
    n_rows, n_cols = shape
    k = dense.shape[1]
    data = a.data.astype(width, copy=False)
    out = np.zeros((n_rows, k), dtype=width)
    if k == 1:
        kernel = _sparsetools.csc_matvec if transpose else _sparsetools.csr_matvec
        kernel(n_rows, n_cols, a.indptr, a.indices, data, dense.ravel(), out.ravel())
    else:
        kernel = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
        kernel(
            n_rows, n_cols, k, a.indptr, a.indices, data, dense.ravel(), out.ravel()
        )
    return out[:, 0] if squeeze else out


def spmm_flops(a: CSRMatrix, n_features: int) -> int:
    """Multiply-add count of an SpMM with ``n_features`` dense columns."""
    return 2 * a.nnz * int(n_features)
