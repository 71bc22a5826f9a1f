"""Sparse-times-dense multiplication (SpMM), SDDMM, and flop accounting.

Forward propagation of a sampled minibatch is an SpMM between the sampled
adjacency matrix and the fetched feature matrix (paper section 6.2); the
backward pass multiplies by the transposed adjacency through the same entry
point (``transpose=True``), without building the transpose.
:func:`sddmm` is the companion sampled dense-dense product (per-edge score
computation, e.g. attention logits) restricted to a sparse pattern.

:func:`spmm` is the one SpMM every caller shares — ``a @ dense`` and
``gnn.layers`` — and it runs on ``scipy.sparse``'s compiled CSR kernel.
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

from .csr import CSRMatrix

__all__ = ["spmm", "sddmm", "spmm_flops"]


def spmm(
    a: CSRMatrix, dense: np.ndarray, *, transpose: bool = False
) -> np.ndarray:
    """Compute ``a @ dense`` — or ``a.T @ dense`` with ``transpose=True`` —
    where ``dense`` is a 2-D (or 1-D) array.

    The result is a fresh C-contiguous float64 array; each element is summed
    strictly left to right in CSR entry order, independently of every other
    row and feature column (see the module docstring — callers' digests
    depend on it).  No memory is held beyond the output.

    ``transpose=True`` runs scipy's CSC kernel over ``a``'s own arrays (the
    backward pass's ``A^T dy``, with no transpose built): element ``(c, k)``
    is the strict left-to-right sum from ``0.0`` over column ``c``'s entries,
    rows in ascending order.
    """
    dense = np.asarray(dense, dtype=np.float64)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got {dense.ndim}-D")
    shape = a.shape[::-1] if transpose else a.shape
    if shape[1] != dense.shape[0]:
        raise ValueError(f"inner dimensions differ: {shape} @ {dense.shape}")
    out = a.to_scipy(transpose=transpose) @ dense
    return out[:, 0] if squeeze else out


def sddmm(pattern: CSRMatrix, x: np.ndarray, y: np.ndarray) -> CSRMatrix:
    """Sampled dense-dense matmul: ``out[i, j] = pattern[i, j] * <x[i], y[j]>``
    for every stored ``(i, j)`` of ``pattern``.

    ``x`` is ``(m, f)`` and ``y`` is ``(n, f)`` for an ``(m, n)`` pattern —
    both operands row-major, as in per-edge attention scoring.  The output
    shares the pattern's structure exactly (explicit zeros included).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"operands must be 2-D with matching feature dims, got "
            f"{x.shape} and {y.shape}"
        )
    if x.shape[0] != pattern.shape[0] or y.shape[0] != pattern.shape[1]:
        raise ValueError(
            f"pattern {pattern.shape} needs x with {pattern.shape[0]} rows "
            f"and y with {pattern.shape[1]} rows, got {x.shape} and {y.shape}"
        )
    if pattern.nnz == 0:
        return pattern.copy()
    dots = np.einsum(
        "ij,ij->i", x[pattern.row_ids()], y[pattern.indices]
    )
    return CSRMatrix(
        pattern.indptr.copy(),
        pattern.indices.copy(),
        pattern.data * dots,
        pattern.shape,
    )


def spmm_flops(a: CSRMatrix, n_features: int) -> int:
    """Multiply-add count of an SpMM with ``n_features`` dense columns."""
    return 2 * a.nnz * int(n_features)
