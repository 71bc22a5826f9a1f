"""Sparse-times-dense multiplication (SpMM), SDDMM, and flop accounting.

Forward propagation of a sampled minibatch is an SpMM between the sampled
adjacency matrix and the fetched feature matrix (paper section 6.2); the
backward pass reuses the same kernel with the transposed adjacency.
:func:`sddmm` is the companion sampled dense-dense product (per-edge score
computation, e.g. attention logits) restricted to a sparse pattern.

:func:`spmm` is the one SpMM body every numpy-backed caller shares, and
its *bits* are part of the repo's contract (golden training losses, the
pinned serving digest).  Per output element ``(i, k)`` it computes::

    first + pairwise(rest)      # over a.data[e] * dense[a.indices[e], k],
                                # e in CSR entry order of row i

i.e. one ``np.add.reduceat`` segment per row: the segment's first product,
plus numpy's pairwise sum of the remaining ones.  The layout is
*feature-major*: products live in an ``(f, nnz)`` array so each segment is
contiguous in memory, and rows are processed in slabs so that temporary
stays near ``_SLAB_ELEMS`` float64 however large the operands are.  Layout
and slabbing do not touch the association, so they do not touch the bits.

Kernels that *do* associate differently are therefore not drop-in
replacements, however close numerically: ``scipy.sparse``'s CSR kernel
accumulates ``0 + a*x`` left to right (and its compiler may contract to
FMA), ``np.add.at`` is a strict left-to-right scatter, a slot-by-slot
sweep (``out += a[:, j] * dense[col_j]``) is left to right as well, and
reassociating to ``A (H W)`` changes every product.  Each gives an
``allclose`` result and a different serve digest.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix

__all__ = ["spmm", "sddmm", "spmm_flops"]

#: Upper target, in float64 elements (8 MiB), for the ``(f, nnz_slab)``
#: product temporary of :func:`spmm`.  An internal blocking constant like
#: numpy's own pairwise-sum block, not a tunable.
_SLAB_ELEMS = 1 << 20


def _dense_operand(a: CSRMatrix, dense: np.ndarray) -> tuple[np.ndarray, bool]:
    """The right operand of ``a @ dense`` as 2-D float64, validated, plus
    whether it was 1-D — the one operand check every SpMM backend shares."""
    dense = np.asarray(dense, dtype=np.float64)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got {dense.ndim}-D")
    if a.shape[1] != dense.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {dense.shape}")
    return dense, squeeze


def spmm(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Compute ``a @ dense`` where ``dense`` is a 2-D (or 1-D) array.

    The result is a fresh C-contiguous float64 array.  Each output element
    is one ``np.add.reduceat`` segment over its row's products in CSR
    entry order (see the module docstring for the exact association, which
    callers' digests depend on).  Memory held beyond the output: the
    ``(f, n)`` transpose of ``dense`` and one ``(f, nnz_slab)`` temporary
    of about ``_SLAB_ELEMS`` elements — a row with more entries than that
    forms a slab of its own.
    """
    dense, squeeze = _dense_operand(a, dense)
    n_features = dense.shape[1]
    out = np.zeros((a.shape[0], n_features), dtype=np.float64)
    if a.nnz:
        dense_t = np.ascontiguousarray(dense.T)
        # CSR entries are already grouped by row, so a segmented reduction
        # over non-empty rows is exact (and far faster than scatter-add).
        nonempty = np.flatnonzero(np.diff(a.indptr) > 0)
        starts = a.indptr[nonempty]
        # Slabs of whole rows: cut at the first row start at or after each
        # multiple of the per-slab entry budget.
        budget = max(1, _SLAB_ELEMS // max(1, n_features))
        cuts = np.unique(
            np.append(
                np.searchsorted(starts, np.arange(0, a.nnz, budget)),
                nonempty.size,
            )
        )
        bounds = np.append(starts, a.nnz)[cuts]
        for i, j, lo, hi in zip(cuts[:-1], cuts[1:], bounds[:-1], bounds[1:]):
            contrib = np.take(dense_t, a.indices[lo:hi], axis=1)
            np.multiply(a.data[lo:hi], contrib, out=contrib)
            out[nonempty[i:j]] = np.add.reduceat(
                contrib, starts[i:j] - lo, axis=1
            ).T
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
