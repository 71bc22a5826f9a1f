"""Structural sparse operations used by the sampling framework.

These are the building blocks of the paper's matrix constructions:

* :func:`vstack` — Equation 1's vertical stacking of per-minibatch
  ``Q`` / ``P`` / ``A^l`` matrices into one bulk matrix.
* :func:`block_diag` — the block-diagonal expansion of the stacked ``A_R``
  used by LADIES bulk column extraction (section 4.2.4).
* :func:`row_selector` / :func:`col_selector` / :func:`indicator_rows` —
  the ``Q``, ``Q_R`` and ``Q_C`` extraction-matrix constructions.
* :func:`row_normalize` — the NORM step of Algorithm 1.
* :func:`compact_columns` — dropping empty columns of ``Q^{l-1}`` to form a
  sampled adjacency matrix (GraphSAGE extraction, section 4.1.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .csr import CSRMatrix, _indptr_from_rows

__all__ = [
    "vstack",
    "block_diag",
    "row_selector",
    "col_selector",
    "indicator_rows",
    "row_normalize",
    "row_normalize_inplace",
    "compact_columns",
]


def vstack(mats: Sequence[CSRMatrix]) -> CSRMatrix:
    """Stack matrices vertically; all must share a column count."""
    if not mats:
        raise ValueError("need at least one matrix to stack")
    n_cols = mats[0].shape[1]
    if any(m.shape[1] != n_cols for m in mats):
        raise ValueError("all matrices must have the same number of columns")
    indptr_parts = [mats[0].indptr]
    offset = mats[0].nnz
    for m in mats[1:]:
        indptr_parts.append(m.indptr[1:] + offset)
        offset += m.nnz
    return CSRMatrix(
        np.concatenate(indptr_parts),
        np.concatenate([m.indices for m in mats]),
        np.concatenate([m.data for m in mats]),
        (sum(m.shape[0] for m in mats), n_cols),
    )


def block_diag(mats: Sequence[CSRMatrix]) -> CSRMatrix:
    """Place matrices along the diagonal of an otherwise-zero matrix."""
    if not mats:
        raise ValueError("need at least one matrix")
    row_off = np.cumsum([0] + [m.shape[0] for m in mats])
    col_off = np.cumsum([0] + [m.shape[1] for m in mats])
    indptr_parts = [mats[0].indptr]
    nnz_off = mats[0].nnz
    for m in mats[1:]:
        indptr_parts.append(m.indptr[1:] + nnz_off)
        nnz_off += m.nnz
    indices = np.concatenate(
        [m.indices + off for m, off in zip(mats, col_off[:-1])]
    )
    data = np.concatenate([m.data for m in mats])
    return CSRMatrix(
        np.concatenate(indptr_parts),
        indices,
        data,
        (int(row_off[-1]), int(col_off[-1])),
    )


def row_selector(vertices: np.ndarray, n: int) -> CSRMatrix:
    """The GraphSAGE ``Q`` / LADIES ``Q_R`` construction.

    One row per vertex in ``vertices``; row ``i`` has a single 1 in column
    ``vertices[i]``.  Multiplying ``row_selector(v, n) @ A`` gathers the
    adjacency rows of the selected vertices, in order.
    """
    vertices = _vertex_ids(vertices, n)
    return CSRMatrix(
        np.arange(vertices.size + 1, dtype=np.int64),
        vertices.copy(),
        np.ones(vertices.size, dtype=np.float64),
        (vertices.size, n),
    )


def col_selector(vertices: np.ndarray, n: int) -> CSRMatrix:
    """The LADIES ``Q_C`` construction (section 4.2.3).

    An ``n x len(vertices)`` matrix with one 1 per column, at the row index
    of each vertex to extract; ``A_R @ col_selector(v, n)`` gathers columns.
    It is the transpose of :func:`row_selector`, built directly: row ``u``
    holds the positions ``i`` with ``vertices[i] == u``, ascending.
    """
    vertices = _vertex_ids(vertices, n)
    return CSRMatrix(
        _indptr_from_rows(vertices, n),
        np.argsort(vertices, kind="stable"),
        np.ones(vertices.size, dtype=np.float64),
        (n, vertices.size),
    )


def _vertex_ids(vertices: np.ndarray, n: int) -> np.ndarray:
    """``vertices`` as a 1-D int64 array of ids in ``[0, n)``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.ndim != 1:
        raise ValueError("vertices must be a 1-D array")
    if vertices.size and (vertices.min() < 0 or vertices.max() >= n):
        raise ValueError(f"vertex id out of range [0, {n})")
    return vertices


def indicator_rows(batches: Sequence[np.ndarray], n: int) -> CSRMatrix:
    """The LADIES ``Q^L`` construction: one row per batch, ``b`` ones per row.

    Row ``i`` has a 1 in column ``v`` for every vertex ``v`` in batch ``i``.
    """
    if not batches:
        raise ValueError("need at least one batch")
    rows = np.concatenate(
        [np.full(len(b), i, dtype=np.int64) for i, b in enumerate(batches)]
    )
    cols = np.concatenate([np.asarray(b, dtype=np.int64) for b in batches])
    return CSRMatrix.from_coo(rows, cols, None, (len(batches), n))


def row_normalize(mat: CSRMatrix) -> CSRMatrix:
    """Divide each row by its sum so each row becomes a distribution.

    Rows that sum to zero are left untouched (they stay empty / all-zero).
    Division is done directly (not via a reciprocal) so rows with subnormal
    sums normalize cleanly instead of overflowing to inf.
    """
    return row_normalize_inplace(mat.copy())


def row_normalize_inplace(mat: CSRMatrix) -> CSRMatrix:
    """:func:`row_normalize`, overwriting ``mat.data`` instead of copying.

    Bit-identical values to :func:`row_normalize` (which runs this on a
    copy).  Callers must own ``mat`` — a plan executor's NORM step does,
    since the probability matrix it holds is always one it computed.
    """
    if mat.nnz == 0:
        return mat
    # One row-id expansion serves the per-row sum and its gather back.
    rows = mat.row_ids()
    entry_sums = np.bincount(rows, weights=mat.data, minlength=mat.shape[0])[rows]
    nonzero = entry_sums != 0
    np.divide(mat.data, entry_sums, out=mat.data, where=nonzero)
    if not nonzero.all():
        # Zero-sum rows (the divide skipped them) come out all 0.0.
        mat.data[~nonzero] = 0.0
    return mat


def compact_columns(mat: CSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
    """Drop empty columns, returning the compacted matrix and the kept ids.

    This is GraphSAGE extraction: the sampled adjacency ``A^l`` is ``Q^{l-1}``
    with its empty columns removed, and the kept column ids are the frontier
    vertices of the next layer (in ascending vertex order).
    """
    kept = mat.nonzero_columns()
    mask = np.zeros(mat.shape[1], dtype=bool)
    mask[kept] = True
    return mat.select_columns(mask), kept
