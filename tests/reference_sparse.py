"""Oracles for the CSR substrate's compiled paths: the retired numpy bodies.

Each function is the body a ``CSRMatrix`` primitive had before it moved onto
scipy's compiled CSR routines (``scipy.sparse._sparsetools``), kept verbatim
minus its name.  ``tests/test_sparse_substrate.py`` holds every new body to
its oracle byte for byte — ``indptr``, ``indices`` and ``data`` (the data as
its int64 bit pattern, so ``-0.0`` and NaN payloads count):

* ``ranges`` — ``repro.sparse.csr._ranges``: one ``arange(start, start +
  count)`` per pair, concatenated with a single ``repeat``;
* ``extract_rows`` — ``CSRMatrix.extract_rows``'s gather through
  ``ranges``, three int64 arrays with one entry per gathered nonzero;
* ``row_normalize_inplace`` — NORM's per-row sums as ``np.bincount`` over
  ``row_ids()``, gathered back per entry;
* ``add`` — ``CSRMatrix.add`` through scipy's ``+`` on ``to_scipy()``
  views (int32 indices, a prune copy, cast back to int64);
* ``masked_indptr`` — ``repro.sparse.csr._masked_indptr`` as an int64
  prefix count of the mask read at the row boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import CSRMatrix

__all__ = [
    "ranges",
    "extract_rows",
    "row_normalize_inplace",
    "add",
    "masked_indptr",
]


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start+count)`` for each pair, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Entry j of pair i is start_i + (j - first slot of pair i): one repeat.
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out


def extract_rows(m: CSRMatrix, rows) -> CSRMatrix:
    """Gather ``rows`` (in the given order, duplicates allowed) into a new matrix."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= m.shape[0]):
        raise IndexError("row index out of range")
    starts = m.indptr[rows]
    counts = m.indptr[rows + 1] - starts
    take = ranges(starts, counts)
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix(indptr, m.indices[take], m.data[take], (rows.size, m.shape[1]))


def row_normalize_inplace(mat: CSRMatrix) -> CSRMatrix:
    """NORM, overwriting ``mat.data``."""
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


def add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Element-wise sum through scipy's ``+``."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    out = a.to_scipy() + b.to_scipy()
    return CSRMatrix(out.indptr, out.indices, out.data, a.shape)


def masked_indptr(indptr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """CSR row pointer of the entries ``mask`` keeps (a prefix count)."""
    kept = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=kept[1:])
    return kept[indptr - indptr[0]]
