"""Oracles for the CSR substrate's compiled paths: the retired numpy bodies.

Each function is the body a ``CSRMatrix`` primitive had before it moved onto
scipy's compiled CSR routines (``scipy.sparse._sparsetools``), kept verbatim
minus its name.  ``to_scipy`` is the retired ``CSRMatrix.to_scipy``, the
zero-copy ``scipy.sparse`` view those bodies (and the dense cross-checks)
use.  ``tests/test_sparse_substrate.py`` holds every new body to
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
* ``spgemm_scipy`` — ``repro.sparse.spgemm``'s general path through
  scipy's ``@`` on ``to_scipy()`` views, then ``sort_indices``: the same
  ``csr_matmat`` at the same dtypes, wrapped in three matrix objects;
* ``masked_indptr`` — ``repro.sparse.csr._masked_indptr`` as an int64
  prefix count of the mask read at the row boundaries.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from repro.sparse import CSRMatrix

__all__ = [
    "to_scipy",
    "ranges",
    "extract_rows",
    "row_normalize_inplace",
    "add",
    "spgemm_scipy",
    "masked_indptr",
]


def to_scipy(m: CSRMatrix, *, transpose: bool = False):
    """A ``scipy.sparse`` view over ``m``'s own int64 / int64 / float64
    arrays: a ``csr_matrix``, or with ``transpose=True`` the
    ``csc_matrix`` of the transpose.

    O(1): the arrays are set as attributes of an empty matrix, because
    scipy's ``(data, indices, indptr)`` constructor — and ``.T`` —
    re-casts int64 indices that fit int32, a copy of the whole index array
    per call.  scipy's products take int64 operands as they are and never
    write them, so read-only arrays work.
    """
    if transpose:
        view = csc_matrix((m.shape[1], m.shape[0]))
    else:
        view = csr_matrix(m.shape)
    view.indptr, view.indices, view.data = m.indptr, m.indices, m.data
    return view


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
    out = to_scipy(a) + to_scipy(b)
    return CSRMatrix(out.indptr, out.indices, out.data, a.shape)


def spgemm_scipy(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """``a @ b`` through scipy's ``@``, columns sorted in each row."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out = to_scipy(a) @ to_scipy(b)
    out.sort_indices()
    return CSRMatrix(out.indptr, out.indices, out.data, (a.shape[0], b.shape[1]))


def masked_indptr(indptr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """CSR row pointer of the entries ``mask`` keeps (a prefix count)."""
    kept = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=kept[1:])
    return kept[indptr - indptr[0]]
