"""Sparse-kernel oracles: the SpGEMM contract, executable, and the bodies
the compiled kernels replaced.

``spgemm_sequential`` *is* the order rule of :func:`repro.sparse.spgemm`:
every output entry's partial products listed in (a-entry, b-entry) order by
plain loops and summed strictly left to right from ``0.0`` (``np.add.at`` in
order).  The kernel additionally drops exact-zero sums, so
``tests/test_kernel_equivalence.py`` holds it with ``tobytes()`` equality to
``spgemm_sequential(a, b).prune_zeros()``.

The retired bodies are ``CSRMatrix.equal(tol)`` oracles:

* ``spgemm_esc`` — the numpy expand-sort-compress body the kernel had, moved
  here minus the selector shortcut: ``_expand`` lists the partial products,
  ``CSRMatrix.from_coo`` sorts them by flat key and sums each entry with one
  ``np.add.reduceat`` run — the first product plus numpy's pairwise sum of
  the rest, another association once an entry has three products — and it
  keeps an explicit ``0.0`` where products cancel;
* ``spgemm_hash`` — the retired ``hash`` backend, verbatim minus the selector
  shortcut: an open-addressing table over the flat output keys,
  ``np.bincount`` accumulation, only the distinct keys sorted.  A strict
  left-to-right sum that keeps zeros: bitwise ``spgemm_sequential``.

``transpose`` is the retired ``CSRMatrix.transpose``, a full ``from_coo``
build, kept as the oracle of ``spmm(a, x, transpose=True)``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import CSRMatrix
from repro.sparse.csr import _indptr_from_rows

from reference_sparse import ranges

__all__ = [
    "ordered_products",
    "spgemm_sequential",
    "spgemm_esc",
    "spgemm_hash",
    "from_scipy",
    "transpose",
]


def ordered_products(a: CSRMatrix, b: CSRMatrix) -> dict[tuple[int, int], list]:
    """``{(i, k): [a[i, j] * b[j, k], ...]}`` in (a-entry, b-entry) order."""
    parts: dict[tuple[int, int], list] = {}
    for i in range(a.shape[0]):
        for p in range(a.indptr[i], a.indptr[i + 1]):
            j = a.indices[p]
            for q in range(b.indptr[j], b.indptr[j + 1]):
                key = (i, int(b.indices[q]))
                parts.setdefault(key, []).append(a.data[p] * b.data[q])
    return parts


def _from_entries(keys, vals, shape) -> CSRMatrix:
    return CSRMatrix.from_coo(
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array(vals, dtype=np.float64), shape, sum_duplicates=False,
    )


def spgemm_sequential(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Strict left-to-right sums from ``0.0``: ``np.add.at`` in order."""
    parts = ordered_products(a, b)
    keys = sorted(parts)
    slot = {k: s for s, k in enumerate(keys)}
    order = [slot[k] for k, ps in parts.items() for _ in ps]
    vals = np.zeros(len(keys))
    np.add.at(vals, np.array(order, dtype=np.int64),
              np.array([p for ps in parts.values() for p in ps]))
    return _from_entries(keys, vals, (a.shape[0], b.shape[1]))


def _expand(a: CSRMatrix, b: CSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets of every partial product ``A[i, j] * B[j, :]``, in
    (a-entry, b-entry) order, duplicates not yet combined."""
    counts = b.nnz_per_row()[a.indices]  # expansion count per A nonzero
    take = ranges(b.indptr[a.indices], counts)
    rows = np.repeat(a.row_ids(), counts)
    cols = b.indices[take]
    vals = np.repeat(a.data, counts) * b.data[take]
    return rows, cols, vals


def spgemm_esc(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """The retired expand-sort-compress body."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out_shape = (a.shape[0], b.shape[1])
    if a.nnz == 0 or b.nnz == 0:
        return CSRMatrix.zeros(out_shape)
    rows, cols, vals = _expand(a, b)
    return CSRMatrix.from_coo(rows, cols, vals, out_shape)


#: Fibonacci hashing multiplier (2^64 / golden ratio), the standard mixer
#: for power-of-two open-addressing tables.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash_slots(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insert ``keys`` (non-negative int64) into an open-addressing table.

    Returns ``(slot, table)`` where ``slot[i]`` is the table position key
    ``i`` resolved to (equal keys share a slot) and ``table`` holds the key
    stored in each slot (-1 = empty).  The insert loop is vectorized:
    every pending key tries to claim its probe slot at once (last writer
    wins on a contested empty slot), matched keys retire, and the rest
    linearly probe onward.  The table is sized to at most 50% load, so
    every round retires at least one key per contested slot and the loop
    terminates.
    """
    n = keys.shape[0]
    log2_size = max(3, int(2 * n - 1).bit_length())
    size = 1 << log2_size
    mask = np.int64(size - 1)
    slot = (
        (keys.astype(np.uint64) * _HASH_MULT) >> np.uint64(64 - log2_size)
    ).astype(np.int64)
    table = np.full(size, -1, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    while pending.size:
        probe = slot[pending]
        free = table[probe] == -1
        table[probe[free]] = keys[pending[free]]
        matched = table[probe] == keys[pending]
        pending = pending[~matched]
        slot[pending] = (slot[pending] + 1) & mask
    return slot, table


def spgemm_hash(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """The retired row-wise hash-accumulator SpGEMM."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out_shape = (a.shape[0], b.shape[1])
    if a.nnz == 0 or b.nnz == 0:
        return CSRMatrix.zeros(out_shape)
    n_rows, n_cols = out_shape
    rows, cols, vals = _expand(a, b)
    if rows.size == 0:
        return CSRMatrix.zeros(out_shape)
    keys = rows * np.int64(n_cols) + cols
    slot, table = _hash_slots(keys)
    acc = np.bincount(slot, weights=vals, minlength=table.shape[0])
    used = np.flatnonzero(table != -1)
    out_keys = table[used]
    order = np.argsort(out_keys)  # only the distinct outputs are sorted
    out_keys = out_keys[order]
    out_rows = out_keys // n_cols
    return CSRMatrix(
        _indptr_from_rows(out_rows, n_rows),
        out_keys - out_rows * n_cols,
        acc[used][order],
        out_shape,
    )


def from_scipy(mat) -> CSRMatrix:
    """A ``CSRMatrix`` from any ``scipy.sparse`` matrix (canonicalized)."""
    mat = mat.tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return CSRMatrix(mat.indptr, mat.indices, mat.data, mat.shape)


def transpose(m: CSRMatrix) -> CSRMatrix:
    """The retired ``CSRMatrix.transpose``: CSR of the transpose, built."""
    rows, cols, vals = m.to_coo()
    return CSRMatrix.from_coo(
        cols, rows, vals, (m.shape[1], m.shape[0]), sum_duplicates=False
    )
