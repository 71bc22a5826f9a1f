"""Sparse general matrix-matrix multiplication (SpGEMM).

Two serial kernels share the row-gather expansion (every nonzero
``A[i, j]`` contributes ``A[i, j] * B[j, :]`` to row ``i`` of the output)
and the unit-selector shortcut (:func:`_is_unit_row_selector`: when every
row of ``a`` is a single 1.0 the product *is* a row gather of ``b``, so
nothing is expanded, sorted or hashed), but differ in how the expanded
triplets of every other product are compressed:

* :func:`spgemm` — expand-sort-compress, the same family as the GPU
  nsparse kernels the paper uses: the expanded triplets go through
  :meth:`CSRMatrix.from_coo`, which orders them by one flat
  ``row * n_cols + col`` key and sums duplicate keys.  The expansion is
  row-major already when every row of ``a`` holds one nonzero (a weighted
  row selector), and then nothing is sorted at all; otherwise it is a
  sequence of sorted rows of ``b`` that one stable sort merges.
* :func:`spgemm_hash` — a row-wise hash accumulator (the nsparse /
  cuSPARSE "hash SpGEMM" family): expanded triplets are inserted into an
  open-addressing table keyed by their flat output position, so only the
  *distinct* output entries are ever sorted.  It pays off where many
  expanded entries collapse into few outputs (LADIES-style ``Q A`` with
  many batch vertices sharing neighbors).

Kernel selection is a registry concern — see :mod:`repro.sparse.kernels`;
this module holds the raw implementations.  Besides the kernels it exposes:

* :func:`spgemm_flops` — the multiply-add count, used by the simulated
  compute-cost model.
* :func:`required_rows` — which rows of ``B`` a given ``A`` block actually
  touches; this is the sparsity-aware communication optimization of the
  paper's Algorithm 2 (only ship rows of ``A_k`` whose column appears in
  ``Q_ik``).
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, _indptr_from_rows, _ranges

__all__ = ["spgemm", "spgemm_hash", "spgemm_flops", "required_rows"]


def spgemm(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Compute ``a @ b`` for two CSR matrices.

    Raises ``ValueError`` on inner-dimension mismatch.  The result has
    duplicates summed and explicit zeros kept only if a cancellation
    produces one (callers that care use :meth:`CSRMatrix.prune_zeros`).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out_shape = (a.shape[0], b.shape[1])
    if a.nnz == 0 or b.nnz == 0:
        return CSRMatrix.zeros(out_shape)
    if _is_unit_row_selector(a):
        return b.extract_rows(a.indices)
    rows, cols, vals = _expand(a, b)
    return CSRMatrix.from_coo(rows, cols, vals, out_shape)


def _is_unit_row_selector(a: CSRMatrix) -> bool:
    """True iff every row of ``a`` holds exactly one entry of value 1.0.

    Then ``a @ b`` is ``b.extract_rows(a.indices)``: each output row is
    ``1.0 * b[j, :]`` for a single ``j`` — GraphSAGE's ``Q``, LADIES'
    ``Q_R``, every walk frontier.  There is nothing to accumulate,
    ``1.0 * x`` is ``x`` bit for bit, and the gathered rows keep ``b``'s
    canonical column order, so the gather returns the bytes either general
    kernel would (a stored ``-0.0`` in ``b`` excepted under
    :func:`spgemm_hash`, whose accumulator starts from ``+0.0``) for one
    fancy-indexed copy.  The test is O(rows of ``a``) and only reached when
    ``a`` has as many entries as rows.
    """
    return (
        a.nnz == a.shape[0]
        and bool(np.all(np.diff(a.indptr) == 1))
        and bool(np.all(a.data == 1.0))
    )


def _expand(a: CSRMatrix, b: CSRMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared row-gather expansion: COO triplets of every partial
    product ``A[i, j] * B[j, :]``, with duplicates not yet combined."""
    counts = b.nnz_per_row()[a.indices]  # expansion count per A nonzero
    take = _ranges(b.indptr[a.indices], counts)
    rows = np.repeat(a.row_ids(), counts)
    cols = b.indices[take]
    vals = np.repeat(a.data, counts) * b.data[take]
    return rows, cols, vals


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
    """Compute ``a @ b`` with a hash-accumulator compression.

    Semantics match :func:`spgemm` (duplicates summed, explicit zeros kept
    only when produced by cancellation); only the accumulation strategy —
    and therefore floating-point summation order — differs.  Output keys
    are flattened to ``row * n_cols + col``; shapes whose flat index space
    would overflow int64 fall back to the sort-based kernel.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out_shape = (a.shape[0], b.shape[1])
    if a.nnz == 0 or b.nnz == 0:
        return CSRMatrix.zeros(out_shape)
    if _is_unit_row_selector(a):
        return b.extract_rows(a.indices)
    n_rows, n_cols = out_shape
    if n_rows * n_cols >= 2**63:  # flat keys would overflow int64
        return spgemm(a, b)
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
