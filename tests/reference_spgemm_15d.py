"""The retired 1.5D SpGEMM body (oracle; do not optimize).

``spgemm_15d`` below is ``repro.distributed.spgemm_15d.spgemm_15d`` as it
was before the stage products stopped being re-canonicalized: for every
(stage, process row) it cuts ``Q_ik`` out of ``Q_i`` through an ``n``-wide
column mask, renumbers the sparsity-aware columns through a second mask,
and folds every stage product into a partial that starts as
``CSRMatrix.zeros``.  ``concat_add`` is the retired ``CSRMatrix.add`` body
it summed with — concatenate both operands' triplets and canonicalize them
through ``CSRMatrix.from_coo`` (a stable sort and one ``np.add.reduceat``
per duplicate pair, so ``a + b`` with ``a``'s value first, exact-zero sums
kept) — used both for the partials and, as the all-reduce's ``op``, for
the sum over the process row.  Those two call sites are the only lines
that differ from the retired body.

``tests/test_spgemm_15d.py`` holds the new body to this one array for
array (``data`` by bytes) and charge for charge.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm import Communicator, ProcessGrid
from repro.distributed.spgemm_15d import stage_blocks
from repro.partition.block1d import BlockRows
from repro.sparse import CSRMatrix, required_rows, spgemm, spgemm_flops

__all__ = ["concat_add", "spgemm_15d"]


def concat_add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """The retired ``CSRMatrix.add``: element-wise sum through ``from_coo``."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    rows = np.concatenate([a.row_ids(), b.row_ids()])
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.data, b.data])
    return CSRMatrix.from_coo(rows, cols, vals, a.shape)


def _concat_sum(values: Sequence[CSRMatrix]) -> CSRMatrix:
    """The retired all-reduce sum: ``concat_add`` left to right."""
    acc = values[0]
    for v in values[1:]:
        acc = concat_add(acc, v)
    return acc


def spgemm_15d(
    comm: Communicator,
    grid: ProcessGrid,
    q_blocks: BlockRows,
    a_blocks: BlockRows,
    *,
    sparsity_aware: bool = True,
) -> list[CSRMatrix]:
    """Distributed ``P = Q A``; returns P's block rows (one per process row)."""
    if q_blocks.n_blocks != grid.n_rows or a_blocks.n_blocks != grid.n_rows:
        raise ValueError(
            f"need {grid.n_rows} blocks of Q and A, got "
            f"{q_blocks.n_blocks} and {a_blocks.n_blocks}"
        )
    if q_blocks.n_cols != a_blocks.n_rows:
        raise ValueError("Q's columns must match A's rows")

    n_rows = grid.n_rows
    n_out_cols = a_blocks.n_cols
    partial: list[list[CSRMatrix]] = [
        [
            CSRMatrix.zeros((q_blocks.blocks[i].shape[0], n_out_cols))
            for _ in range(grid.c)
        ]
        for i in range(n_rows)
    ]

    for j in range(grid.c):
        col = grid.col_ranks(j)
        for k in stage_blocks(grid, j):
            lo, hi = int(a_blocks.starts[k]), int(a_blocks.starts[k + 1])
            a_k = a_blocks.blocks[k]
            # Each rank in the column slices Q_ik out of its Q_i.
            q_iks: list[CSRMatrix] = []
            for i in range(n_rows):
                mask = np.zeros(q_blocks.n_cols, dtype=bool)
                mask[lo:hi] = True
                q_ik = q_blocks.blocks[i].select_columns(mask)
                comm.compute(grid.rank(i, j), nbytes=16 * q_ik.nnz, kernels=1)
                q_iks.append(q_ik)

            if sparsity_aware:
                # Algorithm 2 lines 4-11: gather needed column ids onto the
                # stage owner, which extracts and ISends only those rows.
                needed = [required_rows(q, a_k.shape[0]) for q in q_iks]
                comm.gather(needed, col, root_pos=k)
                owner = grid.rank(k, j)
                row_data = [a_k.extract_rows(ids) for ids in needed]
                comm.compute(
                    owner,
                    nbytes=24 * sum(m.nnz for m in row_data),
                    kernels=len(row_data),
                )
                comm.scatterv(row_data, col, root_pos=k)
                locals_ = []
                for i in range(n_rows):
                    col_mask = np.zeros(hi - lo, dtype=bool)
                    col_mask[needed[i]] = True
                    locals_.append((q_iks[i].select_columns(col_mask), row_data[i]))
            else:
                comm.bcast(a_k, col, root_pos=k)
                locals_ = [(q_ik, a_k) for q_ik in q_iks]

            for i in range(n_rows):
                q_local, a_hat = locals_[i]
                if q_local.nnz == 0 or a_hat.nnz == 0:
                    continue
                comm.compute(
                    grid.rank(i, j),
                    flops=2 * spgemm_flops(q_local, a_hat),
                    nbytes=24 * (q_local.nnz + a_hat.nnz),
                    kernels=2,
                )
                partial[i][j] = concat_add(partial[i][j], spgemm(q_local, a_hat))

    p_blocks: list[CSRMatrix] = []
    for i in range(n_rows):
        p_i = comm.allreduce(partial[i], grid.row_ranks(i), op=_concat_sum)
        p_blocks.append(p_i)
    return p_blocks
