"""Block 1.5D distributed SpGEMM (paper Algorithm 2).

Computes ``P = Q A`` with both operands partitioned into ``p/c`` block rows
on a ``p/c x c`` process grid.  Process ``(i, j)`` accumulates a partial
product over its ``q = p/c^2`` stages, each stage multiplying ``Q_ik`` (the
columns of ``Q_i`` that fall in A's block row ``k``) with ``A_k``; the
partials are summed with an all-reduce over the process row.

Two communication schemes for moving ``A_k`` down its process column:

* **sparsity-aware** (the paper's choice, after Ballard et al. 2013):
  Algorithm 2's gather/ISend — every rank tells the stage owner which rows
  its local ``Q_ik`` actually reads (its nonzero columns) and receives only
  those rows.
* **sparsity-oblivious**: the owner broadcasts the whole ``A_k`` block row
  (the simpler Koanantakool et al. scheme; ablation A).

The simulated communicator charges alpha-beta time and logs volumes; the
matrix arithmetic is exact, so the result equals the serial SpGEMM.
"""

from __future__ import annotations

import numpy as np

from ..comm import Communicator, ProcessGrid
from ..partition.block1d import BlockRows
from ..sparse import CSRMatrix, required_rows, spgemm, spgemm_flops

__all__ = ["spgemm_15d", "stage_blocks"]


def stage_blocks(grid: ProcessGrid, j: int) -> list[int]:
    """A-block indices handled by process-column position ``j``.

    The ``p/c`` block rows of ``A`` are split evenly over the ``c`` members
    of each process row; member ``j`` covers a contiguous run of roughly
    ``q = p/c^2`` stages (Algorithm 2 line 3 with ``k = j s + q``).
    """
    n_rows = grid.n_rows
    base, rem = divmod(n_rows, grid.c)
    start = j * base + min(j, rem)
    size = base + (1 if j < rem else 0)
    return list(range(start, start + size))


def spgemm_15d(
    comm: Communicator,
    grid: ProcessGrid,
    q_blocks: BlockRows,
    a_blocks: BlockRows,
    *,
    sparsity_aware: bool = True,
) -> list[CSRMatrix]:
    """Distributed ``P = Q A``; returns P's block rows (one per process row).

    ``q_blocks`` must have one block per process row; ``a_blocks`` likewise,
    with its row boundaries defining the column split of ``Q``.  Each
    rank's local product is :func:`~repro.sparse.spgemm`.
    """
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
                partial[i][j] = partial[i][j].add(spgemm(q_local, a_hat))

    p_blocks: list[CSRMatrix] = []
    for i in range(n_rows):
        p_i = comm.allreduce(partial[i], grid.row_ranks(i))
        p_blocks.append(p_i)
    return p_blocks
