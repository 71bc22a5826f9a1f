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
host does only the arithmetic Algorithm 2 defines.  Its reduction order is
the contract: within rank ``(i, j)`` the stage products are summed in stage
order, then the all-reduce sums ranks ``j = 0 .. c-1`` of the process row
left to right, each step one two-operand :meth:`CSRMatrix.add` (a rank with
one stage passes its product through; one with none passes
``CSRMatrix.zeros``).  The result therefore equals the serial SpGEMM up to
the association of each entry's sum — bitwise whenever every entry's
products fall in one stage of one rank, as a unit selector's do — which is
why ``tests/test_distributed.py`` compares general operands with
:meth:`CSRMatrix.equal`.
"""

from __future__ import annotations

import numpy as np

from ..comm import Communicator, ProcessGrid
from ..partition.block1d import BlockRows
from ..sparse import CSRMatrix, required_rows, spgemm, spgemm_flops
from ..sparse.csr import _masked_indptr

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
    q_split = [_column_blocks(q, a_blocks.starts) for q in q_blocks.blocks]
    # Rank (i, j)'s stage products, summed in stage order.
    partial: list[list[CSRMatrix | None]] = [[None] * grid.c for _ in range(n_rows)]

    for j in range(grid.c):
        col = grid.col_ranks(j)
        for k in stage_blocks(grid, j):
            a_k = a_blocks.blocks[k]
            q_iks = [q_split[i][k] for i in range(n_rows)]
            for i, q_ik in enumerate(q_iks):
                comm.compute(grid.rank(i, j), nbytes=16 * q_ik.nnz, kernels=1)

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
                # Column c of Q_ik reads row searchsorted(needed, c) of its data.
                locals_ = [
                    (CSRMatrix(q.indptr, np.searchsorted(ids, q.indices), q.data,
                               (q.shape[0], ids.size)), rows)
                    for q, ids, rows in zip(q_iks, needed, row_data)
                ]
            else:
                comm.bcast(a_k, col, root_pos=k)
                locals_ = [(q_ik, a_k) for q_ik in q_iks]

            for i, (q_local, a_hat) in enumerate(locals_):
                if q_local.nnz == 0 or a_hat.nnz == 0:
                    continue
                comm.compute(
                    grid.rank(i, j),
                    flops=2 * spgemm_flops(q_local, a_hat),
                    nbytes=24 * (q_local.nnz + a_hat.nnz),
                    kernels=2,
                )
                prod, acc = spgemm(q_local, a_hat), partial[i][j]
                partial[i][j] = prod if acc is None else acc.add(prod)

    p_blocks: list[CSRMatrix] = []
    for i, q in enumerate(q_blocks.blocks):
        zero = CSRMatrix.zeros((q.shape[0], a_blocks.n_cols))
        partials = [zero if m is None else m for m in partial[i]]
        p_blocks.append(comm.allreduce(partials, grid.row_ranks(i)))
    return p_blocks


def _column_blocks(q: CSRMatrix, starts: np.ndarray) -> list[CSRMatrix]:
    """``q`` cut at the column boundaries ``starts`` (A's block-row starts):
    block ``k`` holds the entries with columns in ``[starts[k],
    starts[k+1])``, renumbered from 0.  One ``searchsorted`` labels every
    entry with its block; no column-wide mask is built."""
    block = np.searchsorted(starts, q.indices, side="right") - 1
    out = []
    for k, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        keep = block == k
        out.append(CSRMatrix(
            _masked_indptr(q.indptr, keep), q.indices[keep] - lo, q.data[keep],
            (q.shape[0], int(hi - lo)),
        ))
    return out
