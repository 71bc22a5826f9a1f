"""The Graph Partitioned distributed sampling algorithm (paper section 5.2).

Both the adjacency matrix ``A`` and the stacked bulk ``Q`` are partitioned
into ``p/c`` block rows on a ``p/c x c`` process grid, with each block row
replicated ``c`` times.  Section 5.2 is Algorithm 1 with distributed
SpGEMMs substituted for the ``Q^l A`` and row-extraction products; NORM,
SAMPLE and the rest of EXTRACT are row-local (sections 5.2.1-5.2.3).  The
code says the same: :class:`PartitionedExecutor` runs the plan as the
sampler emits it by driving one :class:`~repro.core.plan.LocalExecutor`
per batch-owning process row, and does only what the grid adds:

* the products — ``PROB`` as the sparsity-aware 1.5D SpGEMM of Algorithm 2
  (:func:`~repro.distributed.spgemm_15d.spgemm_15d`) or the all-reduced
  global importance row for FastGCN-style samplers, and the row-extraction
  half of bipartite ``EXTRACT`` as a 1.5D SpGEMM;
* the charges — each row executor's row-local work charged to its row's
  ranks, and per-batch column extraction split across each row's ``c``
  replicas then all-gathered (section 5.2.3);
* the round-robin reassembly of the samples.

There is no per-algorithm code: any sampler with a plan — including
registry plugins — runs partitioned.  Per-phase simulated
time is attributed to the phases Figure 7 plots (``probability`` /
``sampling`` / ``extraction``), derived from the step types via
:func:`~repro.core.plan.step_phase`.  NORM is charged with its SAMPLE
(:func:`~repro.distributed.instrument.sample_norm_flops`), so the row
executors' in-place NORM adds no charge of its own.

Randomness is one independent stream per minibatch, keyed by the *global*
batch index (:func:`~repro.core.bulk.batch_rng`) — the same discipline the
replicated driver uses — so sampling output is bit-identical across grid
shapes (any ``p``, any ``c``) and across execution algorithms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..comm import Communicator, ProcessGrid
from ..core import (
    MatrixSampler,
    MinibatchSample,
    assign_round_robin,
    batch_rng,
    reassemble_round_robin,
)
from ..core.fastgcn_sampler import norm_distribution, squared_column_norms
from ..core.plan import (
    ExtractStep,
    LocalExecutor,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    Step,
    run_steps,
)
from ..partition.block1d import BlockRows
from ..sparse import CSRMatrix, row_selector, spgemm
from .instrument import sample_norm_flops
from .spgemm_15d import spgemm_15d

__all__ = ["partitioned_bulk_sampling", "PartitionedExecutor"]


def _charge_row(
    comm: Communicator,
    grid: ProcessGrid,
    row: int,
    *,
    flops: float = 0.0,
    nbytes: float = 0.0,
    kernels: int = 1,
) -> None:
    """Charge identical (replicated) local work to every rank of a process row."""
    for rank in grid.row_ranks(row):
        comm.compute(rank, flops=flops, nbytes=nbytes, kernels=kernels)


def _make_q_blocks(
    per_row_matrices: list[CSRMatrix], n_cols: int
) -> BlockRows:
    """Wrap per-process-row Q matrices as a :class:`BlockRows`."""
    sizes = [m.shape[0] for m in per_row_matrices]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    return BlockRows(per_row_matrices, starts, n_cols)


class PartitionedExecutor:
    """Run a :class:`~repro.core.plan.SamplingPlan` on the 1.5D grid.

    A grid driver over one :class:`~repro.core.plan.LocalExecutor` per
    batch-owning process row, each holding its row's batches with their
    per-batch RNG streams (global index) and all of Algorithm 1's state.
    The driver feeds them the 1.5D products and charges their work to
    their rows' ranks; it keeps the one span and phase per step.  All
    matrix arithmetic is exact, so output equals the local executor's for
    the same per-batch streams.
    """

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        sampler: MatrixSampler,
        a_blocks: BlockRows,
        batches: Sequence[np.ndarray],
        seed: int,
        *,
        sparsity_aware: bool = True,
    ) -> None:
        if a_blocks.n_blocks != grid.n_rows:
            raise ValueError(
                f"A must be partitioned into {grid.n_rows} block rows, "
                f"got {a_blocks.n_blocks}"
            )
        self.comm = comm
        self.grid = grid
        self.a_blocks = a_blocks
        self.n = a_blocks.n_cols
        self.n_rows = grid.n_rows
        self.sparsity_aware = sparsity_aware
        self.k = len(batches)
        self.owners = assign_round_robin(self.k, grid.n_rows)
        col_rank = np.empty(self.n, dtype=np.int64)
        #: Process row -> its executor, for the rows that own batches.
        self.executors = {
            row: LocalExecutor(
                sampler, a_blocks.blocks[row],
                [batches[i] for i in owned],
                [batch_rng(seed, int(i)) for i in owned],
                spgemm, col_rank=col_rank,
            )
            for row, owned in enumerate(self.owners)
            if owned
        }
        self.importance: CSRMatrix | None = None

    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        run_steps(plan, self._dispatch, self.k, self.comm)
        return reassemble_round_robin(
            [
                self.executors[row].samples() if row in self.executors else []
                for row in range(self.n_rows)
            ],
            self.k,
        )

    def _dispatch(self, step: Step) -> None:
        if isinstance(step, ProbStep):
            self._prob(step)
        elif isinstance(step, NormStep):
            for ex in self.executors.values():
                ex._dispatch(step)
        elif isinstance(step, SampleStep):
            self._sample(step)
        else:
            self._extract(step)

    def _per_row(self, lists: dict) -> list:
        """``lists[row]`` for every process row, ``[]`` for rows without
        batches (they still take part in the 1.5D products)."""
        return [lists.get(row, []) for row in range(self.n_rows)]

    # ------------------------------------------------------------------ #
    # PROB: distributed probability generation (section 5.2.1)
    # ------------------------------------------------------------------ #
    def _prob(self, step: ProbStep) -> None:
        qs = {row: ex.prob_q(step) for row, ex in self.executors.items()}
        if step.source == "global":
            if self.importance is None:
                self.importance = self._importance_row()
            for ex in self.executors.values():
                ex.importance = self.importance
            products = dict.fromkeys(self.executors)  # take_p stacks it
        else:
            dsts = self._per_row(
                {row: ex.dst_lists for row, ex in self.executors.items()}
            )
            for row in range(self.n_rows):
                _charge_row(
                    self.comm, self.grid, row,
                    nbytes=16.0 * sum(len(d) for d in dsts[row]),
                )
            q_rows = [
                qs.get(row, CSRMatrix.zeros((0, self.n)))
                for row in range(self.n_rows)
            ]
            products = spgemm_15d(
                self.comm, self.grid, _make_q_blocks(q_rows, self.n),
                self.a_blocks, sparsity_aware=self.sparsity_aware,
            )
        for row, ex in self.executors.items():
            ex.take_p(products[row])

    def _importance_row(self) -> CSRMatrix:
        """FastGCN-style global importance: each block row contributes its
        local column squared sums; one all-reduce per process column
        combines them (every column holds all blocks).  Computed once and
        reused by every later global PROB step."""
        local_sq = []
        for row in range(self.n_rows):
            blk = self.a_blocks.blocks[row]
            local_sq.append(squared_column_norms(blk))
            _charge_row(
                self.comm, self.grid, row,
                flops=2.0 * blk.nnz, nbytes=16.0 * blk.nnz,
            )
        col_sq = None
        for j in range(self.grid.c):
            col_sq = self.comm.allreduce(local_sq, self.grid.col_ranks(j))
        return norm_distribution(col_sq)

    # ------------------------------------------------------------------ #
    # SAMPLE: row-local (section 5.2.2)
    # ------------------------------------------------------------------ #
    def _sample(self, step: SampleStep) -> None:
        for row, ex in self.executors.items():
            ex.sample(step)
            _charge_row(
                self.comm, self.grid, row,
                flops=sample_norm_flops(ex.p, step.count),
                nbytes=24.0 * ex.p.nnz,
                kernels=4,
            )

    # ------------------------------------------------------------------ #
    # EXTRACT (section 5.2.3)
    # ------------------------------------------------------------------ #
    def _extract(self, step: ExtractStep) -> None:
        if step.kind == "bipartite":
            self._extract_bipartite(step)
        else:  # compact: row-local
            for row, ex in self.executors.items():
                ex.extract(step)
                _charge_row(
                    self.comm, self.grid, row,
                    nbytes=24.0 * int(ex.sel.sum()), kernels=2,
                )

    def _extract_bipartite(self, step: ExtractStep) -> None:
        """Distributed row extraction ``A_R = Q_R A`` (1.5D SpGEMM, one
        selector row per stacked destination of each process row) followed
        by per-batch column extraction split across each process row's
        replicas."""
        qr_rows = [
            row_selector(
                np.concatenate(lists)
                if lists
                else np.empty(0, dtype=np.int64),
                self.n,
            )
            for lists in self._per_row(
                {row: ex.dst_lists for row, ex in self.executors.items()}
            )
        ]
        ar_blocks = spgemm_15d(
            self.comm, self.grid, _make_q_blocks(qr_rows, self.n),
            self.a_blocks, sparsity_aware=self.sparsity_aware,
        )
        for row, ex in self.executors.items():
            bounds = np.cumsum([0] + [len(d) for d in ex.dst_lists])
            adjs = ex.take_a_r(step, ar_blocks[row])
            self._charge_split_extraction(row, ar_blocks[row], bounds, adjs)

    def _charge_split_extraction(
        self,
        row: int,
        a_r: CSRMatrix,
        bounds: np.ndarray,
        adjs: list[CSRMatrix],
    ) -> None:
        """Charge the per-batch column-extraction SpGEMMs, split across the
        process row's ``c`` replicas, then all-gather the results so every
        replica holds every batch (section 5.2.3)."""
        batch_ar_nnz = [
            int(a_r.indptr[int(bounds[b + 1])] - a_r.indptr[int(bounds[b])])
            for b in range(len(adjs))
        ]
        shares = assign_round_robin(len(adjs), self.grid.c)
        for j, share in enumerate(shares):
            # Each per-batch SpGEMM scans its A_R rows once, plus the
            # n-row indptr of its hypersparse column selector (the
            # section-8.2.2 memory traffic that dominates LADIES).
            flops = sum(2.0 * batch_ar_nnz[b] for b in share)
            self.comm.compute(
                self.grid.rank(row, j),
                flops=flops,
                nbytes=sum(
                    24.0 * (batch_ar_nnz[b] + adjs[b].nnz) + 8.0 * self.n
                    for b in share
                ),
                kernels=max(1, len(share)),
            )
        self.comm.allgather(
            [[adjs[b] for b in shares[j]] for j in range(self.grid.c)],
            self.grid.row_ranks(row),
        )


def partitioned_bulk_sampling(
    comm: Communicator,
    grid: ProcessGrid,
    sampler: MatrixSampler,
    a_blocks: BlockRows,
    batches: Sequence[np.ndarray],
    fanout: Sequence[int],
    seed: int = 0,
    *,
    sparsity_aware: bool = True,
) -> tuple[list[MinibatchSample], list[list[int]]]:
    """Sample one bulk of minibatches with the 1.5D partitioned algorithm.

    ``a_blocks`` must be partitioned into ``grid.n_rows`` block rows.
    Batches are assigned round-robin to process rows; each batch draws from
    its own RNG stream keyed by its global index, so output is invariant to
    the grid shape.  Returns the samples in the input batch order plus the
    per-process-row ownership lists.

    Works for *any* sampler that emits a sampling plan (built-ins and
    registry plugins alike); a sampler without a plan raises ``TypeError``
    because there is nothing to distribute.
    """
    plan_fn = getattr(sampler, "emitted_plan", None)
    plan = plan_fn(fanout) if callable(plan_fn) else None
    if plan is None:
        raise TypeError(
            f"partitioned sampling needs a sampler that emits a sampling "
            f"plan; {type(sampler).__name__} does not (implement "
            f"MatrixSampler.plan())"
        )
    executor = PartitionedExecutor(
        comm, grid, sampler, a_blocks, batches, seed,
        sparsity_aware=sparsity_aware,
    )
    return executor.run(plan), executor.owners
