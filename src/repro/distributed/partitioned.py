"""The Graph Partitioned distributed sampling algorithm (paper section 5.2).

Both the adjacency matrix ``A`` and the stacked bulk ``Q`` are partitioned
into ``p/c`` block rows on a ``p/c x c`` process grid, with each block row
replicated ``c`` times.  Execution is *plan-driven*: the sampler emits the
same declarative :class:`~repro.core.plan.SamplingPlan` the single-device
executor runs, :func:`~repro.core.compile.optimize` rewrites it the same
way, and :class:`PartitionedExecutor` — the one executor of this backend —
runs each step over the grid:

* ``PROB`` steps run as the sparsity-aware 1.5D SpGEMM of Algorithm 2
  (:func:`~repro.distributed.spgemm_15d.spgemm_15d`), or as the
  all-reduced global importance vector for FastGCN-style samplers;
* ``NORM`` and ``SAMPLE`` are row-local, exactly as the paper's per-step
  analysis states (sections 5.2.1-5.2.2);
* ``EXTRACT`` is row-local column compaction (node-wise), a distributed
  row-extraction SpGEMM plus per-batch column extraction split across each
  process row's ``c`` replicas (layer-wise, section 5.2.3), a row-local
  walk advance, or a distributed subgraph induction (graph-wise).

Everything row-local is the single-device executor's own step body
(:mod:`repro.core.plan`), called once per process row and then charged to
that row's ranks; what lives here is the 1.5D products and the charging.
There is no per-algorithm code: any sampler with a plan — including
registry plugins and GraphSAINT — runs partitioned.  Per-phase simulated
time is attributed to the phases Figure 7 plots (``probability`` /
``sampling`` / ``extraction``), derived from the step types via
:func:`~repro.core.plan.step_phase`; a fused ``SAMPLE+EXTRACT`` step
charges its second half to ``extraction``.

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
    step_phase,
)
from ..core.frontier import LayerSample
from ..core.plan import (
    ExtractStep,
    FusedProbNormStep,
    FusedSampleExtractStep,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    Step,
    bipartite_layers,
    compact_batches,
    run_steps,
    sampled_lists,
    subgraph_minibatch,
    subgraph_vertex_sets,
    walk_advance,
)
from ..partition.block1d import BlockRows
from ..sparse import CSRMatrix, row_selector, vstack
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

    Holds the per-process-row state Algorithm 2 threads between steps:
    each row's owned batches with their destination lists and per-batch RNG
    streams, the current probability block rows with their row-to-batch
    bounds, the last SAMPLE's ``(P, mask)`` pair, collected layers, and
    (for graph-wise plans) the walk history.  All matrix arithmetic is
    exact, so output equals the local executor's for the same per-batch
    streams.  Row-local work is the local executor's step bodies, run per
    process row and charged to that row's ranks.
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
        self.sampler = sampler
        self.a_blocks = a_blocks
        self.n = a_blocks.n_cols
        self.n_rows = grid.n_rows
        self.sparsity_aware = sparsity_aware
        self.batches = [np.asarray(b, dtype=np.int64) for b in batches]
        self.owners = assign_round_robin(len(batches), grid.n_rows)
        rows = range(self.n_rows)
        #: Process rows that own at least one batch: the only ones with
        #: row-local SAMPLE / EXTRACT work.
        self.rows = [row for row in rows if self.owners[row]]
        # Per-row frontier state and per-batch RNG streams (global index).
        self.dst: list[list[np.ndarray]] = [
            [self.batches[i] for i in self.owners[row]] for row in rows
        ]
        self.rngs = [
            [batch_rng(seed, int(i)) for i in self.owners[row]] for row in rows
        ]
        self.layers_rev: list[list[list[LayerSample]]] = [
            [[] for _ in self.owners[row]] for row in rows
        ]
        self.results: dict[int, MinibatchSample] = {}
        # Step-to-step dataflow, one entry per process row.
        self.p_blocks: list[CSRMatrix] | None = None
        self.bounds: list[np.ndarray | None] = [None] * self.n_rows
        self.frontier: list[np.ndarray | None] = [None] * self.n_rows
        # What the last SAMPLE drew from and its selection masks (a later
        # PROB replaces ``p_blocks``, not these).
        self.p_sampled: list[CSRMatrix] | None = None
        self.sels: list[np.ndarray | None] = [None] * self.n_rows
        self.visited: list[list[np.ndarray] | None] = [None] * self.n_rows
        self.importance: CSRMatrix | None = None
        self.s: int | None = None
        self._col_rank = np.empty(self.n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        run_steps(plan, self._dispatch, len(self.batches), self.comm)
        samples_by_row = [
            [
                self.results[i]
                if i in self.results
                else MinibatchSample(
                    self.batches[i],
                    list(reversed(self.layers_rev[row][local])),
                )
                for local, i in enumerate(self.owners[row])
            ]
            for row in range(self.n_rows)
        ]
        return reassemble_round_robin(samples_by_row, len(self.batches))

    def _dispatch(self, step: Step) -> None:
        if isinstance(step, FusedSampleExtractStep):
            self._sample(step)
            # The driver opened this step's phase ("sampling"); Figure 7's
            # extraction bar still gets the EXTRACT half (phases nest).
            with self.comm.phase(step_phase(step.extract)):
                self._extract(step.extract)
        elif isinstance(step, ProbStep):
            self._prob(step)
            if isinstance(step, FusedProbNormStep):
                # Fresh 1.5D products (or fresh stacks of the importance
                # row): this executor owns them.
                self.p_blocks = [
                    self.sampler.norm_inplace(p) for p in self.p_blocks
                ]
        elif isinstance(step, NormStep):
            self.p_blocks = [self.sampler.norm(p) for p in self.p_blocks]
        elif isinstance(step, SampleStep):
            self._sample(step)
        else:
            self._extract(step)

    def _collect(self, row: int, layers: list[LayerSample]) -> None:
        for collected, layer in zip(self.layers_rev[row], layers):
            collected.append(layer)

    # ------------------------------------------------------------------ #
    # PROB: distributed probability generation (section 5.2.1)
    # ------------------------------------------------------------------ #
    def _prob(self, step: ProbStep) -> None:
        if step.source == "global":
            self._prob_global()
            return
        q_rows: list[CSRMatrix] = []
        self.bounds = []
        self.frontier = []
        for row in range(self.n_rows):
            dsts = self.dst[row]
            if step.source == "frontier":
                frontier = (
                    np.concatenate(dsts)
                    if dsts
                    else np.empty(0, dtype=np.int64)
                )
                self.frontier.append(frontier)
                self.bounds.append(
                    np.cumsum([0] + [len(d) for d in dsts])
                )
                q_rows.append(self.sampler.make_q(frontier, self.n))
                _charge_row(
                    self.comm, self.grid, row, nbytes=16.0 * frontier.size
                )
            else:  # indicator: one row per owned batch
                self.frontier.append(np.empty(0, dtype=np.int64))
                self.bounds.append(np.arange(len(dsts) + 1))
                if dsts:
                    q_rows.append(self.sampler.make_q(dsts, self.n))
                else:
                    q_rows.append(CSRMatrix.zeros((0, self.n)))
                _charge_row(
                    self.comm, self.grid, row,
                    nbytes=16.0 * sum(len(d) for d in dsts),
                )
        self.p_blocks = spgemm_15d(
            self.comm, self.grid, _make_q_blocks(q_rows, self.n),
            self.a_blocks, sparsity_aware=self.sparsity_aware,
        )

    def _prob_global(self) -> None:
        """FastGCN-style global importance: each block row contributes its
        local column squared sums; one all-reduce per process column
        combines them (every column holds all blocks).  Computed once and
        reused by every later global PROB step."""
        if self.importance is None:
            local_sq = []
            for row in range(self.n_rows):
                blk = self.a_blocks.blocks[row]
                sq = np.zeros(self.n, dtype=np.float64)
                if blk.nnz:
                    np.add.at(sq, blk.indices, blk.data**2)
                local_sq.append(sq)
                _charge_row(
                    self.comm, self.grid, row,
                    flops=2.0 * blk.nnz, nbytes=16.0 * blk.nnz,
                )
            col_sq = None
            for j in range(self.grid.c):
                col_sq = self.comm.allreduce(
                    local_sq, self.grid.col_ranks(j)
                )
            cols = np.flatnonzero(col_sq)
            from ..sparse import row_normalize

            self.importance = row_normalize(
                CSRMatrix.from_coo(
                    np.zeros(cols.size, dtype=np.int64), cols, col_sq[cols],
                    (1, self.n),
                )
            )
        self.p_blocks = []
        self.bounds = []
        self.frontier = []
        for row in range(self.n_rows):
            kb = len(self.dst[row])
            self.p_blocks.append(
                vstack([self.importance] * kb)
                if kb
                else CSRMatrix.zeros((0, self.n))
            )
            self.bounds.append(np.arange(kb + 1))
            self.frontier.append(np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # SAMPLE: row-local (section 5.2.2)
    # ------------------------------------------------------------------ #
    def _sample(self, step: SampleStep) -> None:
        self.s = step.count
        self.p_sampled = self.p_blocks
        for row in self.rows:
            p = self.p_blocks[row]
            self.sels[row] = self.sampler.sample_stacked_mask(
                p, step.count, self.rngs[row], self.bounds[row]
            )
            _charge_row(
                self.comm, self.grid, row,
                flops=sample_norm_flops(p, step.count),
                nbytes=24.0 * p.nnz,
                kernels=4,
            )

    # ------------------------------------------------------------------ #
    # EXTRACT (section 5.2.3)
    # ------------------------------------------------------------------ #
    def _extract(self, step: ExtractStep) -> None:
        if step.kind == "compact":
            self._extract_compact()
        elif step.kind == "bipartite":
            self._extract_bipartite(step)
        elif step.kind == "walk":
            self._extract_walk()
        else:
            self._extract_subgraph(step)

    def _extract_compact(self) -> None:
        """Row-local column compaction of each batch's sampled rows."""
        for row in self.rows:
            sel = self.sels[row]
            layers = compact_batches(
                self.sampler, self.p_sampled[row], sel, self.bounds[row],
                self.dst[row], self._col_rank,
            )
            self._collect(row, layers)
            self.dst[row] = [layer.src_ids for layer in layers]
            _charge_row(
                self.comm, self.grid, row,
                nbytes=24.0 * int(sel.sum()), kernels=2,
            )

    def _extract_bipartite(self, step: ExtractStep) -> None:
        """Distributed row extraction (1.5D SpGEMM) followed by per-batch
        column extraction split across each process row's replicas
        (section 5.2.3)."""
        ar_blocks = self._row_extract_15d(self.dst)
        for row in self.rows:
            a_r, dsts = ar_blocks[row], self.dst[row]
            sampled = sampled_lists(
                self.p_sampled[row], self.sels[row], dsts, step.union_dst
            )
            adjs = self.sampler.col_extract(a_r, dsts, sampled)
            bounds = np.cumsum([0] + [len(d) for d in dsts])
            self._charge_split_extraction(row, a_r, bounds, adjs)
            self._collect(
                row,
                bipartite_layers(
                    self.sampler, adjs, sampled, dsts, step,
                    self.p_blocks[row], self.s,
                ),
            )
            self.dst[row] = sampled

    def _row_extract_15d(
        self, vert_lists_by_row: list[list[np.ndarray]]
    ) -> list[CSRMatrix]:
        """``A_R = Q_R A`` over the grid: one selector row per stacked
        vertex of each process row's per-batch lists."""
        qr_rows = []
        for row in range(self.n_rows):
            stacked = (
                np.concatenate(vert_lists_by_row[row])
                if vert_lists_by_row[row]
                else np.empty(0, dtype=np.int64)
            )
            qr_rows.append(row_selector(stacked, self.n))
        return spgemm_15d(
            self.comm, self.grid, _make_q_blocks(qr_rows, self.n),
            self.a_blocks, sparsity_aware=self.sparsity_aware,
        )

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

    def _extract_walk(self) -> None:
        """Row-local walk advance."""
        for row in self.rows:
            frontier = self.frontier[row]
            if self.visited[row] is None:
                self.visited[row] = [frontier]
            nxt, self.dst[row] = walk_advance(
                self.p_sampled[row], self.sels[row], frontier,
                self.bounds[row],
            )
            self.visited[row].append(nxt)
            _charge_row(
                self.comm, self.grid, row,
                nbytes=16.0 * nxt.size, kernels=2,
            )

    def _extract_subgraph(self, step: ExtractStep) -> None:
        """Distributed subgraph induction: the stacked per-batch vertex
        sets row-extract ``A`` through the 1.5D SpGEMM, then each batch's
        column compaction runs once per process row, split across its
        ``c`` replicas like the layer-wise extraction."""
        verts_by_row: list[list[np.ndarray]] = [[] for _ in range(self.n_rows)]
        for row in self.rows:
            verts_by_row[row] = subgraph_vertex_sets(
                self.visited[row], self.bounds[row], self.dst[row],
                [self.batches[i] for i in self.owners[row]],
            )
        ar_blocks = self._row_extract_15d(verts_by_row)
        for row in self.rows:
            verts, a_r = verts_by_row[row], ar_blocks[row]
            bounds = np.cumsum([0] + [len(v) for v in verts])
            subs = []
            for b, v in enumerate(verts):
                rows = a_r.row_block(int(bounds[b]), int(bounds[b + 1]))
                mask = np.zeros(self.n, dtype=bool)
                mask[v] = True
                subs.append(rows.select_columns(mask))
            self._charge_split_extraction(row, a_r, bounds, subs)
            for sub, v, i in zip(subs, verts, self.owners[row]):
                self.results[i] = subgraph_minibatch(
                    sub, v, self.batches[i], step.n_layers
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
    plan_fn = getattr(sampler, "optimized_plan", None)
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
