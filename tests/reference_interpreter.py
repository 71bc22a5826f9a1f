"""The test oracles: the step-by-step, ``Q^{l-1}``-materializing
interpreter, the CSR-building SAMPLE it runs, and the dead-step analysis.

:class:`ReferenceInterpreter` is the single-device plan interpreter as it
stood before the executors moved to mask dataflow
(``repro.core.plan.LocalExecutor`` at commit 4102b0c, body moved here
verbatim minus its tracing hook and, since, the random-walk EXTRACT kinds
the executors no longer have): NORM copies the whole probability matrix
(:func:`reference_norm`, the built-in samplers' retired copying bodies),
SAMPLE builds the sampled ``Q^{l-1}`` as a CSR matrix (:func:`sample_stacked`,
the ``MatrixSampler`` method of that name until the executors stopped
calling it), and every EXTRACT tears that matrix apart again —
``extract_batch_layer(q_next.row_block(...))`` per batch, ``q_next.row(i)``
per layer-wise batch.  It shares no handler with the executors under
``src/``, which is what makes it a reference:
``tests/test_compile_differential.py`` and ``tests/test_compile.py`` hold
the executor, locally and on the 1.5D grid, byte-equal to it.

:func:`eliminate_dead_steps` is the optimizer pass that ran over every plan
before plans ran as emitted; it stays as the definition of a dead step, so
the tests can hold every shipped sampler's plan free of them.

:func:`blockdiag_col_extract` is LADIES' bulk column extraction as section
4.2.4 writes it — one SpGEMM of the block-diagonal ``A_R`` (:func:`block_diag`)
with the stacked ``Q_C`` — the oracle of the per-batch SpGEMMs
``LadiesSampler.col_extract`` runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import FastGCNSampler, LadiesSampler, SageSampler
from repro.core.frontier import LayerSample, MinibatchSample
from repro.core.its import its_sample_rows
from repro.core.plan import (
    ExtractStep,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
)
from repro.core.sampler_base import MatrixSampler
from repro.sparse import (
    CSRMatrix,
    indicator_rows,
    row_normalize,
    row_selector,
    spgemm,
    vstack,
)

__all__ = [
    "ReferenceInterpreter",
    "reference_sample_bulk",
    "PlanSampler",
    "sample_stacked",
    "eliminate_dead_steps",
    "block_diag",
    "blockdiag_col_extract",
]


# --------------------------------------------------------------------- #
# The CSR-building SAMPLE
# --------------------------------------------------------------------- #
def sample_stacked(p: CSRMatrix, s: int, rng, bounds) -> CSRMatrix:
    """SAMPLE on a stacked ``P`` whose row blocks belong to batches: one
    generator consumed across the stack, or one per block."""
    if isinstance(rng, np.random.Generator):
        return its_sample_rows(p, s, rng)
    if len(rng) != len(bounds) - 1:
        raise ValueError(
            f"need one rng per row block: got {len(rng)} for "
            f"{len(bounds) - 1} blocks"
        )
    parts = [
        its_sample_rows(p.row_block(int(bounds[i]), int(bounds[i + 1])), s, g)
        for i, g in enumerate(rng)
    ]
    return vstack(parts)


# --------------------------------------------------------------------- #
# The block-diagonal LADIES column extraction
# --------------------------------------------------------------------- #
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


def blockdiag_col_extract(
    a_r: CSRMatrix,
    dst_lists: Sequence[np.ndarray],
    sampled_lists: Sequence[np.ndarray],
) -> list[CSRMatrix]:
    """Literal section-4.2.4 construction: block-diagonal ``A_R`` times the
    stacked ``Q_C`` in one SpGEMM.

    The stacked ``Q_C`` is ``(k n x s_max)``: batch ``i``'s sampled vertex
    ``j`` sits at row ``i*n + v_j``, column ``j``, so every batch's sample
    shares the column space ``0..s_max-1``; batch ``i`` keeps its first
    ``s_i`` columns.  Memory-hungry (the hypersparse ``kn``-row CSR the
    paper calls out), which is why ``src/`` runs one SpGEMM per batch.
    """
    bounds = np.cumsum([0] + [len(d) for d in dst_lists])
    n = a_r.shape[1]
    blocks = [
        a_r.row_block(int(bounds[i]), int(bounds[i + 1]))
        for i in range(len(dst_lists))
    ]
    s_max = max(len(s) for s in sampled_lists)
    qc_rows = np.concatenate(
        [np.asarray(s, dtype=np.int64) + i * n for i, s in enumerate(sampled_lists)]
    )
    qc_cols = np.concatenate(
        [np.arange(len(s), dtype=np.int64) for s in sampled_lists]
    )
    q_c = CSRMatrix.from_coo(
        qc_rows, qc_cols, None, (len(dst_lists) * n, s_max)
    )
    a_s = spgemm(block_diag(blocks), q_c)
    out = []
    for i, sampled in enumerate(sampled_lists):
        rows = a_s.row_block(int(bounds[i]), int(bounds[i + 1]))
        mask = np.zeros(s_max, dtype=bool)
        mask[: len(sampled)] = True
        out.append(rows.select_columns(mask))
    return out


# --------------------------------------------------------------------- #
# Dead steps
# --------------------------------------------------------------------- #
def _norm_is_dead(steps: list, i: int) -> bool:
    """NORM at ``i`` is dead iff ``P`` is overwritten before anything reads
    it.  Readers of ``P``: NORM, SAMPLE, and debiased bipartite EXTRACT."""
    for step in steps[i + 1 :]:
        if isinstance(step, ProbStep):
            return True
        if isinstance(step, (NormStep, SampleStep)):
            return False
        if isinstance(step, ExtractStep):
            if step.kind == "bipartite" and step.debias:
                return False
    return True  # nothing after reads P


def _prob_is_dead(steps: list, i: int) -> bool:
    """PROB at ``i`` is dead iff the very next step is another PROB (every
    other step type reads something PROB wrote)."""
    return i + 1 >= len(steps) or isinstance(steps[i + 1], ProbStep)


def eliminate_dead_steps(plan: SamplingPlan) -> SamplingPlan:
    """Drop PROB/NORM steps whose output is overwritten before being read.

    SAMPLE steps are never dead — they consume RNG draws, and eliminating
    one would shift every later draw.  EXTRACT steps always produce
    observable output.  Runs to a fixpoint; a plan that reduces to nothing
    is returned unchanged (plans must be non-empty).
    """
    steps = list(plan.steps)
    changed = True
    while changed:
        changed = False
        for i, step in enumerate(steps):
            if isinstance(step, NormStep) and _norm_is_dead(steps, i):
                del steps[i]
                changed = True
                break
            if isinstance(step, ProbStep) and _prob_is_dead(steps, i):
                del steps[i]
                changed = True
                break
    if not steps:
        return plan
    return SamplingPlan(tuple(steps))


# --------------------------------------------------------------------- #
# NORM
# --------------------------------------------------------------------- #
def reference_norm(sampler, p):
    """NORM(P) into a fresh matrix, as the built-ins' retired copying
    ``norm`` bodies computed it: the oracle of the in-place ``norm`` every
    executor runs.  A sampler with a NORM of its own (the example plugin's
    copies) runs it."""
    mode = getattr(sampler, "norm_mode", None)
    if mode == "ladies" or type(sampler).norm is LadiesSampler.norm:
        squared = CSRMatrix(
            p.indptr.copy(), p.indices.copy(), p.data**2, p.shape
        )
        return row_normalize(squared)
    if mode == "sage" or type(sampler).norm is SageSampler.norm:
        return row_normalize(p)
    return sampler.norm(p)


# --------------------------------------------------------------------- #
# The interpreter
# --------------------------------------------------------------------- #
def reference_sample_bulk(sampler, adj, batches, fanout, rng):
    """``sampler.sample_bulk`` as the oracle runs it: the emitted plan,
    through :class:`ReferenceInterpreter`."""
    sampler._validate(adj, batches, fanout)
    plan = sampler.plan(tuple(int(s) for s in fanout))
    rng = sampler._normalize_rng(rng, len(batches))
    return ReferenceInterpreter(sampler, adj, batches, rng, spgemm).run(plan)


class PlanSampler(MatrixSampler):
    """Executes an arbitrary stored plan with the real samplers' pieces.

    ``make_q`` is polymorphic over the executor's PROB sources: a frontier
    array gets GraphSAGE's row selector, per-batch destination lists get
    LADIES' indicator rows.  Extraction primitives are the production
    implementations, referenced (not reimplemented) so fuzzed and named
    plans run the same code paths the golden suites pin.
    """

    name = "plan"

    def __init__(
        self,
        steps,
        *,
        norm_mode="sage",
        include_dst=False,
    ):
        super().__init__()
        self._steps = tuple(steps)
        self.norm_mode = norm_mode
        self.include_dst = include_dst

    @staticmethod
    def make_q(arg, n):
        if isinstance(arg, np.ndarray):
            return row_selector(arg, n)
        return indicator_rows(arg, n)

    # Production primitives, by reference.
    def norm(self, p):
        if self.norm_mode == "ladies":
            return LadiesSampler.norm(self, p)
        return SageSampler.norm(self, p)

    extract_batch_layer = SageSampler.extract_batch_layer
    row_extract = staticmethod(LadiesSampler.row_extract)
    col_extract = LadiesSampler.col_extract
    debias_layer = staticmethod(LadiesSampler.debias_layer)
    importance_row = staticmethod(FastGCNSampler.importance_row)

    def plan(self, fanout):
        return SamplingPlan(self._steps)


class ReferenceInterpreter:
    """Interpret a :class:`SamplingPlan` on one device, materializing every
    intermediate.

    Carries the executor state Algorithm 1 threads between steps: the
    per-batch frontiers, the current ``P`` / sampled ``Q`` pair with its
    row-to-batch ``bounds`` and the collected layers.  A single generator
    is consumed across the
    whole stacked bulk, per-batch generators draw per row block.
    """

    def __init__(
        self,
        sampler,
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        rng,
        spgemm_fn,
    ) -> None:
        self.sampler = sampler
        self.adj = adj
        self.n = adj.shape[0]
        self.batches = [np.asarray(b, dtype=np.int64) for b in batches]
        self.k = len(self.batches)
        self.rng = rng
        self.spgemm = spgemm_fn
        # Frontier state: per-batch destination lists, batch-outward layers.
        self.dst_lists: list[np.ndarray] = [b for b in self.batches]
        self.layers_rev: list[list[LayerSample]] = [[] for _ in range(self.k)]
        # Step-to-step dataflow.
        self.p: CSRMatrix | None = None
        self.q_next: CSRMatrix | None = None
        self.bounds: np.ndarray | None = None
        self.s: int | None = None
        self.importance: CSRMatrix | None = None

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        for step in plan.steps:
            self._dispatch(step)
        return [
            MinibatchSample(self.batches[i], list(reversed(self.layers_rev[i])))
            for i in range(self.k)
        ]

    def _dispatch(self, step) -> None:
        if isinstance(step, ProbStep):
            self._prob(step)
        elif isinstance(step, NormStep):
            self.p = reference_norm(self.sampler, self.p)
        elif isinstance(step, SampleStep):
            self._sample(step)
        else:
            self._extract(step)

    # ------------------------------------------------------------------ #
    # PROB
    # ------------------------------------------------------------------ #
    def _prob(self, step: ProbStep) -> None:
        if step.source == "frontier":
            self.bounds = np.cumsum([0] + [len(d) for d in self.dst_lists])
            q = self.sampler.make_q(np.concatenate(self.dst_lists), self.n)
            self.p = self.spgemm(q, self.adj)
        elif step.source == "indicator":
            self.bounds = np.arange(self.k + 1)
            q = self.sampler.make_q(self.dst_lists, self.n)
            self.p = self.spgemm(q, self.adj)
        else:  # global importance: computed once, stacked per batch
            if self.importance is None:
                self.importance = self.sampler.importance_row(self.adj)
            self.bounds = np.arange(self.k + 1)
            self.p = vstack([self.importance] * self.k)

    # ------------------------------------------------------------------ #
    # SAMPLE
    # ------------------------------------------------------------------ #
    def _sample(self, step: SampleStep) -> None:
        self.s = step.count
        self.q_next = sample_stacked(
            self.p, step.count, self.rng, self.bounds
        )

    # ------------------------------------------------------------------ #
    # EXTRACT
    # ------------------------------------------------------------------ #
    def _extract(self, step: ExtractStep) -> None:
        if step.kind == "compact":
            self._extract_compact()
        else:
            self._extract_bipartite(step)

    def _extract_compact(self) -> None:
        new_dsts: list[np.ndarray] = []
        for i in range(self.k):
            rows = self.q_next.row_block(
                int(self.bounds[i]), int(self.bounds[i + 1])
            )
            layer = self.sampler.extract_batch_layer(rows, self.dst_lists[i])
            self.layers_rev[i].append(layer)
            new_dsts.append(layer.src_ids)
        self.dst_lists = new_dsts

    def _extract_bipartite(self, step: ExtractStep) -> None:
        sampled = [self.q_next.row(i)[0] for i in range(self.k)]
        if step.union_dst:
            sampled = [
                np.union1d(sv, dv) for sv, dv in zip(sampled, self.dst_lists)
            ]
        a_r = self.sampler.row_extract(
            self.adj, self.dst_lists, spgemm_fn=self.spgemm
        )
        a_s = self.sampler.col_extract(
            a_r, self.dst_lists, sampled, spgemm_fn=self.spgemm
        )
        for i in range(self.k):
            layer = LayerSample(a_s[i], sampled[i], self.dst_lists[i])
            if step.debias:
                probs = np.zeros(self.n)
                cols, vals = self.p.row(i)
                probs[cols] = vals
                layer = self.sampler.debias_layer(layer, probs, self.s)
            self.layers_rev[i].append(layer)
        self.dst_lists = sampled
