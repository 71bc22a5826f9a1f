"""The test oracles: the step-by-step, ``Q^{l-1}``-materializing
interpreter, the CSR-building SAMPLE it runs, and the dead-step analysis.

:class:`ReferenceInterpreter` is the single-device plan interpreter as it
stood before the executors moved to mask dataflow
(``repro.core.plan.LocalExecutor`` at commit 4102b0c, body moved here
verbatim minus its tracing hook): NORM copies the whole probability matrix,
SAMPLE builds the sampled ``Q^{l-1}`` as a CSR matrix (:func:`sample_stacked`,
the ``MatrixSampler`` method of that name until the executors stopped
calling it), and every EXTRACT tears that matrix apart again —
``extract_batch_layer(q_next.row_block(...))`` per batch, per-batch
``induced_subgraph``.  It shares no handler with the executors under
``src/``, which is what makes it a reference:
``tests/test_compile_differential.py`` and ``tests/test_compile.py`` hold
the executor, locally and on the 1.5D grid, byte-equal to it.

:func:`eliminate_dead_steps` is the optimizer pass that ran over every plan
before plans ran as emitted; it stays as the definition of a dead step, so
the tests can hold every shipped sampler's plan free of them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
)
from repro.core.frontier import LayerSample, MinibatchSample
from repro.core.its import (
    _mask_to_csr,
    gumbel_select_mask,
    its_sample_rows,
    keep_all_mask,
)
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
    row_normalize_inplace,
    row_selector,
    spgemm,
    vstack,
)

__all__ = [
    "ReferenceInterpreter",
    "reference_sample_bulk",
    "PlanSampler",
    "sample",
    "sample_stacked",
    "keep_all_rows",
    "gumbel_topk_rows",
    "eliminate_dead_steps",
]


# --------------------------------------------------------------------- #
# The CSR-building SAMPLE
# --------------------------------------------------------------------- #
def keep_all_rows(p: CSRMatrix) -> CSRMatrix:
    """``keep_all_mask`` as the binary sampled ``Q^{l-1}``."""
    return _mask_to_csr(p, keep_all_mask(p))


def gumbel_topk_rows(
    p: CSRMatrix, s: int, rng: np.random.Generator
) -> CSRMatrix:
    """``gumbel_select_mask`` as the binary sampled ``Q^{l-1}``."""
    return _mask_to_csr(p, gumbel_select_mask(p, s, rng))


def sample(
    sampler, p: CSRMatrix, s: int | None, rng: np.random.Generator
) -> CSRMatrix:
    """SAMPLE(P, s) as ``sampler``'s backend draws it: ``min(s, nnz)``
    distinct columns per row of ``p``, or every positive entry for
    ``s=None`` (no draw)."""
    if s is None:
        return keep_all_rows(p)
    if sampler.sample_backend == "gumbel":
        return gumbel_topk_rows(p, s, rng)
    return its_sample_rows(p, s, rng)


def sample_stacked(sampler, p: CSRMatrix, s, rng, bounds) -> CSRMatrix:
    """SAMPLE on a stacked ``P`` whose row blocks belong to batches: one
    generator consumed across the stack, or one per block."""
    if isinstance(rng, np.random.Generator):
        return sample(sampler, p, s, rng)
    if len(rng) != len(bounds) - 1:
        raise ValueError(
            f"need one rng per row block: got {len(rng)} for "
            f"{len(bounds) - 1} blocks"
        )
    parts = [
        sample(sampler, p.row_block(int(bounds[i]), int(bounds[i + 1])), s, g)
        for i, g in enumerate(rng)
    ]
    return vstack(parts)


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
    other step type reads something PROB wrote), with one frontier caveat:
    a ``frontier``-source PROB also records the walk frontier, which a
    non-frontier PROB does not rewrite — so it stays live if any walk
    extraction could still read it."""
    if i + 1 >= len(steps):
        return True  # trailing PROB: nothing reads it
    nxt = steps[i + 1]
    if not isinstance(nxt, ProbStep):
        return False
    if steps[i].source == "frontier" and nxt.source != "frontier":
        if any(
            isinstance(s, ExtractStep) and s.kind == "walk"
            for s in steps[i + 1 :]
        ):
            return False
    return True


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
# The interpreter
# --------------------------------------------------------------------- #
def reference_sample_bulk(sampler, adj, batches, fanout, rng):
    """``sampler.sample_bulk`` as the oracle runs it: the emitted plan,
    through :class:`ReferenceInterpreter`."""
    sampler._validate(adj, batches, fanout)
    plan = sampler.plan(tuple(None if s is None else int(s) for s in fanout))
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
        sample_backend="its",
    ):
        super().__init__(sample_backend)
        self._steps = tuple(steps)
        self.norm_mode = norm_mode
        self.include_dst = include_dst
        self.split_col_extract = True

    @staticmethod
    def make_q(arg, n):
        if isinstance(arg, np.ndarray):
            return row_selector(arg, n)
        return indicator_rows(arg, n)

    def norm(self, p):
        if self.norm_mode == "ladies":
            squared = CSRMatrix(
                p.indptr.copy(), p.indices.copy(), p.data**2, p.shape
            )
            return row_normalize(squared)
        return row_normalize(p)

    def norm_inplace(self, p):
        if self.norm_mode == "ladies":
            np.power(p.data, 2, out=p.data)
        return row_normalize_inplace(p)

    # Production primitives, by reference.
    extract_batch_layer = SageSampler.extract_batch_layer
    row_extract = staticmethod(LadiesSampler.row_extract)
    col_extract = LadiesSampler.col_extract
    debias_layer = staticmethod(LadiesSampler.debias_layer)
    importance_row = staticmethod(FastGCNSampler.importance_row)
    induced_subgraph = GraphSaintRWSampler.induced_subgraph

    def plan(self, fanout):
        return SamplingPlan(self._steps)


class ReferenceInterpreter:
    """Interpret a :class:`SamplingPlan` on one device, materializing every
    intermediate.

    Carries the executor state Algorithm 1 threads between steps: the
    per-batch frontiers, the current ``P`` / sampled ``Q`` pair with its
    row-to-batch ``bounds``, the collected layers, and (for graph-wise
    plans) the walk history.  A single generator is consumed across the
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
        self.results: list[MinibatchSample | None] = [None] * self.k
        # Step-to-step dataflow.
        self.p: CSRMatrix | None = None
        self.q_next: CSRMatrix | None = None
        self.bounds: np.ndarray | None = None
        self.s: int | None = None
        self.frontier: np.ndarray | None = None
        self.importance: CSRMatrix | None = None
        self.visited: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        for step in plan.steps:
            self._dispatch(step)
        return [
            self.results[i]
            if self.results[i] is not None
            else MinibatchSample(
                self.batches[i], list(reversed(self.layers_rev[i]))
            )
            for i in range(self.k)
        ]

    def _dispatch(self, step) -> None:
        if isinstance(step, ProbStep):
            self._prob(step)
        elif isinstance(step, NormStep):
            self.p = self.sampler.norm(self.p)
        elif isinstance(step, SampleStep):
            self._sample(step)
        else:
            self._extract(step)

    # ------------------------------------------------------------------ #
    # PROB
    # ------------------------------------------------------------------ #
    def _prob(self, step: ProbStep) -> None:
        if step.source == "frontier":
            self.frontier = np.concatenate(self.dst_lists)
            self.bounds = np.cumsum([0] + [len(d) for d in self.dst_lists])
            q = self.sampler.make_q(self.frontier, self.n)
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
            self.sampler, self.p, step.count, self.rng, self.bounds
        )

    # ------------------------------------------------------------------ #
    # EXTRACT
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

    def _extract_walk(self) -> None:
        if self.visited is None:
            self.visited = [self.frontier]
        nxt = self.frontier.copy()
        picked = np.flatnonzero(self.q_next.nnz_per_row() > 0)
        nxt[picked] = self.q_next.indices
        self.visited.append(nxt)
        self.dst_lists = [
            nxt[int(self.bounds[i]) : int(self.bounds[i + 1])]
            for i in range(self.k)
        ]

    def _extract_subgraph(self, step: ExtractStep) -> None:
        if self.visited is None:  # degenerate zero-step walk
            self.visited = [np.concatenate(self.dst_lists)]
            self.bounds = np.cumsum([0] + [len(d) for d in self.dst_lists])
        for i in range(self.k):
            batch = self.batches[i]
            lo, hi = int(self.bounds[i]), int(self.bounds[i + 1])
            mine = np.unique(
                np.concatenate([stepv[lo:hi] for stepv in self.visited])
            )
            verts = np.union1d(mine, batch)
            sub = self.sampler.induced_subgraph(
                self.adj, verts, spgemm_fn=self.spgemm
            )
            layers = [
                LayerSample(sub, verts, verts)
                for _ in range(step.n_layers - 1)
            ]
            pos = np.searchsorted(verts, batch)
            layers.append(LayerSample(sub.extract_rows(pos), verts, batch))
            self.results[i] = MinibatchSample(batch, layers)
