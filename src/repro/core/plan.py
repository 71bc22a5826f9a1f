"""The sampling-plan IR: Algorithm 1 as *data*, run by two executors.

The paper's central claim is that LADIES, FastGCN, GraphSAGE (and, with one
extra step kind, GraphSAINT) are the *same* matrix program — PROB (an
SpGEMM), NORM, SAMPLE (inverse transform sampling), EXTRACT — differing
only in how each step is parameterized.  This module makes that claim
operational: a :class:`MatrixSampler` *emits* a declarative
:class:`SamplingPlan`, :func:`repro.core.compile.optimize` rewrites it
(dead steps dropped, adjacent steps fused), and an executor runs it.  There
are two executors, one per backend, and each runs every plan — optimized or
as emitted:

* :class:`LocalExecutor` (here) — one device, serial SpGEMMs; the loop of
  Algorithm 1.
* :class:`~repro.distributed.partitioned.PartitionedExecutor` — the same
  program over the 1.5D ``p/c x c`` grid of Algorithm 2, with PROB and the
  row-extraction half of EXTRACT running as distributed SpGEMMs.

Because distribution is a property of the *executor* rather than of the
sampler, any sampler that emits a plan — including registry plugins — runs
partitioned for free, and per-phase time attribution (``probability`` /
``sampling`` / ``extraction``) is derived from step types via
:func:`step_phase` instead of hand-placed phase calls.  What the executors
share is written once, here: the step driver (:func:`run_steps`) and the
row-local step bodies (:func:`compact_batches`, :func:`sampled_lists`,
:func:`bipartite_layers`, :func:`walk_advance`,
:func:`subgraph_vertex_sets`, :func:`subgraph_minibatch`).  The partitioned
executor is "for each process row: call it, charge it" plus the 1.5D
products.

Step vocabulary (paper mapping)
-------------------------------
``ProbStep``
    ``P^l = Q^l A`` (Algorithm 1 line 2).  ``source`` picks how ``Q`` is
    built: ``"frontier"`` (one row-selector row per frontier vertex —
    node-wise), ``"indicator"`` (one indicator row per batch — layer-wise),
    or ``"global"`` (a batch-independent importance row from A's column
    norms — FastGCN; no per-layer SpGEMM).
``NormStep``
    ``P = NORM(P)`` — the sampler's row-local normalization.
``SampleStep``
    ``SAMPLE(P, count | all)`` — ITS/Gumbel, ``count`` draws per row; or,
    with ``count=None``, *keep every positive entry* of the row: the
    outcome of any count at or above the row's degree, taken without a
    draw (exact serving's whole-neighbourhood expansion).
``ExtractStep``
    ``A^l = EXTRACT(...)``: ``"compact"`` (per-batch column compaction,
    section 4.1.3), ``"bipartite"`` (row-extraction SpGEMM + per-batch
    column extraction, section 4.2.4), ``"walk"`` (advance random-walk
    positions — GraphSAINT's inner step), or ``"subgraph"`` (induce ``A``
    on the visited set and emit all layers — GraphSAINT's EXTRACT).
``FusedProbNormStep`` / ``FusedSampleExtractStep``
    What :func:`~repro.core.compile.optimize` makes of an adjacent
    ``PROB, NORM`` / ``SAMPLE, EXTRACT`` pair: one step (one kernel launch
    in the cost model) that an executor runs as the composition of the two
    plain handlers, normalizing the fresh product in place.

Mask dataflow
-------------
SAMPLE never builds the paper's ``Q^{l-1}`` as a matrix.  It leaves a
boolean mask over the nonzeros of the ``P`` it drew from
(:meth:`~repro.core.sampler_base.MatrixSampler.sample_stacked_mask`) and a
reference to that ``P`` — a later PROB may replace the executor's current
``P`` — and every EXTRACT kind reads the selected entries straight out of
the pair.  ``tests/reference_interpreter.py`` keeps the step-by-step
interpreter that does materialize ``Q^{l-1}``; the differential suite
holds both executors byte-equal to it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from ..obs.trace import get_tracer, plan_step_name
from ..sparse import CSRMatrix, vstack
from .frontier import LayerSample, MinibatchSample

if TYPE_CHECKING:  # pragma: no cover
    from .sampler_base import MatrixSampler, SpGEMMFn

__all__ = [
    "ProbStep",
    "NormStep",
    "SampleStep",
    "ExtractStep",
    "FusedProbNormStep",
    "FusedSampleExtractStep",
    "Step",
    "SamplingPlan",
    "step_phase",
    "run_steps",
    "sampled_rows_from_mask",
    "compact_layer_from_mask",
    "compact_batches",
    "sampled_lists",
    "bipartite_layers",
    "walk_advance",
    "subgraph_vertex_sets",
    "subgraph_minibatch",
    "LocalExecutor",
]

_PROB_SOURCES = ("frontier", "indicator", "global")
_EXTRACT_KINDS = ("compact", "bipartite", "walk", "subgraph")


@dataclass(frozen=True)
class ProbStep:
    """PROB: build this stage's probability matrix ``P``."""

    source: str = "frontier"

    def __post_init__(self) -> None:
        if self.source not in _PROB_SOURCES:
            raise ValueError(
                f"unknown PROB source {self.source!r}; "
                f"expected one of {_PROB_SOURCES}"
            )

    def describe_args(self) -> list[str]:
        return [self.source]


@dataclass(frozen=True)
class NormStep:
    """NORM: the sampler's row-local normalization of ``P``."""

    def describe_args(self) -> list[str]:
        return []


@dataclass(frozen=True)
class SampleStep:
    """SAMPLE: draw ``count`` distinct columns per row of ``P`` — or, with
    ``count=None``, keep every positive entry (no draw, no RNG use)."""

    count: int | None

    def __post_init__(self) -> None:
        if self.count is not None and self.count <= 0:
            raise ValueError(f"SAMPLE count must be positive, got {self.count}")

    def describe_args(self) -> list[str]:
        return ["s=all" if self.count is None else f"s={self.count}"]


@dataclass(frozen=True)
class ExtractStep:
    """EXTRACT: turn the sampled entries of ``P`` into layers / a new frontier.

    ``union_dst`` unions each batch's destination vertices into its sampled
    set (the root-term trick); ``debias`` importance-reweights the layer
    (pure LADIES only); ``n_layers`` is the GNN depth a ``"subgraph"``
    extraction emits.
    """

    kind: str = "compact"
    union_dst: bool = False
    debias: bool = False
    n_layers: int | None = None

    def describe_args(self) -> list[str]:
        args = [self.kind]
        if self.union_dst:
            args.append("union_dst")
        if self.debias:
            args.append("debias")
        if self.n_layers is not None:
            args.append(f"n_layers={self.n_layers}")
        return args

    def __post_init__(self) -> None:
        if self.kind not in _EXTRACT_KINDS:
            raise ValueError(
                f"unknown EXTRACT kind {self.kind!r}; "
                f"expected one of {_EXTRACT_KINDS}"
            )
        if self.kind == "subgraph" and (
            self.n_layers is None or self.n_layers <= 0
        ):
            raise ValueError("subgraph extraction needs n_layers >= 1")


@dataclass(frozen=True)
class FusedProbNormStep(ProbStep):
    """``PROB`` immediately followed by ``NORM``, as one step.

    The executor normalizes the probability product in place (it owns the
    freshly computed matrix), producing the values of the copying ``norm``
    without the copy.  Subclassing :class:`ProbStep` keeps plan validation
    and :func:`step_phase` working unchanged: the whole step is attributed
    to the ``probability`` phase.
    """

    display_name = "PROB+NORM"


@dataclass(frozen=True)
class FusedSampleExtractStep(SampleStep):
    """``SAMPLE`` immediately followed by a non-subgraph ``EXTRACT``.

    Runs as SAMPLE then ``extract``; the step as a whole belongs to the
    ``sampling`` phase (via the :class:`SampleStep` base), and an executor
    that charges a clock attributes the EXTRACT half to ``extraction``.
    """

    extract: ExtractStep

    display_name = "SAMPLE+EXTRACT"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.extract, ExtractStep):
            raise TypeError(f"extract must be an ExtractStep, got {self.extract!r}")
        if self.extract.kind == "subgraph":
            raise ValueError(
                "subgraph extraction reads the walk history, not the "
                "sampled entries — it cannot fuse with SAMPLE"
            )

    def describe_args(self) -> list[str]:
        return super().describe_args() + self.extract.describe_args()


Step = Union[
    ProbStep,
    NormStep,
    SampleStep,
    ExtractStep,
    FusedProbNormStep,
    FusedSampleExtractStep,
]


def step_phase(step: Step) -> str:
    """The Figure-7 phase a step's work is attributed to, by step type
    (a fused step counts as its first half)."""
    if isinstance(step, ProbStep):
        return "probability"
    if isinstance(step, (NormStep, SampleStep)):
        return "sampling"
    if isinstance(step, ExtractStep):
        return "extraction"
    raise TypeError(f"not a plan step: {step!r}")


@dataclass(frozen=True)
class SamplingPlan:
    """A sampler's whole bulk computation as a linear program of steps.

    Plans are emitted for a *concrete* fanout (``SampleStep.count`` values
    are literal — an integer, or ``None`` for keep-all), so one plan fully
    describes one bulk call and can be interpreted by any executor.
    Construction validates basic dataflow:
    SAMPLE needs a preceding PROB, and every EXTRACT needs a preceding
    SAMPLE (except ``"subgraph"``, which reads the walk history).
    """

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a sampling plan needs at least one step")
        have_p = have_q = False
        for step in self.steps:
            if isinstance(step, ProbStep):
                have_p = True
            elif isinstance(step, NormStep):
                if not have_p:
                    raise ValueError("NORM before any PROB step")
            elif isinstance(step, SampleStep):
                if not have_p:
                    raise ValueError("SAMPLE before any PROB step")
                have_q = True
            elif isinstance(step, ExtractStep):
                if step.kind != "subgraph" and not have_q:
                    raise ValueError(
                        f"EXTRACT {step.kind!r} before any SAMPLE step"
                    )
            else:
                raise TypeError(f"not a plan step: {step!r}")

    def __len__(self) -> int:
        return len(self.steps)

    def digest(self) -> str:
        """Stable content hash of the program (steps are frozen dataclasses
        with value reprs).  Worker pools key warm per-process sampler state
        by this digest so the hot-path task message carries 16 bytes, not
        a pickled plan; two plans share a digest iff they would execute
        identically."""
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for step in self.steps:
            h.update(type(step).__name__.encode())
            h.update(repr(step).encode())
        return h.hexdigest()

    def describe(self) -> str:
        """One line per step: ``phase  STEP(args)`` — for docs and debug.

        Fused steps (from :func:`repro.core.compile.optimize`) render under
        their own display names (``PROB+NORM``, ``SAMPLE+EXTRACT``) so an
        optimized program shows its fusions.
        """
        return "\n".join(
            f"{step_phase(step):<12} {plan_step_name(step)}"
            f"({', '.join(step.describe_args())})"
            for step in self.steps
        )


# ---------------------------------------------------------------------- #
# The step driver (shared by both executors)
# ---------------------------------------------------------------------- #
def run_steps(
    plan: SamplingPlan,
    dispatch: Callable[[Step], None],
    k: int,
    comm=None,
) -> None:
    """Run ``dispatch`` over ``plan``'s steps, the one loop both executors use.

    Each step gets a wall-domain ``plan`` span when a tracer is installed
    (the sim clock is charged by the caller per whole plan or, with a
    communicator, inside the handlers), and runs under
    ``comm.phase(step_phase(step))`` when there is a communicator to
    attribute simulated time to.
    """
    tracer = get_tracer()
    for step in plan.steps:
        phase = step_phase(step)
        span = (
            nullcontext()
            if tracer is None
            else tracer.span(
                plan_step_name(step),
                cat="plan",
                domain="wall",
                args={"phase": phase, "k": k},
            )
        )
        with span, nullcontext() if comm is None else comm.phase(phase):
            dispatch(step)


# ---------------------------------------------------------------------- #
# Mask kernels: reading SAMPLE's selection straight out of P
# ---------------------------------------------------------------------- #
def _block_selection(
    p: CSRMatrix, sel: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row pointer, columns) of the selected entries in rows [lo, hi)."""
    a, b = int(p.indptr[lo]), int(p.indptr[hi])
    block_sel = sel[a:b]
    local_rows = np.repeat(
        np.arange(hi - lo, dtype=np.int64), np.diff(p.indptr[lo : hi + 1])
    )[block_sel]
    indptr = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum(np.bincount(local_rows, minlength=hi - lo), out=indptr[1:])
    return indptr, p.indices[a:b][block_sel]


def sampled_rows_from_mask(
    p: CSRMatrix, sel: np.ndarray, lo: int, hi: int
) -> CSRMatrix:
    """The binary ``Q^{l-1}`` rows [lo, hi) of one batch, from the mask.

    What a sampler that overrides ``extract_batch_layer`` is handed: the
    block its override was written against, without the stacked
    ``Q^{l-1}`` ever being assembled.
    """
    indptr, cols = _block_selection(p, sel, lo, hi)
    return CSRMatrix(
        indptr, cols, np.ones(cols.size, dtype=np.float64),
        (hi - lo, p.shape[1]),
    )


def compact_layer_from_mask(
    p: CSRMatrix,
    sel: np.ndarray,
    lo: int,
    hi: int,
    dst_ids: np.ndarray,
    *,
    include_dst: bool,
    col_rank: np.ndarray,
) -> LayerSample:
    """GraphSAGE extraction for one batch: selection mask -> compacted layer.

    Produces exactly what ``SageSampler.extract_batch_layer`` makes of the
    batch's ``Q^{l-1}`` rows.  ``col_rank`` is a caller-owned scratch table
    with one slot per column of ``p``: the kept columns' slots receive
    their new ids and every selected entry is renumbered by one lookup, so
    a batch costs O(selected entries) whatever ``n`` is.  Slots of columns
    this batch did not keep hold garbage and are never read.
    """
    indptr, cols = _block_selection(p, sel, lo, hi)
    # One sort serves both the frontier and the renumbering: ``src`` is the
    # sorted union, so a kept column's new id is its position in it.
    src = np.unique(np.concatenate((cols, dst_ids)) if include_dst else cols)
    col_rank[src] = np.arange(src.size)
    adj = CSRMatrix(
        indptr, col_rank[cols], np.ones(cols.size), (hi - lo, int(src.size))
    )
    return LayerSample(adj, src, dst_ids)


def _lowers_compact(sampler) -> bool:
    """Compact straight from the mask only for the stock GraphSAGE
    ``extract_batch_layer`` (subclasses inheriting it included); a sampler
    overriding it is handed each batch's block instead."""
    from .sage_sampler import SageSampler  # imports this module

    return (
        getattr(type(sampler), "extract_batch_layer", None)
        is SageSampler.extract_batch_layer
    )


# ---------------------------------------------------------------------- #
# Row-local step bodies (shared by both executors)
# ---------------------------------------------------------------------- #
def compact_batches(
    sampler: "MatrixSampler",
    p: CSRMatrix,
    sel: np.ndarray,
    bounds: np.ndarray,
    dsts: Sequence[np.ndarray],
    col_rank: np.ndarray,
) -> list[LayerSample]:
    """EXTRACT(compact): each batch's sampled rows drop their empty columns;
    the kept columns are its new frontier (``layer.src_ids``)."""
    lower = _lowers_compact(sampler)
    layers = []
    for b, dst in enumerate(dsts):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        if lower:
            layer = compact_layer_from_mask(
                p, sel, lo, hi, dst,
                include_dst=sampler.include_dst, col_rank=col_rank,
            )
        else:
            layer = sampler.extract_batch_layer(
                sampled_rows_from_mask(p, sel, lo, hi), dst
            )
        layers.append(layer)
    return layers


def sampled_lists(
    p: CSRMatrix,
    sel: np.ndarray,
    dsts: Sequence[np.ndarray],
    union_dst: bool,
) -> list[np.ndarray]:
    """EXTRACT(bipartite), first half: per-batch sampled vertex sets of a
    layer-wise stage (one ``P`` row per batch), unioned with the batch's
    destinations when the step asks for it."""
    ends = p.indptr[: len(dsts) + 1]
    sampled = [
        p.indices[lo:hi][sel[lo:hi]] for lo, hi in zip(ends[:-1], ends[1:])
    ]
    if union_dst:
        sampled = [np.union1d(sv, dv) for sv, dv in zip(sampled, dsts)]
    return sampled


def bipartite_layers(
    sampler: "MatrixSampler",
    adjs: Sequence[CSRMatrix],
    sampled: Sequence[np.ndarray],
    dsts: Sequence[np.ndarray],
    step: ExtractStep,
    p: CSRMatrix,
    s: int,
) -> list[LayerSample]:
    """EXTRACT(bipartite), last half: wrap each batch's column-extracted
    adjacency as a layer, importance-reweighted from row ``b`` of the
    current ``p`` when the step debiases."""
    layers = []
    for b, (adj, src, dst) in enumerate(zip(adjs, sampled, dsts)):
        layer = LayerSample(adj, src, dst)
        if step.debias:
            probs = np.zeros(p.shape[1])
            cols, vals = p.row(b)
            probs[cols] = vals
            layer = sampler.debias_layer(layer, probs, s)
        layers.append(layer)
    return layers


def walk_advance(
    p: CSRMatrix, sel: np.ndarray, frontier: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """EXTRACT(walk): walkers with a sampled neighbor move to it, walkers
    on isolated vertices stay in place.  Returns the new positions and
    their per-batch views (the next destination lists)."""
    nxt = frontier.copy()
    moved = np.bincount(p.row_ids()[sel], minlength=p.shape[0]) > 0
    nxt[moved] = p.indices[sel]
    return nxt, [
        nxt[int(bounds[b]) : int(bounds[b + 1])]
        for b in range(len(bounds) - 1)
    ]


def subgraph_vertex_sets(
    visited: Sequence[np.ndarray] | None,
    bounds: np.ndarray | None,
    dsts: Sequence[np.ndarray],
    batches: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """EXTRACT(subgraph), first half: per batch, the sorted union of every
    walk position it visited and its own roots."""
    if visited is None:  # degenerate zero-step walk
        visited = [np.concatenate(dsts)]
        bounds = np.cumsum([0] + [len(d) for d in dsts])
    verts = []
    for b, batch in enumerate(batches):
        lo, hi = int(bounds[b]), int(bounds[b + 1])
        mine = np.unique(np.concatenate([stepv[lo:hi] for stepv in visited]))
        verts.append(np.union1d(mine, batch))
    return verts


def subgraph_minibatch(
    sub: CSRMatrix, verts: np.ndarray, batch: np.ndarray, n_layers: int
) -> MinibatchSample:
    """EXTRACT(subgraph), last half: ``n_layers`` layers over the induced
    subgraph, the last restricted to the batch's rows."""
    layers = [LayerSample(sub, verts, verts) for _ in range(n_layers - 1)]
    pos = np.searchsorted(verts, batch)
    layers.append(LayerSample(sub.extract_rows(pos), verts, batch))
    return MinibatchSample(batch, layers)


# ---------------------------------------------------------------------- #
# The single-device executor
# ---------------------------------------------------------------------- #
class LocalExecutor:
    """Run a :class:`SamplingPlan` on one device.

    Carries the executor state Algorithm 1 threads between steps: the
    per-batch frontiers, the current ``P`` with its row-to-batch
    ``bounds``, the last SAMPLE's ``(P, mask)`` pair, the collected layers,
    and (for graph-wise plans) the walk history.  RNG handling matches the
    historical loops exactly — a single generator is consumed across the
    whole stacked bulk, per-batch generators draw per row block — so
    fixed-seed output is bit-identical to the pre-IR implementations
    (pinned by the golden digest suite).
    """

    def __init__(
        self,
        sampler: "MatrixSampler",
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        rng,
        spgemm_fn: "SpGEMMFn",
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
        self.bounds: np.ndarray | None = None
        self.s: int | None = None
        # What the last SAMPLE drew from, and its selection over that
        # matrix's nonzeros (a later PROB replaces ``p``, not these).
        self.p_sampled: CSRMatrix | None = None
        self.sel: np.ndarray | None = None
        self.frontier: np.ndarray | None = None
        self.importance: CSRMatrix | None = None
        self.visited: list[np.ndarray] | None = None
        self._col_rank = np.empty(self.n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        run_steps(plan, self._dispatch, self.k)
        return [
            self.results[i]
            if self.results[i] is not None
            else MinibatchSample(
                self.batches[i], list(reversed(self.layers_rev[i]))
            )
            for i in range(self.k)
        ]

    def _dispatch(self, step: Step) -> None:
        if isinstance(step, FusedSampleExtractStep):
            self._sample(step)
            self._extract(step.extract)
        elif isinstance(step, ProbStep):
            self._prob(step, normalize=isinstance(step, FusedProbNormStep))
        elif isinstance(step, NormStep):
            self.p = self.sampler.norm(self.p)
        elif isinstance(step, SampleStep):
            self._sample(step)
        else:
            self._extract(step)

    # ------------------------------------------------------------------ #
    # PROB (+ in-place NORM)
    # ------------------------------------------------------------------ #
    def _prob(self, step: ProbStep, *, normalize: bool) -> None:
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
        if normalize:
            # Fresh product (or fresh stack of the importance row): ours
            # to overwrite.
            self.p = self.sampler.norm_inplace(self.p)

    # ------------------------------------------------------------------ #
    # SAMPLE
    # ------------------------------------------------------------------ #
    def _sample(self, step: SampleStep) -> None:
        self.s = step.count
        self.p_sampled = self.p
        self.sel = self.sampler.sample_stacked_mask(
            self.p, step.count, self.rng, self.bounds
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
        layers = compact_batches(
            self.sampler, self.p_sampled, self.sel, self.bounds,
            self.dst_lists, self._col_rank,
        )
        for collected, layer in zip(self.layers_rev, layers):
            collected.append(layer)
        self.dst_lists = [layer.src_ids for layer in layers]

    def _extract_bipartite(self, step: ExtractStep) -> None:
        sampled = sampled_lists(
            self.p_sampled, self.sel, self.dst_lists, step.union_dst
        )
        a_r = self.sampler.row_extract(
            self.adj, self.dst_lists, spgemm_fn=self.spgemm
        )
        a_s = self.sampler.col_extract(
            a_r, self.dst_lists, sampled, spgemm_fn=self.spgemm
        )
        layers = bipartite_layers(
            self.sampler, a_s, sampled, self.dst_lists, step, self.p, self.s
        )
        for collected, layer in zip(self.layers_rev, layers):
            collected.append(layer)
        self.dst_lists = sampled

    def _extract_walk(self) -> None:
        if self.visited is None:
            self.visited = [self.frontier]
        nxt, self.dst_lists = walk_advance(
            self.p_sampled, self.sel, self.frontier, self.bounds
        )
        self.visited.append(nxt)

    def _extract_subgraph(self, step: ExtractStep) -> None:
        verts = subgraph_vertex_sets(
            self.visited, self.bounds, self.dst_lists, self.batches
        )
        for i, (v, batch) in enumerate(zip(verts, self.batches)):
            sub = self.sampler.induced_subgraph(
                self.adj, v, spgemm_fn=self.spgemm
            )
            self.results[i] = subgraph_minibatch(sub, v, batch, step.n_layers)
