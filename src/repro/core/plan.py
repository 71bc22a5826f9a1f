"""The sampling-plan IR: Algorithm 1 as *data*, run by one interpreter.

The paper's central claim is that one matrix program — PROB (an SpGEMM),
NORM, SAMPLE (inverse transform sampling), EXTRACT — covers several
samplers, each with its own choice of ``Q``: GraphSAGE (node-wise) and
LADIES and FastGCN (layer-wise) differ only in how each step is
parameterized.  This module makes that claim operational: a
:class:`MatrixSampler` *emits* a declarative :class:`SamplingPlan` of those
four step types, and :class:`LocalExecutor` runs it as emitted — there is
no optimizer between the two.  The executor is the one holder of
Algorithm 1's state and step bodies.  The 1.5D grid of Algorithm 2
(:class:`~repro.distributed.partitioned.PartitionedExecutor`) drives one
``LocalExecutor`` per process row and substitutes distributed SpGEMMs for
the products of ``A``, which is why the two steps that consume such a
product are split into a state half and a product half.

Because distribution is a property of the driver rather than of the
sampler, every sampler — plugins included — runs partitioned for free,
and per-phase time attribution (``probability`` / ``sampling`` /
``extraction``) is derived from step types via
:func:`step_phase` instead of hand-placed phase calls.

Step vocabulary (paper mapping)
-------------------------------
``ProbStep``
    ``P^l = Q^l A`` (Algorithm 1 line 2).  ``source`` picks how ``Q`` is
    built: ``"frontier"`` (one row-selector row per frontier vertex —
    node-wise), ``"indicator"`` (one indicator row per batch — layer-wise),
    or ``"global"`` (a batch-independent importance row from A's column
    norms — FastGCN; no per-layer SpGEMM).
``NormStep``
    ``P = NORM(P)`` — the sampler's row-local normalization, free to run
    in place (:meth:`~repro.core.sampler_base.MatrixSampler.norm`):
    the ``P`` an executor holds is always its own — a fresh product, a
    fresh stack of the importance row, or what an earlier in-place NORM
    left — and nothing reads the values a NORM overwrites.
``SampleStep``
    ``SAMPLE(P, count)`` — inverse transform sampling of ``count``
    distinct columns per row (:mod:`repro.core.its`).
``ExtractStep``
    ``A^l = EXTRACT(...)``: ``"compact"`` (per-batch column compaction,
    section 4.1.3, node-wise) or ``"bipartite"`` (row-extraction SpGEMM +
    per-batch column extraction, section 4.2.4, layer-wise).

Mask dataflow
-------------
SAMPLE never builds the paper's ``Q^{l-1}`` as a matrix.  It leaves a
boolean mask over the nonzeros of the ``P`` it drew from
(:meth:`~repro.core.sampler_base.MatrixSampler.sample_stacked_mask`) and a
reference to that ``P`` — a later PROB may replace the executor's current
``P`` — and both EXTRACT kinds read the selected entries straight out of
the pair: its ``indices`` and the mask, never its ``data``, so a NORM
between SAMPLE and EXTRACT may normalize that ``P`` in place.
``tests/reference_interpreter.py`` keeps the step-by-step interpreter that
does materialize ``Q^{l-1}`` (and copies on NORM); the differential suite
holds the executor, locally and on the grid, byte-equal to it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from ..obs.trace import get_tracer, plan_step_name
from ..sparse import CSRMatrix, vstack
from ..sparse.csr import _masked_indptr
from .frontier import LayerSample, MinibatchSample

if TYPE_CHECKING:  # pragma: no cover
    from .sampler_base import MatrixSampler, SpGEMMFn

__all__ = [
    "ProbStep",
    "NormStep",
    "SampleStep",
    "ExtractStep",
    "Step",
    "SamplingPlan",
    "step_phase",
    "run_steps",
    "sampled_rows_from_mask",
    "compact_layer_from_mask",
    "LocalExecutor",
]

_PROB_SOURCES = ("frontier", "indicator", "global")
_EXTRACT_KINDS = ("compact", "bipartite")


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
    """SAMPLE: draw ``count`` distinct columns per row of ``P``."""

    count: int

    def __post_init__(self) -> None:
        if self.count is None or self.count <= 0:
            raise ValueError(
                f"SAMPLE count must be a positive integer, got {self.count!r}"
            )

    def describe_args(self) -> list[str]:
        return [f"s={self.count}"]


@dataclass(frozen=True)
class ExtractStep:
    """EXTRACT: turn the sampled entries of ``P`` into layers / a new frontier.

    ``union_dst`` unions each batch's destination vertices into its sampled
    set (the root-term trick); ``debias`` importance-reweights the layer
    (pure LADIES only).
    """

    kind: str = "compact"
    union_dst: bool = False
    debias: bool = False

    def describe_args(self) -> list[str]:
        args = [self.kind]
        if self.union_dst:
            args.append("union_dst")
        if self.debias:
            args.append("debias")
        return args

    def __post_init__(self) -> None:
        if self.kind not in _EXTRACT_KINDS:
            raise ValueError(
                f"unknown EXTRACT kind {self.kind!r}; "
                f"expected one of {_EXTRACT_KINDS}"
            )


Step = Union[ProbStep, NormStep, SampleStep, ExtractStep]


def step_phase(step: Step) -> str:
    """The Figure-7 phase a step's work is attributed to, by step type."""
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
    are literal integers), so one plan fully describes one bulk call and
    can be interpreted by any executor.
    Construction validates basic dataflow:
    SAMPLE needs a preceding PROB, and every EXTRACT needs a preceding
    SAMPLE.
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
                if not have_q:
                    raise ValueError(
                        f"EXTRACT {step.kind!r} before any SAMPLE step"
                    )
            else:
                raise TypeError(f"not a plan step: {step!r}")

    def __len__(self) -> int:
        return len(self.steps)

    def digest(self) -> str:
        """Stable content hash of the program (steps are frozen dataclasses
        with value reprs): two plans share a digest iff they would execute
        identically."""
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for step in self.steps:
            h.update(type(step).__name__.encode())
            h.update(repr(step).encode())
        return h.hexdigest()

    def describe(self) -> str:
        """One line per step: ``phase  STEP(args)`` — for docs and debug.

        A plan runs as emitted, so this is exactly what executes: four
        lines per layer.
        """
        return "\n".join(
            f"{step_phase(step):<12} {plan_step_name(step)}"
            f"({', '.join(step.describe_args())})"
            for step in self.steps
        )


# ---------------------------------------------------------------------- #
# The step driver
# ---------------------------------------------------------------------- #
def run_steps(
    plan: SamplingPlan,
    dispatch: Callable[[Step], None],
    k: int,
    comm=None,
) -> None:
    """Run ``dispatch`` over ``plan``'s steps, the one step loop.

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
    return (
        _masked_indptr(p.indptr[lo : hi + 1], block_sel),
        p.indices[a:b][block_sel],
    )


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
    batch's ``Q^{l-1}`` rows.  The frontier ``src`` is the sorted set of
    selected columns (plus ``dst_ids`` under ``include_dst``), found by
    marking them in a fresh boolean table with one slot per column of ``p``
    and reading the marks back with ``flatnonzero``: sorted, distinct and
    int64, bitwise what ``np.unique`` of the same ids returns, with no
    hashing and no sort.  That costs O(n) bits (a zeroed allocation) plus
    O(selected entries); it beats the hash-and-sort ``np.unique`` even at
    ``n = 2^20`` with 10^5 entries, so there is no size switch.
    ``col_rank`` is a caller-owned scratch table with one slot per column
    of ``p``: the kept columns' slots receive their new ids and every
    selected entry is renumbered by one lookup.  Slots of columns this
    batch did not keep hold garbage and are never read.
    """
    indptr, cols = _block_selection(p, sel, lo, hi)
    marks = np.zeros(p.shape[1], dtype=bool)
    marks[cols] = True
    if include_dst:
        marks[dst_ids] = True
    # ``src`` is sorted, so a kept column's new id is its position in it.
    src = np.flatnonzero(marks)
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
# The executor
# ---------------------------------------------------------------------- #
class LocalExecutor:
    """Run a :class:`SamplingPlan` on one device — the one holder of
    Algorithm 1's state and step bodies.

    Carries the executor state Algorithm 1 threads between steps: the
    per-batch frontiers, the current ``P`` with its row-to-batch
    ``bounds``, the last SAMPLE's ``(P, mask)`` pair and the collected
    layers.  RNG handling matches the historical loops exactly — a single
    generator is consumed across the whole stacked bulk, per-batch
    generators draw per row block — so fixed-seed output is bit-identical
    to the pre-IR implementations (pinned by the golden digest suite).

    The two steps that consume a product of ``A`` are split into a state
    half and the half that takes the product — :meth:`prob_q` /
    :meth:`take_p` and :meth:`take_a_r` — so a driver that computes the
    products elsewhere runs the same bodies:
    :class:`~repro.distributed.partitioned.PartitionedExecutor` holds one
    executor per process row and feeds it 1.5D products.  ``adj`` is the
    matrix this executor's own products read (a row executor's block row,
    which it never multiplies); ``col_rank`` is a scratch table with one
    slot per vertex, shareable between executors that run one at a time.
    """

    def __init__(
        self,
        sampler: "MatrixSampler",
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        rng,
        spgemm_fn: "SpGEMMFn",
        *,
        col_rank: np.ndarray | None = None,
    ) -> None:
        self.sampler = sampler
        self.adj = adj
        self.n = adj.shape[1]
        self.batches = [np.asarray(b, dtype=np.int64) for b in batches]
        self.k = len(self.batches)
        self.rng = rng
        self.spgemm = spgemm_fn
        # Frontier state: per-batch destination lists, batch-outward layers.
        self.dst_lists: list[np.ndarray] = [b for b in self.batches]
        self.layers_rev: list[list[LayerSample]] = [[] for _ in range(self.k)]
        # Step-to-step dataflow.
        self.p: CSRMatrix | None = None
        self.bounds: np.ndarray | None = None
        self.s: int | None = None
        # What the last SAMPLE drew from, and its selection over that
        # matrix's nonzeros (a later PROB replaces ``p``, not these).
        self.p_sampled: CSRMatrix | None = None
        self.sel: np.ndarray | None = None
        self.importance: CSRMatrix | None = None
        self._col_rank = (
            np.empty(self.n, dtype=np.int64) if col_rank is None else col_rank
        )

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        run_steps(plan, self._dispatch, self.k)
        return self.samples()

    def samples(self) -> list[MinibatchSample]:
        """One sample per batch, in batch order, its layers
        outermost-first."""
        return [
            MinibatchSample(batch, list(reversed(layers)))
            for batch, layers in zip(self.batches, self.layers_rev)
        ]

    def _dispatch(self, step: Step) -> None:
        if isinstance(step, ProbStep):
            q = self.prob_q(step)
            if q is None and self.importance is None:
                self.importance = self.sampler.importance_row(self.adj)
            self.take_p(None if q is None else self.spgemm(q, self.adj))
        elif isinstance(step, NormStep):
            self.p = self.sampler.norm(self.p)
        elif isinstance(step, SampleStep):
            self.sample(step)
        else:
            self.extract(step)

    # ------------------------------------------------------------------ #
    # PROB
    # ------------------------------------------------------------------ #
    def prob_q(self, step: ProbStep) -> CSRMatrix | None:
        """PROB's state half: set ``bounds`` and return the ``Q`` of
        ``P = Q A`` — ``None`` for a global PROB, whose ``P`` is the
        importance row stacked per batch."""
        if step.source == "frontier":
            self.bounds = np.cumsum([0] + [len(d) for d in self.dst_lists])
            return self.sampler.make_q(np.concatenate(self.dst_lists), self.n)
        self.bounds = np.arange(self.k + 1)
        if step.source == "indicator":
            return self.sampler.make_q(self.dst_lists, self.n)
        return None

    def take_p(self, p: CSRMatrix | None) -> None:
        """PROB's product half: ``p`` is a fresh ``Q A`` for the
        :meth:`prob_q` ``Q``, or ``None`` to stack :attr:`importance` —
        either way a matrix this executor owns, which NORM overwrites."""
        self.p = vstack([self.importance] * self.k) if p is None else p

    # ------------------------------------------------------------------ #
    # SAMPLE
    # ------------------------------------------------------------------ #
    def sample(self, step: SampleStep) -> None:
        self.s = step.count
        self.p_sampled = self.p
        self.sel = self.sampler.sample_stacked_mask(
            self.p, step.count, self.rng, self.bounds
        )

    # ------------------------------------------------------------------ #
    # EXTRACT
    # ------------------------------------------------------------------ #
    def extract(self, step: ExtractStep) -> None:
        if step.kind == "compact":
            self._extract_compact()
        else:
            self.take_a_r(
                step,
                self.sampler.row_extract(
                    self.adj, self.dst_lists, spgemm_fn=self.spgemm
                ),
            )

    def _collect(self, layers: list[LayerSample]) -> None:
        for collected, layer in zip(self.layers_rev, layers):
            collected.append(layer)

    def _extract_compact(self) -> None:
        """Each batch's sampled rows drop their empty columns; the kept
        columns are its new frontier (``layer.src_ids``)."""
        p, sel, lower = self.p_sampled, self.sel, _lowers_compact(self.sampler)
        layers = []
        for b, dst in enumerate(self.dst_lists):
            lo, hi = int(self.bounds[b]), int(self.bounds[b + 1])
            if lower:
                layer = compact_layer_from_mask(
                    p, sel, lo, hi, dst,
                    include_dst=self.sampler.include_dst,
                    col_rank=self._col_rank,
                )
            else:
                layer = self.sampler.extract_batch_layer(
                    sampled_rows_from_mask(p, sel, lo, hi), dst
                )
            layers.append(layer)
        self._collect(layers)
        self.dst_lists = [layer.src_ids for layer in layers]

    def take_a_r(self, step: ExtractStep, a_r: CSRMatrix) -> list[CSRMatrix]:
        """Bipartite EXTRACT given the stacked row extraction
        ``A_R = Q_R A`` of the destination lists: each batch's sampled set
        (one ``P`` row per batch, unioned with its destinations when the
        step asks) column-extracts its rows of ``a_r`` into a layer,
        importance-reweighted from row ``b`` of the current ``P`` when the
        step debiases.  Returns the column-extracted adjacencies."""
        p, sel = self.p_sampled, self.sel
        ends = p.indptr[: self.k + 1]
        sampled = [
            p.indices[lo:hi][sel[lo:hi]] for lo, hi in zip(ends[:-1], ends[1:])
        ]
        if step.union_dst:
            sampled = [
                np.union1d(sv, dv) for sv, dv in zip(sampled, self.dst_lists)
            ]
        adjs = self.sampler.col_extract(
            a_r, self.dst_lists, sampled, spgemm_fn=self.spgemm
        )
        layers = []
        for b, (adj, src, dst) in enumerate(
            zip(adjs, sampled, self.dst_lists)
        ):
            layer = LayerSample(adj, src, dst)
            if step.debias:
                probs = np.zeros(self.p.shape[1])
                cols, vals = self.p.row(b)
                probs[cols] = vals
                layer = self.sampler.debias_layer(layer, probs, self.s)
            layers.append(layer)
        self._collect(layers)
        self.dst_lists = sampled
        return adjs
