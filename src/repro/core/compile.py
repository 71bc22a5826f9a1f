"""The sampling-plan optimizer: the passes every plan goes through.

A sampler emits the four-step program of Algorithm 1 per layer;
:func:`optimize` rewrites it before :class:`~repro.core.plan.LocalExecutor`
runs it — on one device or once per process row of the 1.5D grid; always,
there is no unoptimized mode to select — without changing a single output
bit:

* :func:`eliminate_dead_steps` — drop PROB/NORM steps whose results are
  overwritten before any step reads them.  SAMPLE steps are **never**
  eliminated even when their output is dead: they consume randomness, and
  an optimized plan must replay the emitted plan's RNG stream exactly.
* :func:`fuse_prob_norm` — replace adjacent ``PROB, NORM`` with a single
  :class:`~repro.core.plan.FusedProbNormStep`: the probability product is
  normalized *in place* (the executor owns the freshly computed product),
  skipping the full indptr/indices/data copy of a standalone NORM.
* :func:`fuse_sample_extract` — replace adjacent ``SAMPLE, EXTRACT`` with
  a :class:`~repro.core.plan.FusedSampleExtractStep`.  The executor keeps
  SAMPLE's selection as a mask over ``P`` whether or not the pair is fused
  (:mod:`repro.core.plan`, "Mask dataflow"), so this saves no work — it
  makes the pair one step, which the cost model counts as one launch.

The executor accepts optimized and unoptimized plans alike, so each pass
is tested differentially: ``tests/test_compile_differential.py`` runs
hundreds of random plans both ways, locally and on three grid shapes,
against the ``Q^{l-1}``-materializing oracle in
``tests/reference_interpreter.py``, asserting byte-equal samples.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .plan import (
    ExtractStep,
    FusedProbNormStep,
    FusedSampleExtractStep,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
)

__all__ = [
    "FusedProbNormStep",
    "FusedSampleExtractStep",
    "eliminate_dead_steps",
    "fuse_prob_norm",
    "fuse_sample_extract",
    "optimize",
    "DEFAULT_PASSES",
]


# ---------------------------------------------------------------------- #
# Optimizer passes (SamplingPlan -> SamplingPlan, semantics-preserving)
# ---------------------------------------------------------------------- #
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
    one would shift every later draw, breaking bit-identity with the
    emitted plan.  EXTRACT steps always produce observable output.  Runs to
    a fixpoint; a plan that optimizes to nothing is returned unchanged
    (its output is layer-free either way, and plans must be non-empty).
    """
    steps = list(plan.steps)
    changed = True
    while changed:
        changed = False
        for i, step in enumerate(steps):
            if type(step) is NormStep and _norm_is_dead(steps, i):
                del steps[i]
                changed = True
                break
            if type(step) is ProbStep and _prob_is_dead(steps, i):
                del steps[i]
                changed = True
                break
    if not steps:
        return plan
    return SamplingPlan(tuple(steps))


def fuse_prob_norm(plan: SamplingPlan) -> SamplingPlan:
    """Fuse every adjacent ``PROB, NORM`` pair (always legal: nothing can
    observe the unnormalized ``P`` between two adjacent steps)."""
    steps = list(plan.steps)
    out: list = []
    i = 0
    while i < len(steps):
        if (
            type(steps[i]) is ProbStep
            and i + 1 < len(steps)
            and type(steps[i + 1]) is NormStep
        ):
            out.append(FusedProbNormStep(steps[i].source))
            i += 2
        else:
            out.append(steps[i])
            i += 1
    return SamplingPlan(tuple(out))


def fuse_sample_extract(plan: SamplingPlan) -> SamplingPlan:
    """Fuse every adjacent ``SAMPLE, EXTRACT`` pair except a ``subgraph``
    extraction (which reads the walk history, not the sample).  Always
    legal: a fused SAMPLE leaves the same ``(P, mask)`` behind as a plain
    one, so a later EXTRACT sharing it reads what it would have."""
    steps = list(plan.steps)
    out: list = []
    i = 0
    while i < len(steps):
        if (
            type(steps[i]) is SampleStep
            and i + 1 < len(steps)
            and type(steps[i + 1]) is ExtractStep
            and steps[i + 1].kind != "subgraph"
        ):
            out.append(
                FusedSampleExtractStep(steps[i].count, steps[i + 1])
            )
            i += 2
        else:
            out.append(steps[i])
            i += 1
    return SamplingPlan(tuple(out))


DEFAULT_PASSES: tuple[Callable[[SamplingPlan], SamplingPlan], ...] = (
    eliminate_dead_steps,
    fuse_prob_norm,
    fuse_sample_extract,
)


def optimize(
    plan: SamplingPlan,
    passes: Sequence[Callable[[SamplingPlan], SamplingPlan]] = DEFAULT_PASSES,
) -> SamplingPlan:
    """Run the optimizer pass pipeline over a plan.

    Every pass is individually semantics-preserving (same samples, same
    RNG consumption), so any subset/ordering is safe; the default order is
    dead-step elimination first (so fusions see the cleaned plan), then
    the two fusions.
    """
    for pass_fn in passes:
        plan = pass_fn(plan)
    return plan
