"""The matrix-based sampling abstraction (paper Algorithm 1).

Every sampling algorithm is the same program over layers::

    for l = L .. 1:
        P       = Q^l A          # generate probability distributions
        P       = NORM(P)        # sampler-specific normalization
        Q^{l-1} = SAMPLE(P, b, s)  # inverse transform sampling per row
        A^l     = EXTRACT(A, Q^l, Q^{l-1})

Samplers differ only in how ``Q`` is constructed, how ``NORM`` turns the
SpGEMM output into per-row distributions, and what ``EXTRACT`` keeps.  The
:class:`MatrixSampler` base class pins that contract: a sampler *emits*
that program as a declarative :class:`~repro.core.plan.SamplingPlan` (four
step types — PROB / NORM / SAMPLE / EXTRACT) via :meth:`MatrixSampler.plan`
and implements the row-local primitives the steps reference.  The SAMPLE
step is shared — inverse transform sampling of a positive count per row —
and lives in :mod:`repro.core.its`.

Execution is an executor concern, not a sampler concern:
:meth:`MatrixSampler.sample_bulk` hands the emitted plan to
:class:`~repro.core.plan.LocalExecutor`, and the partitioned driver
(:mod:`repro.distributed`) runs the *same* executor once per process row,
feeding it distributed SpGEMMs for the ``Q^l A`` products — so sampler
semantics are defined exactly once, and since :meth:`MatrixSampler.plan`
is abstract, every sampler runs under every executor.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence, Union

import numpy as np

from ..sparse import CSRMatrix, spgemm
from .frontier import MinibatchSample
# benchmarks/e2e/trace.py wraps both by these names, here.
from .its import its_sample_rows, its_select_mask
from .plan import LocalExecutor, SamplingPlan

__all__ = ["MatrixSampler", "SpGEMMFn", "RngSpec"]

#: Signature of the SpGEMM used for the probability product; distributed
#: algorithms substitute their own.
SpGEMMFn = Callable[[CSRMatrix, CSRMatrix], CSRMatrix]

#: Randomness accepted by ``sample_bulk``: one generator consumed across the
#: whole stacked bulk (the historical behaviour), or one independent
#: generator per batch.  Per-batch streams make a batch's draws depend only
#: on its own stream and its own frontier — the property the replicated
#: driver uses to seed by *global* batch index so sampling output is
#: invariant to the world size.
RngSpec = Union[np.random.Generator, Sequence[np.random.Generator]]


class MatrixSampler(ABC):
    """Base class for matrix-expressible sampling algorithms.

    SAMPLE is the paper's inverse transform sampling
    (:func:`~repro.core.its.its_select_mask`).  The sampler's own products
    run :func:`~repro.sparse.spgemm` unless a caller hands in a wrapper.
    """

    name: str = "abstract"
    #: Model convolution the trainer builds when ``RunConfig.conv`` is unset.
    default_conv: str = "gcn"
    #: The CLI's ``--fanout`` when none is given.
    default_fanout: tuple[int, ...] = (5, 3)

    def __init__(self) -> None:
        # fanout tuple -> emitted plan; see emitted_plan().
        self._plans: dict[tuple, SamplingPlan] = {}

    @classmethod
    def for_graph(cls, graph, **kwargs) -> "MatrixSampler":
        """Build the sampler for ``graph`` (a :class:`~repro.graphs.Graph`).

        The base ignores the graph; a sampler whose state depends on graph
        statistics (e.g. degrees) overrides this to read them."""
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    # Algorithm-1 pieces
    # ------------------------------------------------------------------ #
    @abstractmethod
    def norm(self, p: CSRMatrix) -> CSRMatrix:
        """Returns NORM(P), the raw ``Q A`` product turned into per-row
        distributions; may overwrite ``p``, which is always the executor's
        own (a fresh product, a fresh stack of the importance row, or what
        an earlier NORM returned)."""

    def sample_mask(
        self, p: CSRMatrix, s: int, rng: np.random.Generator
    ) -> np.ndarray:
        """SAMPLE(P, s) as a boolean mask over ``p``'s nonzeros:
        ``min(s, nnz)`` distinct columns per row.

        The mask is the form the executor's EXTRACT handlers read
        (``Q^{l-1}`` is never built).
        """
        return its_select_mask(p, s, rng)

    @staticmethod
    def _normalize_rng(rng: RngSpec, k: int):
        """Normalize a ``sample_bulk`` rng argument, materializing and
        validating a per-batch sequence (which may be a one-shot iterator)
        exactly once.

        Returns a single generator unchanged (legacy stacked consumption)
        or a list of one generator per batch.
        """
        if isinstance(rng, np.random.Generator):
            return rng
        rngs = list(rng)
        if len(rngs) != k:
            raise ValueError(
                f"need one rng per batch: got {len(rngs)} for {k} batches"
            )
        if not all(isinstance(g, np.random.Generator) for g in rngs):
            raise TypeError("per-batch rngs must be numpy Generators")
        return rngs

    def sample_stacked_mask(
        self,
        p: CSRMatrix,
        s: int,
        rng: RngSpec,
        bounds: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """SAMPLE on a stacked ``P`` whose row blocks belong to batches, as
        a mask over ``p``'s nonzeros.

        With a single generator this is exactly :meth:`sample_mask` (one
        stream consumed across the whole stack).  With per-batch generators
        (a list from :meth:`_normalize_rng`) each zero-copy row block
        ``bounds[i]:bounds[i+1]`` is sampled from its own stream, so a
        batch's draws do not depend on what else happens to be stacked with
        it, and the block masks concatenate back into ``p``'s global
        nonzero order, since the blocks tile ``p``'s nnz contiguously.
        Rows are independent under ITS, so the distribution is identical
        either way.
        """
        if isinstance(rng, np.random.Generator):
            return self.sample_mask(p, s, rng)
        if len(rng) != len(bounds) - 1:
            raise ValueError(
                f"need one rng per row block: got {len(rng)} for "
                f"{len(bounds) - 1} blocks"
            )
        parts = [
            self.sample_mask(
                p.row_block(int(bounds[i]), int(bounds[i + 1])), s, g
            )
            for i, g in enumerate(rng)
        ]
        if not parts:
            return np.zeros(0, dtype=bool)
        return np.concatenate(parts)

    # ------------------------------------------------------------------ #
    # Plan emission + whole-algorithm entry point (single device)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def plan(self, fanout: Sequence[int]) -> SamplingPlan:
        """Emit this sampler's declarative program for a concrete fanout.

        The :class:`~repro.core.plan.SamplingPlan` is what makes a sampler
        executable — locally through :meth:`sample_bulk`, and under *every*
        distributed driver (replicated runs the plan per rank; partitioned
        runs it per process row of the 1.5D grid, with distributed
        products).  A class without it cannot be instantiated.
        """

    def emitted_plan(self, fanout: Sequence[int]) -> SamplingPlan:
        """:meth:`plan` for ``fanout``, emitted once per distinct fanout and
        kept on the sampler — the program every executor runs as is.

        The program a fanout emits cannot change over a sampler's life
        (plans depend on construction-time attributes only), so the
        emission and its dataflow validation are paid on first use — by
        :meth:`sample_bulk` or by anything that only wants to count the
        steps that will run.
        """
        key = tuple(fanout)
        try:
            return self._plans[key]
        except KeyError:
            program = self.plan(tuple(int(s) for s in key))
            self._plans[key] = program
            return program

    def sample_bulk(
        self,
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        fanout: Sequence[int],
        rng: RngSpec,
        *,
        spgemm_fn: SpGEMMFn | None = None,
    ) -> list[MinibatchSample]:
        """Sample ``len(batches)`` minibatches in one bulk pass.

        ``fanout[0]`` is the sample count for the layer adjacent to the
        batch (the paper's layer ``L``) and ``fanout[-1]`` the furthest;
        each entry is a positive integer.  Returns one
        :class:`MinibatchSample` per input batch, in order.  ``rng`` is a
        single generator (draws consumed across the stacked bulk) or a
        sequence of one generator per batch (each batch draws only from its
        own stream — see :data:`RngSpec`).  ``spgemm_fn=None`` runs
        :func:`~repro.sparse.spgemm`; cost recorders pass their own wrapper.

        Runs :meth:`emitted_plan` (the emitted :meth:`plan`, memoized per
        fanout) as is on the single-device
        :class:`~repro.core.plan.LocalExecutor`.
        """
        self._validate(adj, batches, fanout)
        program = self.emitted_plan(fanout)
        rng = self._normalize_rng(rng, len(batches))
        executor = LocalExecutor(self, adj, batches, rng, spgemm_fn or spgemm)
        return executor.run(program)

    # ------------------------------------------------------------------ #
    # Shared validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        fanout: Sequence[int],
    ) -> int:
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if not batches:
            raise ValueError("need at least one batch")
        if not fanout:
            raise ValueError("need at least one layer fanout")
        if any(s is None for s in fanout):
            raise ValueError(
                f"fanout {tuple(fanout)} has a None entry: a sampler draws a "
                f"positive count per layer — serve whole neighbourhoods with "
                f"Engine.serving(fanout=None)"
            )
        if any(s <= 0 for s in fanout):
            raise ValueError(f"fanout entries must be positive, got {fanout}")
        n = adj.shape[0]
        for b in batches:
            b = np.asarray(b)
            if b.ndim != 1 or b.size == 0:
                raise ValueError("each batch must be a non-empty 1-D array")
            if b.min() < 0 or b.max() >= n:
                raise ValueError(f"batch vertex out of range [0, {n})")
        return n
