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
semantics are defined exactly once and distributed support is a derived
capability ("the sampler has a plan").
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

    def __init__(self) -> None:
        # fanout tuple -> emitted plan; see emitted_plan().
        self._plans: dict[tuple, SamplingPlan | None] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # An in-place NORM is written against one ``norm``: a subclass that
        # overrides ``norm`` alone must not run the parent's in-place twin.
        if "norm" in vars(cls) and "norm_inplace" not in vars(cls):
            cls.norm_inplace = MatrixSampler.norm_inplace

    # ------------------------------------------------------------------ #
    # Algorithm-1 pieces
    # ------------------------------------------------------------------ #
    @abstractmethod
    def norm(self, p: CSRMatrix) -> CSRMatrix:
        """NORM(P): turn the raw ``Q A`` product into per-row distributions."""

    def norm_inplace(self, p: CSRMatrix) -> CSRMatrix:
        """NORM(P) overwriting ``p`` — what every executor's NORM step runs.

        ``p`` is always the executor's own: a fresh ``Q A`` product, a
        fresh stack of the importance row, or an earlier in-place NORM's
        result.  Must produce bit-identical values to :meth:`norm`; the base
        delegates to it (copying), so overriding is a pure optimization
        samplers opt into — and a subclass that overrides :meth:`norm`
        without overriding this method gets the copying base back.
        """
        return self.norm(p)

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
    def plan(self, fanout: Sequence[int]) -> SamplingPlan | None:
        """Emit this sampler's declarative program for a concrete fanout.

        Returning a :class:`~repro.core.plan.SamplingPlan` is what makes a
        sampler executable — locally through :meth:`sample_bulk`, and
        under *every* distributed driver (replicated runs the plan per
        rank; partitioned runs it per process row of the 1.5D grid, with
        distributed products).  The base returns ``None``: no matrix
        program, so only a hand-written ``sample_bulk`` override could run
        it.
        """
        return None

    def emitted_plan(self, fanout: Sequence[int]) -> SamplingPlan | None:
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

        The default implementation runs :meth:`emitted_plan` (the emitted
        :meth:`plan`, memoized per fanout) as is on the single-device
        :class:`~repro.core.plan.LocalExecutor`, whose NORM normalizes the
        probability product in place (:meth:`norm_inplace`); samplers
        without a plan must override this method instead.
        """
        self._validate(adj, batches, fanout)
        program = self.emitted_plan(fanout)
        if program is None:
            raise TypeError(
                f"{type(self).__name__} emits no sampling plan; implement "
                f"plan() (preferred — distribution comes for free) or "
                f"override sample_bulk()"
            )
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
