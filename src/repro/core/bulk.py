"""Bulk-minibatch bookkeeping: chunking an epoch into bulks of ``k`` batches
and distributing batches over ranks.

The pipeline samples ``k`` minibatches at a time (section 6.1).  When ``k``
is smaller than the epoch's batch count, sampling repeats per bulk; within
one bulk each of the ``p`` ranks owns ``k/p`` batches (Graph Replicated) or
each *process row* owns a block of stacked rows (Graph Partitioned).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = [
    "chunk_bulks",
    "assign_round_robin",
    "reassemble_round_robin",
    "batch_rng",
]


def chunk_bulks(batches: Sequence[T], k: int) -> list[list[T]]:
    """Split an epoch's batches into bulks of (at most) ``k``."""
    if k <= 0:
        raise ValueError(f"bulk size k must be positive, got {k}")
    return [list(batches[i : i + k]) for i in range(0, len(batches), k)]


def assign_round_robin(n_items: int, n_owners: int) -> list[list[int]]:
    """Item indices owned by each of ``n_owners``, round-robin.

    Round-robin (rather than contiguous blocks) keeps ownership balanced
    when ``n_items`` is not a multiple of ``n_owners``.
    """
    if n_owners <= 0:
        raise ValueError("need at least one owner")
    return [list(range(r, n_items, n_owners)) for r in range(n_owners)]


def reassemble_round_robin(
    per_owner: Sequence[Sequence[T]], n_items: int
) -> list[T]:
    """Invert :func:`assign_round_robin`: rebuild the input-order list from
    each owner's items (owner ``r``'s ``x``-th item is input item
    ``r + x * n_owners``).

    Every distributed driver hands batches out round-robin and must return
    samples in the caller's batch order; this is the one shared inverse.
    """
    n_owners = len(per_owner)
    if n_owners <= 0:
        raise ValueError("need at least one owner")
    if sum(len(items) for items in per_owner) != n_items:
        raise ValueError(
            f"owner lists hold {sum(len(i) for i in per_owner)} items, "
            f"expected {n_items}"
        )
    out: list[T | None] = [None] * n_items
    for r, items in enumerate(per_owner):
        for x, item in enumerate(items):
            idx = r + x * n_owners
            if idx >= n_items:
                raise ValueError(
                    f"owner {r} holds {len(items)} items; round-robin over "
                    f"{n_owners} owners allows at most "
                    f"{len(assign_round_robin(n_items, n_owners)[r])} "
                    f"for {n_items} items"
                )
            out[idx] = item
    return out  # type: ignore[return-value]


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The RNG stream of one minibatch, keyed by its *global* batch index.

    Seeding by global batch index (not by rank or process row) makes
    distributed sampling output invariant to the cluster shape: batch ``i``
    draws the same samples whether 8 ranks own 4 batches each or 1 rank
    owns all 32 — and whether the grid is replicated or 1.5D partitioned —
    because its draws come from its own stream and its frontier evolution
    is batch-local.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, batch_index]))
