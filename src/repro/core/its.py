"""Inverse transform sampling (ITS) over the rows of a CSR matrix.

Each row of ``P`` is an unnormalized probability distribution over its
stored nonzeros; :func:`its_sample_rows` draws up to ``s`` *distinct*
columns per row, exactly the SAMPLE step of the paper's Algorithm 1:

1. prefix-sum each row's values,
2. draw uniforms and binary-search them into the prefix sums,
3. zero the entries just chosen and repeat, drawing only what each row
   still lacks, until ``s`` distinct columns per row are selected (or the
   row runs out of positive nonzeros).

Everything is vectorized across all rows at once — one global cumulative
sum and one batched ``searchsorted`` per round — which is the bulk-sampling
amortization the paper exploits (many minibatches stacked into ``P`` share
the same kernel launches).

*What a round costs.*  The prefix sum is the only pass over every nonzero
that a round repeats; the rest is state carried from round to round: the
per-row targets are computed once (``np.diff(indptr)`` when every entry is
positive), the live masses are ``P``'s own values in round 1 and one copy
afterwards in which each round zeroes only its fresh picks, and the per-row
counts grow by the fresh picks alone.  The *global* ``cumsum`` over every
row is kept on purpose: it is what decides the bits — each uniform is
scaled into a row's slice of that sum — so the mask and the generator state
afterwards are a pure function of ``P``, ``s`` and the generator.
Restricting later rounds to the rows still short of ``s`` would shorten
the sum and change the last bits of the targets, so it needs a written
per-row contract first; it is not done here.

:func:`gumbel_select_mask` offers an equivalent single-pass alternative
(exponential races / Gumbel top-k), used in tests as a statistical
cross-check and available as an optional sampler backend.

:func:`keep_all_mask` is the degenerate SAMPLE both reduce to once ``s``
reaches the largest row: every positive entry, selected without a draw.
Exact serving asks for it by name (a ``None`` fanout position) instead of
making ITS win a coupon-collector game whose outcome is known.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix
from ..sparse.csr import _masked_indptr

__all__ = [
    "its_sample_rows",
    "its_select_mask",
    "keep_all_mask",
    "gumbel_select_mask",
    "its_flops",
]

_MAX_ROUNDS = 256  # termination backstop; each round makes progress


def its_select_mask(
    p: CSRMatrix,
    s: int,
    rng: np.random.Generator,
    *,
    replace: bool = False,
) -> np.ndarray:
    """ITS selection as a boolean mask over ``p``'s stored nonzeros.

    Draws exactly the same uniforms in the same order as
    :func:`its_sample_rows` (which is this function plus a CSR build), so
    the two are interchangeable under a fixed seed.  The mask form is what
    the executor's EXTRACT handlers consume — extraction reads the
    selected entries straight out of ``p`` without materializing the
    intermediate ``Q^{l-1}`` CSR.

    An empty ``p`` consumes no randomness and returns an empty mask.
    """
    if s <= 0:
        raise ValueError(f"sample count s must be positive, got {s}")
    if np.any(p.data < 0):
        raise ValueError("P must be non-negative to be sampled")
    n_rows = p.shape[0]
    if p.nnz == 0:
        return np.zeros(0, dtype=bool)

    indptr, row_start, row_end = p.indptr, p.indptr[:-1], p.indptr[1:]
    # Target distinct picks per row: min(s, positive nonzeros in the row).
    positive = p.data > 0
    if positive.all():
        pos_per_row = np.diff(indptr)
    else:
        pos_per_row = np.diff(_masked_indptr(indptr, positive))
    target = np.minimum(s, pos_per_row)

    selected = np.zeros(p.nnz, dtype=bool)
    have = np.zeros(n_rows, dtype=np.int64)
    live = p.data  # round 1 reads P itself; a copy before the first write
    fresh = None  # the last round's new picks, still live in ``live``
    cums = np.empty(p.nnz)  # every round's prefix sum, in one buffer
    stamp = None  # scratch: which draw last landed on each entry
    for _ in range(1 if replace else _MAX_ROUNDS):
        need = target - have
        todo = np.flatnonzero(need > 0)
        if todo.size == 0:
            break
        if fresh is not None:
            if live is p.data:
                live = p.data.copy()
            live[fresh] = 0.0
        # Mass of the not-yet-selected entries, cumulated globally; row
        # boundaries are recovered through indptr so one cumsum serves all rows.
        np.cumsum(live, out=cums)
        base = np.where(row_start > 0, cums[row_start - 1], 0.0)
        mass = np.where(row_end > row_start, cums[row_end - 1], 0.0) - base

        counts = need[todo] if not replace else np.full(todo.size, s)
        draw_rows = np.repeat(todo, counts)
        u = rng.random(draw_rows.size)
        targets = base[draw_rows] + u * mass[draw_rows]
        picks = np.searchsorted(cums, targets, side="left")
        # Guard against floating-point landing exactly on a row boundary.
        picks = np.minimum(picks, indptr[draw_rows + 1] - 1)
        picks = np.maximum(picks, indptr[draw_rows])
        if replace:
            selected[picks] = True
            break
        # A draw is fresh when its entry was not selected before this round
        # and it is the draw the stamp table kept for that entry: one per
        # distinct new entry, whichever duplicate wrote last.
        if stamp is None:
            stamp = np.empty(p.nnz, dtype=np.int64)
        draw = np.arange(picks.size)
        stamp[picks] = draw
        new = ~selected[picks]
        new &= stamp[picks] == draw
        fresh = picks[new]
        selected[fresh] = True
        have += np.bincount(draw_rows[new], minlength=n_rows)
    else:
        raise RuntimeError("ITS failed to converge; is P malformed?")

    return selected


def _mask_to_csr(p: CSRMatrix, selected: np.ndarray) -> CSRMatrix:
    """Materialize a selection mask as the binary sampled ``Q^{l-1}``."""
    if selected.size == 0:
        return CSRMatrix.zeros(p.shape)
    # Column order within a row follows the original CSR order (sorted).
    indptr = _masked_indptr(p.indptr, selected)
    return CSRMatrix(
        indptr, p.indices[selected], np.ones(int(indptr[-1])), p.shape
    )


def keep_all_mask(p: CSRMatrix) -> np.ndarray:
    """SAMPLE(P, all): every positive entry of every row, as a mask.

    What :func:`its_select_mask` and :func:`gumbel_select_mask` select at
    any ``s`` at or above the largest row's positive count — the outcome
    is known beforehand, so nothing is drawn and no generator is touched.
    """
    if np.any(p.data < 0):
        raise ValueError("P must be non-negative to be sampled")
    return p.data > 0


def its_sample_rows(
    p: CSRMatrix,
    s: int,
    rng: np.random.Generator,
    *,
    replace: bool = False,
) -> CSRMatrix:
    """SAMPLE(P, s): draw ``min(s, nnz(row))`` distinct columns per row.

    Returns a binary CSR matrix of the same shape as ``p`` with the selected
    columns set to 1.  With ``replace=True`` a single round of draws is made
    (duplicates collapse, so rows may carry fewer than ``s`` ones — the
    with-replacement semantics of e.g. DGL's default neighbor sampler).

    Rows whose values sum to zero (including empty rows) yield no samples.
    """
    return _mask_to_csr(p, its_select_mask(p, s, rng, replace=replace))


def gumbel_select_mask(
    p: CSRMatrix, s: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted sampling without replacement via the Gumbel top-k trick, as
    a boolean mask over ``p``'s nonzeros.

    Draws the same distribution as sequential ITS without replacement, in a
    single vectorized pass: each nonzero gets the key ``log(w) + Gumbel``;
    the ``s`` largest keys per row win.  See :func:`its_select_mask` for the
    mask contract.
    """
    if s <= 0:
        raise ValueError(f"sample count s must be positive, got {s}")
    if np.any(p.data < 0):
        raise ValueError("P must be non-negative to be sampled")
    if p.nnz == 0:
        return np.zeros(0, dtype=bool)
    row_ids = p.row_ids()
    with np.errstate(divide="ignore"):
        keys = np.log(p.data) + rng.gumbel(size=p.nnz)
    keys[p.data == 0] = -np.inf
    # Rank entries within each row by descending key: sort by (row, -key).
    order = np.lexsort((-keys, row_ids))
    ranks = np.empty(p.nnz, dtype=np.int64)
    starts = p.indptr[:-1]
    pos = np.arange(p.nnz, dtype=np.int64)
    ranks[order] = pos - np.repeat(starts, np.diff(p.indptr))
    return (ranks < s) & (p.data > 0)


def its_flops(p: CSRMatrix, s: int | None) -> int:
    """Operation count of ITS on ``p``: prefix sum + s binary searches/row.

    The paper argues (section 2.3) the prefix sum is a negligible cost; this
    estimate feeds the simulated compute model so that claim is measurable.
    A keep-all SAMPLE (``s=None``) searches nothing: one pass over ``p``.
    """
    if s is None:
        return int(p.nnz)
    searches = p.shape[0] * s * max(1, int(np.log2(max(2, p.nnz))))
    return int(p.nnz + searches)
