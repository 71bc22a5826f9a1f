"""Inverse transform sampling (ITS) over the rows of a CSR matrix.

Each row of ``P`` is an unnormalized probability distribution over its
stored nonzeros; :func:`its_sample_rows` draws up to ``s`` *distinct*
columns per row, exactly the SAMPLE step of the paper's Algorithm 1:

1. a row with at most ``s`` positive entries keeps them all, with no draws;
2. prefix-sum every row's values, once — unless every row left to draw
   holds one positive, finite weight (GraphSAGE's NORM of a graph with
   equal edge weights) that such a sum would resolve, where no sum is
   needed;
3. draw each short row's shortfall as uniforms binary-searched into its
   slice of those sums — on even rows, a uniform ``u`` picks the row's
   entry ``floor(u * width)`` directly — and keep the distinct picks not
   selected before; repeat for up to :data:`_REJECT_ROUNDS` rounds, always
   against the round-1 sums;
4. a row still short after that finishes on its own entries: zero the
   entries it holds, prefix-sum what is left, draw what it lacks, repeat
   until ``s`` distinct columns are selected (scaling every row to a
   largest weight of 1 in a round where the sum rounds a row away).

A pick that lands on a stored ``0.0`` — a light row's draw rounded onto
its boundary — is dropped in every step.

Everything is vectorized across all rows at once — one global cumulative
sum, then one batched ``searchsorted`` per round — which is the bulk-sampling
amortization the paper exploits (many minibatches stacked into ``P`` share
the same kernel launches).  The even-row draw is the search's answer
without the search: the ``k``-th entry of an even row holds the mass
``[k, k + 1) / width``, so both paths pick the same entry from the same
uniform, unless rounding in the prefix sums moves a draw across an entry
boundary — rare enough that no pinned digest moved when the path came in.
Rows too light for the sum to resolve (:data:`_RESOLVED`, and subnormal
weights) are where the two part ways, so they keep the prefix path.  Which
path runs is read off ``P``'s values; there is no knob.

*Why the rounds are exact.*  Redrawing against the round-1 sums makes a
row's draws one i.i.d. stream from its weights.  A round of ``need`` draws
adds at most ``need`` new entries, so no round overshoots, and the selected
set is the first ``min(s, positive entries)`` distinct values of that
stream: successive sampling without replacement.  Given the set selected so
far, successive sampling goes on as successive sampling over the remaining
entries, which is what step 4's zeroed weights draw, so a row may switch
paths at any round boundary.  Step 4 exists for the rows rejection serves
badly — one heavy entry beside light ones, where every redraw of the heavy
entry is wasted — and :data:`_MAX_ROUNDS` is its backstop.

*What a round costs.*  Round 1 is the only one that passes over every
stored entry of ``P``: one ``min`` over the values checks the signs, the
positive count per row is ``np.diff(indptr)`` when that minimum is positive
(else a binary search of the row boundaries in the positive entries'
positions), the taken-whole rows are marked in the mask, and either the
prefix sum is taken or the rows are found even.  That check compares the
drawing rows' first and last entries, then each entry with the one before
it in spans that grow eightfold, so an uneven ``P`` is turned away in its
first span; an even one is then summed once for :data:`_RESOLVED`.  It
allocates bools, never a float array of ``P``'s size.  A rejection round
costs what its draws cost: the uniforms, their binary searches (or, on
even rows, one multiply each) and a sort of the picks, which finds repeats
because picks lie in their own rows and so stay grouped by row.  Step 4
gathers the stragglers' entries once and repeats its prefix sum over those
alone.  ``P``'s values are never copied whole or written, so read-only
operands work as they are.

*The contract.*  Per row, the selected set is distributed as successive
sampling without replacement: draw an entry with probability proportional
to its weight, set it aside, renormalize over the rest, repeat until
``min(s, positive entries)`` are chosen — Plackett–Luce, the law Gumbel
top-``s`` also draws.  Entries of weight ``0.0`` are never chosen, and a
row with at most ``s`` positive entries keeps them all.  Rows are
independent given the generator they draw from.  The distribution is the
promise across code versions; the bits (mask and generator state) are
promised per (code version, seed), and a change that moves them re-records
the pins once.  ``tests/test_its.py`` holds the distribution to an exact
subset-probability oracle.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix
from ..sparse.csr import _masked_indptr

__all__ = [
    "its_sample_rows",
    "its_select_mask",
    "its_flops",
]

_MAX_ROUNDS = 256  # termination backstop of step 4; each round makes progress
_REJECT_ROUNDS = 3  # step 3's rounds against the round-1 prefix sums
_FIRST_SPAN = 1024  # entries of P the uniformity check compares first
#: The least weight of an even row, as a share of ``P``'s total, for which
#: the uniform path is taken: one prefix sum over ``P`` resolves such a
#: row's entries to 20-odd bits, so both paths pick the same entry.
#: Lighter rows are rounded away in the sum, where the paths part ways, and
#: keep the prefix path's bits.
_RESOLVED = 2.0**-30
#: The least weight of an even row on the uniform path: below it (the
#: subnormals) the sum's absolute rounding is coarse next to the weights.
_LEAST_NORMAL = np.finfo(np.float64).tiny


def its_select_mask(
    p: CSRMatrix, s: int, rng: np.random.Generator
) -> np.ndarray:
    """ITS selection as a boolean mask over ``p``'s stored nonzeros.

    Draws exactly the same uniforms in the same order as
    :func:`its_sample_rows` (which is this function plus a CSR build), so
    the two are interchangeable under a fixed seed.  The mask form is what
    the executor's EXTRACT handlers consume — extraction reads the
    selected entries straight out of ``p`` without materializing the
    intermediate ``Q^{l-1}`` CSR.

    An empty ``p`` consumes no randomness and returns an empty mask, and
    so does a ``p`` whose every row keeps all its positive entries.
    """
    if s <= 0:
        raise ValueError(f"sample count s must be positive, got {s}")
    if p.nnz == 0:
        return np.zeros(0, dtype=bool)
    data, indptr = p.data, p.indptr
    # One reduction answers both sign questions; a NaN minimum hides any
    # negative entry, so only then is the data compared entry by entry.
    lowest = data.min()
    if lowest < 0 or (np.isnan(lowest) and np.any(data < 0)):
        raise ValueError("P must be non-negative to be sampled")

    lengths = np.diff(indptr)
    if lowest > 0:
        positive, pos_per_row = None, lengths
    else:
        positive = data > 0
        pos_per_row = np.diff(_masked_indptr(indptr, positive))
    # Step 1: a row with at most s positive entries keeps them all.
    whole = pos_per_row <= s
    selected = np.repeat(whole, lengths)
    if positive is not None:
        selected &= positive
    rows = np.flatnonzero(~whole)
    if rows.size == 0:
        return selected

    # Step 2: one prefix sum; each row reads its slice through indptr.  Rows
    # of equal weights need none: a draw is an index into the row.
    lo, hi = indptr[rows], indptr[rows + 1]
    uniform = positive is None and _uniform_rows(data, lo, hi, selected)
    cums = None if uniform else np.cumsum(data)

    # Step 3: redraw each shortfall against the round-1 sums.
    have = np.zeros(rows.size, dtype=np.int64)
    for _ in range(_REJECT_ROUNDS):
        need = s - have
        if not need.any():
            return selected
        picks, owner = _draw(cums, lo, hi, need, rng)
        new = _first_new(picks, selected)
        if positive is not None:  # a pick on a stored zero is rounding
            new &= data[picks] != 0
        selected[picks[new]] = True
        have += np.bincount(owner[new], minlength=rows.size)

    # Step 4: the rows still short finish on their own entries.
    short = np.flatnonzero(have < s)
    if short.size:
        _zeroing_rounds(data, selected, lo[short], hi[short], s - have[short], rng)
    return selected


def _uniform_rows(data, lo, hi, exempt):
    """Whether every row slice ``data[lo[i]:hi[i]]`` holds one finite value,
    none lighter than :data:`_RESOLVED` of ``P``'s total or subnormal.

    ``exempt`` masks the entries of the rows between the slices (rows taken
    whole), whose values do not matter.  The rows' first and last entries
    are compared first, which turns most uneven ``P`` away at once.  Then
    each entry is compared with the one before it, over spans that grow
    eightfold, so an uneven ``P`` stops at its first uneven span and an even
    one costs a few bool-sized passes.
    """
    heads = data[lo]
    if not (heads == data[hi - 1]).all() or not np.isfinite(heads).all():
        return False
    at, end, span = lo[0], hi[-1], _FIRST_SPAN
    while at + 1 < end:
        stop = min(at + span, end)
        # differs[j]: entry ``at + 1 + j`` differs from the one before it.
        differs = data[at + 1 : stop] != data[at : stop - 1]
        np.greater(differs, exempt[at + 1 : stop], out=differs)  # and not exempt
        starts = lo[np.searchsorted(lo, at + 1) : np.searchsorted(lo, stop)]
        differs[starts - (at + 1)] = False  # a row's first entry
        if differs.any():
            return False
        at, span = stop - 1, 8 * span
    least = heads.min()
    return least >= _LEAST_NORMAL and least >= _RESOLVED * data.sum()


def _draw(cums, lo, hi, need, rng):
    """``need[i]`` i.i.d. ITS draws into row ``i``'s slice ``[lo[i], hi[i])``:
    uniforms scaled into the slice's mass and binary-searched in the prefix
    sums ``cums`` — or, with ``cums=None`` (rows of equal weights), scaled
    into the slice's width and truncated to an index.

    Both send ``u`` to the entry ``k`` of an even row with
    ``k <= u * width < k + 1`` (the search up to rounding in ``cums``).
    ``u < 1`` keeps ``u * width`` below ``width`` after rounding, so the
    index needs no clamp.

    A light row behind heavy ones can have its draw rounded onto the row's
    boundary; the clamp then lands on an end entry, which may be a stored
    zero, so callers drop picks of weight ``0.0``.

    Returns the picks sorted and the row of each: a pick lies in its own
    row and the rows' slices ascend, so sorting keeps every row's picks in
    the row's place, grouped, and repeats adjacent.
    """
    owner = np.repeat(np.arange(need.size), need)
    u = rng.random(owner.size)
    if cums is None:
        picks = (u * (hi - lo)[owner]).astype(np.int64)
        picks += lo[owner]
    else:
        base = np.where(lo > 0, cums[lo - 1], 0.0)
        mass = cums[hi - 1] - base
        picks = np.searchsorted(cums, base[owner] + u * mass[owner], side="left")
        # Guard against floating-point landing exactly on a row boundary.
        np.minimum(picks, hi[owner] - 1, out=picks)
        np.maximum(picks, lo[owner], out=picks)
    picks.sort()
    return picks, owner


def _first_new(picks, selected):
    """Which sorted picks are new: the first of each run of repeats, when
    its entry is not selected yet."""
    new = ~selected[picks]
    new[1:] &= picks[1:] != picks[:-1]
    return new


def _zeroing_rounds(data, selected, lo, hi, need, rng):
    """Select ``need[i]`` more entries of the row ``data[lo[i]:hi[i]]`` into
    ``selected``, on the rows' own entries: each round zeroes the selected
    ones, prefix-sums the rest and draws the shortfall.

    A row whose live mass the sum rounds away behind heavier rows could
    never be drawn from; in that round every row is divided by its largest
    live weight.  A row's law is its weights' ratios, so nothing moves but
    the rounding: each row's heaviest entry is then ``1`` and resolved."""
    width = hi - lo
    ptr = np.concatenate(([0], np.cumsum(width)))
    at = np.repeat(lo - ptr[:-1], width) + np.arange(ptr[-1])
    taken = selected[at]
    live = data[at]
    fresh = taken
    for _ in range(_MAX_ROUNDS):
        if not need.any():
            break
        live[fresh] = 0.0
        cums = np.cumsum(live)
        ends = cums[ptr[1:] - 1]
        if np.any((ends == np.r_[0.0, ends[:-1]]) & (need > 0)):
            top = np.maximum.reduceat(live, ptr[:-1])
            top[~(np.isfinite(top) & (top > 0))] = 1.0
            live /= np.repeat(top, width)
            cums = np.cumsum(live)
        picks, owner = _draw(cums, ptr[:-1], ptr[1:], need, rng)
        new = _first_new(picks, taken)
        new &= live[picks] != 0  # a stored zero, reached by rounding
        fresh = picks[new]
        taken[fresh] = True
        need -= np.bincount(owner[new], minlength=need.size)
    else:
        raise RuntimeError("ITS failed to converge; is P malformed?")
    selected[at[taken]] = True


def _mask_to_csr(p: CSRMatrix, selected: np.ndarray) -> CSRMatrix:
    """Materialize a selection mask as the binary sampled ``Q^{l-1}``."""
    if selected.size == 0:
        return CSRMatrix.zeros(p.shape)
    # Column order within a row follows the original CSR order (sorted).
    indptr = _masked_indptr(p.indptr, selected)
    return CSRMatrix(
        indptr, p.indices[selected], np.ones(int(indptr[-1])), p.shape
    )


def its_sample_rows(
    p: CSRMatrix, s: int, rng: np.random.Generator
) -> CSRMatrix:
    """SAMPLE(P, s): draw ``min(s, nnz(row))`` distinct columns per row.

    Returns a binary CSR matrix of the same shape as ``p`` with the selected
    columns set to 1.  Rows whose values sum to zero (including empty rows)
    yield no samples.
    """
    return _mask_to_csr(p, its_select_mask(p, s, rng))


def its_flops(p: CSRMatrix, s: int) -> int:
    """Operation count of ITS on ``p``: prefix sum + s binary searches/row.

    The paper argues (section 2.3) the prefix sum is a negligible cost; this
    estimate feeds the simulated compute model so that claim is measurable.
    It bills the prefix-sum path on every ``P``: on even rows the host
    takes no sum and searches nothing (:func:`its_select_mask`), a
    deviation the simulated clock does not model.
    """
    searches = p.shape[0] * s * max(1, int(np.log2(max(2, p.nnz))))
    return int(p.nnz + searches)
