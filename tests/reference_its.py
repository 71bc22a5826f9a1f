"""Oracles for the SAMPLE path's rewritten kernels: the retired bodies.

* ``its_select_mask`` — the ITS body that rebuilt its state every round:
  per-entry row ids, a ``bincount`` of the positive entries, ``live`` rebuilt
  by ``np.where`` and the per-row counts re-counted over the whole mask.  Its
  three sign passes are the oracle of :func:`repro.core.its.its_select_mask`'s
  one ``min`` (``tests/test_sparse_substrate.py``).
* ``zeroing_select_mask`` — the body that replaced it and carried that state
  from round to round instead: every round zeroes the entries just picked
  and re-sums *every* stored entry of ``P`` into one global prefix sum.
  :func:`repro.core.its.its_select_mask` now sums once and rejects repeats,
  so its bits differ by design; it keeps the selected counts and — with
  the rejection rounds switched off on a ``P`` whose every row draws —
  this body's mask and generator state bit for bit, which is what holds
  its zeroing path.
  One line is not the retired body's: a pick on a stored ``0.0`` (a light
  row's draw that the global sum rounds onto the row's boundary, clamped
  onto a leading zero) is dropped, as the kernel drops it; the retired
  body selected it, against SAMPLE's contract.
* ``prefix_select_mask`` — the body that replaced that one: one prefix
  sum of ``P``, rejection rounds against it, then the zeroing path for the
  rows still short.  It is still :func:`repro.core.its.its_select_mask`'s
  path for every ``P`` whose drawing rows are not each of one value; on
  rows of equal weights the kernel draws an index instead of searching
  the sums, and this body is the byte-for-byte oracle of that path
  (``tests/test_its.py``).
* ``gumbel_select_mask`` — a second implementation of SAMPLE's
  distribution, in one pass: Gumbel top-``s`` (exponential races).  It
  shares no step with ITS, so ``tests/test_its.py`` holds both to the same
  exact subset-probability oracle.
* ``ranges`` — the retired ``repro.sparse.csr._ranges``
  (``reference_sparse.ranges``) in its two-``repeat`` form.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import CSRMatrix
from repro.sparse.csr import _masked_indptr

__all__ = [
    "its_select_mask",
    "zeroing_select_mask",
    "prefix_select_mask",
    "gumbel_select_mask",
    "ranges",
]

_MAX_ROUNDS = 256
_REJECT_ROUNDS = 3


def its_select_mask(
    p: CSRMatrix,
    s: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The retired ITS selection mask, verbatim."""
    if s <= 0:
        raise ValueError(f"sample count s must be positive, got {s}")
    if np.any(p.data < 0):
        raise ValueError("P must be non-negative to be sampled")
    n_rows = p.shape[0]
    if p.nnz == 0:
        return np.zeros(0, dtype=bool)

    row_ids = p.row_ids()
    selected = np.zeros(p.nnz, dtype=bool)
    positive = p.data > 0
    pos_per_row = np.bincount(row_ids[positive], minlength=n_rows)
    target = np.minimum(s, pos_per_row)

    have = np.zeros(n_rows, dtype=np.int64)
    for _ in range(_MAX_ROUNDS):
        need = target - have
        todo = np.flatnonzero(need > 0)
        if todo.size == 0:
            break
        live = np.where(selected, 0.0, p.data)
        cums = np.cumsum(live)
        row_end = p.indptr[1:]
        row_start = p.indptr[:-1]
        base = np.where(row_start > 0, cums[row_start - 1], 0.0)
        mass = np.where(row_end > row_start, cums[row_end - 1], 0.0) - base

        draw_rows = np.repeat(todo, need[todo])
        u = rng.random(draw_rows.size)
        targets = base[draw_rows] + u * mass[draw_rows]
        picks = np.searchsorted(cums, targets, side="left")
        picks = np.minimum(picks, p.indptr[draw_rows + 1] - 1)
        picks = np.maximum(picks, p.indptr[draw_rows])
        selected[picks] = True
        have = np.bincount(row_ids[selected], minlength=n_rows)
    else:
        raise RuntimeError("ITS failed to converge; is P malformed?")

    return selected


def zeroing_select_mask(
    p: CSRMatrix,
    s: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The retired ITS selection mask: every round re-sums every entry."""
    if s <= 0:
        raise ValueError(f"sample count s must be positive, got {s}")
    n_rows = p.shape[0]
    if p.nnz == 0:
        return np.zeros(0, dtype=bool)
    # One reduction answers both sign questions; a NaN minimum hides any
    # negative entry, so only then is the data compared entry by entry.
    lowest = p.data.min()
    if lowest < 0 or (np.isnan(lowest) and np.any(p.data < 0)):
        raise ValueError("P must be non-negative to be sampled")

    indptr, row_start, row_end = p.indptr, p.indptr[:-1], p.indptr[1:]
    # Target distinct picks per row: min(s, positive nonzeros in the row).
    if lowest > 0:
        pos_per_row = np.diff(indptr)
    else:
        pos_per_row = np.diff(_masked_indptr(indptr, p.data > 0))
    target = np.minimum(s, pos_per_row)

    selected = np.zeros(p.nnz, dtype=bool)
    have = np.zeros(n_rows, dtype=np.int64)
    live = p.data  # round 1 reads P itself; a copy before the first write
    fresh = None  # the last round's new picks, still live in ``live``
    cums = np.empty(p.nnz)  # every round's prefix sum, in one buffer
    stamp = None  # scratch: which draw last landed on each entry
    for _ in range(_MAX_ROUNDS):
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

        draw_rows = np.repeat(todo, need[todo])
        u = rng.random(draw_rows.size)
        targets = base[draw_rows] + u * mass[draw_rows]
        picks = np.searchsorted(cums, targets, side="left")
        # Guard against floating-point landing exactly on a row boundary.
        picks = np.minimum(picks, indptr[draw_rows + 1] - 1)
        picks = np.maximum(picks, indptr[draw_rows])
        # A pick on a stored zero (a light row's draw rounded onto its
        # boundary, then clamped) is dropped: SAMPLE never selects one.
        kept = p.data[picks] != 0
        # A draw is fresh when its entry was not selected before this round
        # and it is the draw the stamp table kept for that entry: one per
        # distinct new entry, whichever duplicate wrote last.
        if stamp is None:
            stamp = np.empty(p.nnz, dtype=np.int64)
        draw = np.arange(picks.size)
        stamp[picks] = draw
        new = ~selected[picks]
        new &= stamp[picks] == draw
        new &= kept
        fresh = picks[new]
        selected[fresh] = True
        have += np.bincount(draw_rows[new], minlength=n_rows)
    else:
        raise RuntimeError("ITS failed to converge; is P malformed?")

    return selected


def prefix_select_mask(
    p: CSRMatrix,
    s: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The retired one-prefix-sum ITS selection mask, verbatim."""
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

    # Step 2: one prefix sum; each row reads its slice through indptr.
    cums = np.cumsum(data)
    lo, hi = indptr[rows], indptr[rows + 1]

    # Step 3: redraw each shortfall against the round-1 sums.
    have = np.zeros(rows.size, dtype=np.int64)
    for _ in range(_REJECT_ROUNDS):
        need = s - have
        if not need.any():
            return selected
        picks, owner = _draw(cums, lo, hi, need, rng)
        new = _first_new(picks, selected)
        selected[picks[new]] = True
        have += np.bincount(owner[new], minlength=rows.size)

    # Step 4: the rows still short finish on their own entries.
    short = np.flatnonzero(have < s)
    if short.size:
        _zeroing_rounds(data, selected, lo[short], hi[short], s - have[short], rng)
    return selected


def _draw(cums, lo, hi, need, rng):
    """``need[i]`` i.i.d. ITS draws into row ``i``'s slice ``[lo[i], hi[i])``
    of the prefix sums ``cums``: uniforms scaled into the slice's mass and
    binary-searched.

    Returns the picks sorted and the row of each: a pick is clamped into its
    own row and the rows' slices ascend, so sorting keeps every row's picks
    in the row's place, grouped, and repeats adjacent.
    """
    base = np.where(lo > 0, cums[lo - 1], 0.0)
    mass = cums[hi - 1] - base
    owner = np.repeat(np.arange(need.size), need)
    u = rng.random(owner.size)
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
    ones, prefix-sums the rest and draws the shortfall."""
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
        picks, owner = _draw(np.cumsum(live), ptr[:-1], ptr[1:], need, rng)
        new = _first_new(picks, taken)
        fresh = picks[new]
        taken[fresh] = True
        need -= np.bincount(owner[new], minlength=need.size)
    else:
        raise RuntimeError("ITS failed to converge; is P malformed?")
    selected[at[taken]] = True


def gumbel_select_mask(
    p: CSRMatrix, s: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted sampling without replacement via the Gumbel top-k trick, as
    a boolean mask over ``p``'s nonzeros.

    Each nonzero gets the key ``log(w) + Gumbel``; the ``s`` largest keys
    per row win — the same law as successive sampling without replacement
    (Plackett–Luce), drawn in a single vectorized pass.
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


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)``: the two-``repeat`` form."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(starts, counts)
    offsets = np.arange(total, dtype=np.int64)
    offsets -= np.repeat(np.cumsum(counts) - counts, counts)
    return out + offsets
