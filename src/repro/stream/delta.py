"""Delta-CSR: a mutable overlay absorbing edge churn over a frozen CSR.

Everything upstream of this module — the samplers, the plan executors, the
feature and embedding caches — consumes a *frozen* :class:`~repro.sparse.CSRMatrix`.
Production graphs mutate under traffic, so :class:`DeltaCSR` gives them a
frozen view of a moving target.  Its state is array-native: the ``base``
CSR, the current view (always up to date), a *delta log* of parallel sorted
arrays (flat key ``row * n + col``, value, deleted flag) and the sorted rows
dirtied since the last compaction.  A view is an *anchor* CSR (the base, or
a fold of an earlier view) plus a *patch*: a small CSR holding the current
contents of every row changed since the anchor was set.
:meth:`DeltaCSR.apply` re-splices only the rows one batch touches and
gathers them beside the previous view's patch — it never re-derives the
view from base + log and never copies the anchor — and once the log
crosses ``compaction_threshold`` of the base size the overlay *compacts*:
the view becomes the new base.

Three invariants make the overlay safe to put under the sampling stack:

* **Canonical views.**  Every :meth:`DeltaCSR.view` satisfies the full CSR
  contract (sorted, duplicate-free columns — ``CSRMatrix.check``), so a
  view is indistinguishable from a from-scratch build of the same edge set
  and sampling from it is bit-identical.  ``indptr`` is always there, and
  row readers (``extract_rows``: exact serving, SpGEMM's row gather, the
  update path's own lookups) read each row from whichever of anchor and
  patch holds it.  The canonical ``indices`` and ``data`` are built on
  first access, each on its own and at most once per view, inside a
  ``materialize`` span: for the readers of the whole matrix (LADIES'
  indicator PROB, ``to_coo``, ``check``, compaction).  A pattern-only
  reader builds ``indices`` alone.
* **Frozen views.**  A returned view is never written again — its
  ``indptr``, anchor and patch are fresh or shared with earlier views, and
  a batch's changes land in the *next* view's patch — so replicas and
  checkers may keep references to old views.
* **Compaction parity.**  The view a :meth:`DeltaCSR.compact` promotes to
  the new base equals, array for array, the matrix re-derived through the
  independent :meth:`CSRMatrix.from_coo` path (the base COO filtered
  through the *log*, never read from the view).  Compaction itself only
  re-checks the CSR contract; the rebuild-and-compare runs after every
  rule of the state machine in ``tests/test_delta_differential.py``.

Ops apply *sequentially*, duplicates inside one batch included: a second
identical insert is a no-op, inserts of one edge with different values all
apply and the last wins, a second delete of one edge misses.  The log holds
the *final* outcome per touched edge (an outcome equal to the base drops
out), so it is bounded by the distinct touched edges, not the operations.

Cost: O(batch + touched rows + patch + n + pending) per batch, however many
batches came before — the patch is re-gathered, the anchor never copied,
and the fold rule (:meth:`DeltaCSR._next_view`) keeps the patch at most
half the view, so no batch copies more than a splice of the whole arrays
would.  O(nnz) per fold, per compaction, and once per view a whole-matrix
reader touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scipy.sparse import _sparsetools

from ..obs.trace import maybe_span
from ..sparse import CSRMatrix

__all__ = ["EdgeBatch", "UpdateResult", "DeltaCSR"]


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of edge mutations arriving at simulated time ``at``.

    ``op`` is ``"insert"`` or ``"delete"``; ``src``/``dst`` are equal-length
    vertex arrays (edge ``src[i] -> dst[i]``), ``vals`` optional insert
    weights (default 1.0, ignored for deletes).
    """

    src: np.ndarray
    dst: np.ndarray
    op: str = "insert"
    vals: np.ndarray | None = None
    at: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("insert", "delete"):
            raise ValueError(f"unknown edge op {self.op!r}; use insert or delete")
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src and dst must be equal-length 1-D arrays")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.vals is not None:
            vals = np.asarray(self.vals, dtype=np.float64)
            if vals.shape != src.shape:
                raise ValueError("vals must align with src/dst")
            object.__setattr__(self, "vals", vals)
        if self.at < 0:
            raise ValueError(f"arrival time must be non-negative, got {self.at}")

    @property
    def n_edges(self) -> int:
        return int(self.src.size)


@dataclass
class UpdateResult:
    """What applying one :class:`EdgeBatch` did to the overlay."""

    dirty_rows: np.ndarray  # rows whose adjacency actually changed
    applied: int = 0  # edge ops that changed the edge set
    skipped: int = 0  # no-ops (duplicate inserts / missing deletes)
    compacted: bool = False
    pending: int = 0  # delta-log size after the batch
    sim_cost: dict[str, float] = field(default_factory=dict)


def _unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int64 array, by a sort and a neighbour compare.

    numpy 2's ``np.unique`` hashes, which costs about 10x as much at 1e3 to
    1e4 int64s; the result is the same sorted, duplicate-free array.
    """
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _isin_sorted(x: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Whether each ``x[i]`` is in the sorted array ``pool``: one binary
    search per element (``np.isin`` of a sorted pool, without its sort)."""
    at = np.searchsorted(pool, x)
    hit = at < pool.size
    hit[hit] = pool[at[hit]] == x[hit]
    return hit


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d`` of two sorted, duplicate-free int64 arrays, by a
    merge: ``b``'s values missing from ``a`` go in at their search
    positions, one pass over ``a`` and no sort."""
    new = b[~_isin_sorted(b, a)]
    return np.insert(a, np.searchsorted(a, new), new)


def _locate(
    adj: CSRMatrix, rows: np.ndarray, cols: np.ndarray
) -> tuple[CSRMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Where each edge ``rows[i] -> cols[i]`` (``rows`` ascending) sits in
    ``adj``'s rows that hold them, and whether it is present.

    Reads the touched rows only: gathered by ``extract_rows`` into ``sub``
    (row ``j`` is row ``touched[j]`` of ``adj``), whose flat keys — sorted,
    because rows and in-row columns are — are searched once.  Returns
    ``sub``, ``touched``, each edge's position in ``sub.indices`` (its
    insertion point when absent) and whether it is there.
    """
    first = np.empty(rows.size, dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    touched = rows[first]
    slot = np.cumsum(first) - 1
    sub = adj.extract_rows(touched)
    width = adj.shape[1]
    at = np.searchsorted(sub.row_ids() * width + sub.indices, slot * width + cols)
    found = at < sub.indptr[slot + 1]
    found[found] = sub.indices[at[found]] == cols[found]
    return sub, touched, at, found


def _gathered(*parts: tuple[CSRMatrix, np.ndarray]) -> CSRMatrix:
    """The rows ``rows`` of each ``(matrix, rows)`` part, one part after
    the other, as one CSR: one compiled row gather per part (scipy's
    ``csr_row_index``, as in ``CSRMatrix.extract_rows``, without its range
    check) into one pair of buffers, so every entry is copied once."""
    counts = np.concatenate([m.indptr[r + 1] - m.indptr[r] for m, r in parts])
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    data = np.empty(indices.size, dtype=np.float64)
    start = 0
    for m, rows in parts:
        part = slice(indptr[start], indptr[start + rows.size])
        _sparsetools.csr_row_index(
            rows.size, rows, m.indptr, m.indices, m.data, indices[part], data[part]
        )
        start += rows.size
    return CSRMatrix(indptr, indices, data, (counts.size, parts[0][0].shape[1]))


class _PatchedCSR(CSRMatrix):
    """A canonical CSR held as an ``anchor`` CSR plus a ``patch`` of rows.

    ``patch`` row ``j`` is row ``patch_rows[j]`` of this matrix, and
    ``slot`` maps every row to its patch row, or to -1 where the anchor
    holds it.  ``indptr`` is the canonical row pointer; ``indices`` and
    ``data`` are built on first access (see the module docs).  Once both
    are, the view reads them alone and lets go of anchor and patch, so an
    old anchor lives only as long as a view that still needs it.  Nothing
    else changes after construction.
    """

    __slots__ = ("anchor", "patch", "patch_rows", "slot", "_built")

    def __init__(
        self,
        indptr: np.ndarray,
        anchor: CSRMatrix,
        patch: CSRMatrix,
        patch_rows: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.shape = anchor.shape
        self.anchor, self.patch, self.patch_rows = anchor, patch, patch_rows
        self.slot = np.full(anchor.shape[0], -1, dtype=np.int64)
        self.slot[patch_rows] = np.arange(patch_rows.size)
        self._built: dict[str, np.ndarray] = {}

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def built(self) -> bool:
        """Whether both canonical arrays exist (and anchor and patch are gone)."""
        return len(self._built) == 2

    @property
    def indices(self) -> np.ndarray:
        return self._canonical("indices")

    @property
    def data(self) -> np.ndarray:
        return self._canonical("data")

    def _canonical(self, name: str) -> np.ndarray:
        """The canonical ``indices`` or ``data``, built on the first call:
        the anchor's runs between patched rows and the patched rows, one
        slice each in row order, joined by one concatenation."""
        out = self._built.get(name)
        if out is None:
            with maybe_span(
                "materialize", cat="stream",
                args={"array": name, "patch_nnz": self.patch.nnz},
            ):
                a, p = getattr(self.anchor, name), getattr(self.patch, name)
                order = np.argsort(self.patch_rows)
                rows = self.patch_rows[order]
                a_ptr, p_ptr = self.anchor.indptr, self.patch.indptr
                pieces, lo = [], 0
                for a_hi, p_lo, p_hi, a_next in zip(
                    a_ptr[rows].tolist(), p_ptr[order].tolist(),
                    p_ptr[order + 1].tolist(), a_ptr[rows + 1].tolist(),
                ):
                    pieces += (a[lo:a_hi], p[p_lo:p_hi])
                    lo = a_next
                pieces.append(a[lo:])
                out = self._built[name] = np.concatenate(pieces)
            if self.built:
                self.anchor = self.patch = self.patch_rows = self.slot = None
        return out

    def extract_rows(self, rows) -> CSRMatrix:
        """Gather ``rows`` as :meth:`CSRMatrix.extract_rows` does, each
        from whichever of anchor and patch holds it (or from the canonical
        arrays, once both are built)."""
        if self.built:
            return super().extract_rows(rows)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise IndexError("row index out of range")
        slot = self.slot[rows]
        patched = slot >= 0
        if not patched.any():
            return _gathered((self.anchor, rows))
        # Each source's rows into one CSR, then that in the asked order.
        both = _gathered((self.anchor, rows[~patched]), (self.patch, slot[patched]))
        before = np.cumsum(patched)  # patched rows up to and including each
        order = np.where(
            patched, rows.size - before[-1] + before - 1, np.arange(rows.size) - before
        )
        return _gathered((both, order))


def _plain(adj: CSRMatrix) -> CSRMatrix:
    """``adj`` itself, or a view's canonical arrays as a plain CSR (built
    if they are not yet): how a base and an anchor are always held, so a
    view never nests another view's patch."""
    if isinstance(adj, _PatchedCSR):
        return CSRMatrix(adj.indptr, adj.indices, adj.data, adj.shape)
    return adj


class DeltaCSR:
    """A frozen-CSR view kept current over a sorted-array delta log.

    Holds ``base`` (the CSR as of the last compaction), the current view,
    the log (the final outcome of every edge that differs from ``base``)
    and the rows dirtied since the last compaction; see the module docs.
    A ``base`` that is itself a view of another overlay is taken as its
    canonical arrays (built if need be), so anchors are always plain CSRs.

    ``compaction_threshold`` is the delta-log size (as a fraction of the
    base nnz, minimum one edge) at which :meth:`maybe_compact` folds the
    log into a fresh base; reaching the threshold *exactly* compacts.
    """

    def __init__(
        self, base: CSRMatrix, *, compaction_threshold: float = 0.25
    ) -> None:
        if base.shape[0] != base.shape[1]:
            raise ValueError(f"adjacency must be square, got {base.shape}")
        if compaction_threshold <= 0:
            raise ValueError("compaction_threshold must be positive")
        self.base = self._view = _plain(base)
        self.compaction_threshold = float(compaction_threshold)
        self.compactions = 0
        self._clear_log()

    def _clear_log(self) -> None:
        self._log_keys = np.empty(0, dtype=np.int64)  # row * n + col, sorted
        self._log_vals = np.empty(0, dtype=np.float64)
        self._log_deleted = np.empty(0, dtype=np.bool_)
        self._dirty = np.empty(0, dtype=np.int64)  # rows dirtied since

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def pending(self) -> int:
        """Distinct edges with an outstanding (un-compacted) mutation."""
        return int(self._log_keys.size)

    @property
    def compaction_limit(self) -> int:
        """Delta-log size that triggers :meth:`maybe_compact`."""
        return max(1, int(np.ceil(self.compaction_threshold * self.base.nnz)))

    @property
    def dirty_row_ids(self) -> np.ndarray:
        """Sorted rows dirtied since the last compaction (cumulative)."""
        return self._dirty

    def view(self) -> CSRMatrix:
        """The current graph as a canonical frozen CSR: the same object
        until a batch changes the graph (``base`` itself while none has,
        and right after a compaction), never written again.  After a batch
        it is an anchor plus a patch whose ``indices`` and ``data`` are
        built when first read (see the module docs)."""
        return self._view

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply(self, batch: EdgeBatch, *, strict: bool = False) -> UpdateResult:
        """Absorb one edge batch: a new frozen view and an updated log.

        Inserting an edge that already exists with the same value, or
        deleting an edge that does not exist, is a *no-op*: it neither
        dirties the row nor grows the log.  With ``strict=True`` a missing
        delete raises instead (an actionable error naming the first such
        edge in batch order) and leaves the overlay untouched.
        """
        n = self.n
        if batch.n_edges and (
            batch.src.min() < 0 or batch.src.max() >= n
            or batch.dst.min() < 0 or batch.dst.max() >= n
        ):
            raise ValueError(
                f"edge endpoint out of range [0, {n}); streaming updates "
                f"mutate edges only — the vertex set is fixed at build time"
            )
        inserting = batch.op == "insert"
        # Stable sort by edge: the ops on one edge become neighbours, still
        # in batch order, so what an edge holds at an op's turn is the
        # outcome of the element before it.
        keys = batch.src * n + batch.dst
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.diff(keys, prepend=-1) != 0  # first op on its edge
        sub, touched, at, present = _locate(
            self._view, batch.src[order], batch.dst[order]
        )
        if inserting:
            vals = np.ones(order.size) if batch.vals is None else batch.vals[order]
            # A no-op iff the edge already holds the value: the previous
            # insert's or, for a first op, the view's (NaN — equal to
            # nothing — when the edge is absent).
            held = np.roll(vals, 1)
            held[first] = np.nan
            head = first & present
            held[head] = sub.data[at[head]]
            applied = vals != held
            # An edge's outcome is its last applied op.
            hits = np.flatnonzero(applied)
            changed = hits[np.diff(np.cumsum(first)[hits], append=-1) != 0]
        else:
            vals = np.zeros(order.size)  # the log's filler for a delete
            applied = first & present  # a repeated delete finds it gone
            if strict and not applied.all():
                miss = order[~applied].min()
                raise ValueError(
                    f"cannot delete edge {batch.src[miss]} -> "
                    f"{batch.dst[miss]}: not present in the current graph "
                    f"(pass strict=False to skip missing deletes)"
                )
            changed = np.flatnonzero(applied)
        dirty = _unique(keys[changed] // n)
        if changed.size:
            self._advance(
                inserting, keys[changed], vals[changed], at[changed],
                present[changed], sub, touched, dirty,
            )
            self._dirty = _union(self._dirty, dirty)
        n_applied = int(np.count_nonzero(applied))
        return UpdateResult(
            dirty_rows=dirty,
            applied=n_applied,
            skipped=batch.n_edges - n_applied,
            pending=self.pending,
        )

    def _advance(
        self, inserting: bool, keys: np.ndarray, vals: np.ndarray,
        at: np.ndarray, present: np.ndarray, sub: CSRMatrix,
        touched: np.ndarray, dirty: np.ndarray,
    ) -> None:
        """Move view and log past one batch's changed edges: distinct
        sorted flat ``keys``, found at ``at`` in ``sub`` (the ``touched``
        rows gathered from the current view) if ``present``; ``vals`` are
        the inserted values and ``dirty`` the rows the edges change."""
        base, n = self.base, self.n
        rows, cols = np.divmod(keys, n)
        base_sub, _, base_at, in_base = _locate(base, rows, cols)
        if inserting:
            # An insert back to the base value drops out of the log, and
            # the view shows the base's own bits for it (-0.0 == 0.0).
            restores = in_base.copy()
            restores[in_base] = base_sub.data[base_at[in_base]] == vals[in_base]
            vals[restores] = base_sub.data[base_at[restores]]
            add = ~present
            indices = np.insert(sub.indices, at[add], cols[add])
            data = np.insert(sub.data, at[add], vals[add])
            # An overwritten slot sits right of its old position by the
            # number of inserts at or before it.
            over = at[present]
            data[over + np.searchsorted(at[add], over, side="right")] = vals[present]
            growth = np.bincount(rows[add], minlength=n)
        else:
            restores = ~in_base  # deleting an edge the base never had
            indices, data = np.delete(sub.indices, at), np.delete(sub.data, at)
            growth = -np.bincount(rows, minlength=n)
        # Entries gained up to each row; only touched rows grow, so at a
        # touched row it is also what ``sub``'s rows before it gained.
        gained = np.cumsum(growth)
        indptr = self._view.indptr.copy()
        indptr[1:] += gained
        fresh_ptr = sub.indptr.copy()
        fresh_ptr[1:] += gained[touched]
        fresh = CSRMatrix(fresh_ptr, indices, data, sub.shape)
        self._view = self._next_view(
            indptr, dirty, fresh, np.searchsorted(touched, dirty)
        )
        # One final outcome per touched edge: this batch's supersede the
        # logged ones, and those that restore the base are not logged.
        lo = np.searchsorted(self._log_keys, keys)
        stale = lo[np.searchsorted(self._log_keys, keys, side="right") > lo]
        log_keys = np.delete(self._log_keys, stale)
        keep = ~restores
        where = np.searchsorted(log_keys, keys[keep])
        self._log_keys = np.insert(log_keys, where, keys[keep])
        self._log_vals = np.insert(np.delete(self._log_vals, stale), where, vals[keep])
        deleted = np.delete(self._log_deleted, stale)
        self._log_deleted = np.insert(deleted, where, not inserting)

    def _next_view(
        self, indptr: np.ndarray, rows: np.ndarray, fresh: CSRMatrix,
        fresh_rows: np.ndarray,
    ) -> _PatchedCSR:
        """The view after a batch: canonical ``indptr``; the changed
        ``rows`` (sorted) hold rows ``fresh_rows`` of ``fresh``, every other
        row what the current view holds.

        The patch is re-gathered from the current one (minus the rows this
        batch rewrote) and ``fresh``, 16 B per entry — a column and a
        value.  The cheapest rebuild of the whole view, a splice of
        ``indices`` alone, costs 8 B per entry of the view.  So while the
        new patch holds at most half the view's entries the re-gather
        copies no more than that; past it the current view is *folded*:
        its canonical arrays (built once, if no reader has built them)
        become the anchor, and the patch restarts from this batch's rows.
        No batch then copies more than a splice of both whole arrays, and
        anchor plus patch hold at most 1.5x the view's entries.  A fold
        touches neither ``base`` nor the log: only what the views share.
        """
        view = self._view
        if isinstance(view, _PatchedCSR) and not view.built:
            keep = np.ones(view.patch_rows.size, dtype=bool)
            rewritten = view.slot[rows]
            keep[rewritten[rewritten >= 0]] = False
            kept = np.flatnonzero(keep)
            patched = np.concatenate((view.patch_rows[kept], rows))
            if 2 * (indptr[patched + 1] - indptr[patched]).sum() <= indptr[-1]:
                patch = _gathered((view.patch, kept), (fresh, fresh_rows))
                return _PatchedCSR(indptr, view.anchor, patch, patched)
        # A plain or built view anchors the next as it is; a fold builds it.
        return _PatchedCSR(indptr, _plain(view), _gathered((fresh, fresh_rows)), rows)

    def insert_edges(
        self, src, dst, vals: np.ndarray | None = None
    ) -> UpdateResult:
        """Convenience wrapper: apply one insert batch."""
        return self.apply(EdgeBatch(np.asarray(src), np.asarray(dst), "insert", vals))

    def delete_edges(self, src, dst, *, strict: bool = False) -> UpdateResult:
        """Convenience wrapper: apply one delete batch."""
        return self.apply(
            EdgeBatch(np.asarray(src), np.asarray(dst), "delete"), strict=strict
        )

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> CSRMatrix:
        """Promote the view to the new frozen base and empty the log."""
        view = self.view()
        view.check()
        self.base = self._view = _plain(view)
        self._clear_log()
        self.compactions += 1
        return self.base

    def maybe_compact(self) -> bool:
        """Compact iff the log has reached :attr:`compaction_limit`."""
        if self.pending >= self.compaction_limit:
            self.compact()
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"DeltaCSR(shape={self.shape}, base_nnz={self.base.nnz}, "
            f"pending={self.pending}, compactions={self.compactions})"
        )
