"""Delta-CSR: a mutable overlay absorbing edge churn over a frozen CSR.

Everything upstream of this module — the samplers, the plan executors, the
feature and embedding caches — consumes a *frozen* :class:`~repro.sparse.CSRMatrix`.
Production graphs mutate under traffic, so :class:`DeltaCSR` gives them a
frozen view of a moving target.  Its state is array-native: the ``base``
CSR, the current view (always up to date), a *delta log* of parallel sorted
arrays (flat key ``row * n + col``, value, deleted flag) and the sorted rows
dirtied since the last compaction.  :meth:`DeltaCSR.apply` splices one edge
batch into a fresh copy of the *previous view* — it never re-derives the
view from base + log — and once the log crosses ``compaction_threshold`` of
the base size the overlay *compacts*: the view becomes the new base.

Three invariants make the overlay safe to put under the sampling stack:

* **Canonical views.**  Every :meth:`DeltaCSR.view` satisfies the full CSR
  contract (sorted, duplicate-free columns — ``CSRMatrix.check``), so a
  view is indistinguishable from a from-scratch build of the same edge set
  and sampling from it is bit-identical.
* **Frozen views.**  A returned view is never written again — every batch
  that changes the graph builds new arrays — so replicas, shared-memory
  publishers and checkers may keep references to old views.
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

Cost: O(batch + one copy of the CSR arrays + pending) per batch, however
many batches came before; O(nnz) per compaction.  On a *unit-weight* graph
(every stored value exactly 1.0 — an unweighted adjacency) the copy is of
``indices`` alone: deletes and unit inserts keep it unit-weight, so every
view's ``data`` is a read-only slice of one run of ones the overlay holds
(the base's own ``data`` until a view outgrows it).  The first other value
leaves that run for good, and views own their ``data`` again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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




def _locate(
    adj: CSRMatrix, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each edge ``rows[i] -> cols[i]`` sits in ``adj.indices`` (its
    insertion point when absent), and whether it is present.

    Reads the touched rows only: gathered into one array of flat keys —
    sorted, because rows and in-row columns are — and searched once.
    """
    touched, slot = np.unique(rows, return_inverse=True)
    sub = adj.extract_rows(touched)
    width = adj.shape[1]
    at = np.searchsorted(sub.row_ids() * width + sub.indices, slot * width + cols)
    found = at < sub.indptr[slot + 1]
    found[found] = sub.indices[at[found]] == cols[found]
    return adj.indptr[rows] + (at - sub.indptr[slot]), found


def _spliced(
    arr: np.ndarray, at: np.ndarray, new: np.ndarray | None = None
) -> np.ndarray:
    """A fresh copy of ``arr`` with ``new[k]`` inserted before slot ``at[k]``
    or, without ``new``, the slots ``at`` removed (``at`` ascending):
    ``np.insert`` / ``np.delete`` by slice copies, without their O(n) mask.
    """
    step, skip = (1, 0) if new is not None else (-1, 1)
    out = np.empty(arr.size + step * at.size, dtype=arr.dtype)
    lo = 0
    for k, hi in enumerate([*at.tolist(), arr.size]):
        out[lo + step * k : hi + step * k] = arr[lo:hi]
        lo = hi + skip
    if new is not None:
        out[at + np.arange(at.size)] = new
    return out


class DeltaCSR:
    """A frozen-CSR view kept current over a sorted-array delta log.

    Holds ``base`` (the CSR as of the last compaction), the current view,
    the log (the final outcome of every edge that differs from ``base``)
    and the rows dirtied since the last compaction; see the module docs.

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
        self.base = base
        self.compaction_threshold = float(compaction_threshold)
        self.compactions = 0
        self._view = base
        # The run of ones unit-weight views slice their ``data`` from (see
        # the module docs); None once the graph holds any other value.
        self._ones = base.data if (base.data == 1.0).all() else None
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
        and right after a compaction), never written again."""
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
        at, present = _locate(self._view, batch.src[order], batch.dst[order])
        if inserting:
            vals = np.ones(order.size) if batch.vals is None else batch.vals[order]
            # A no-op iff the edge already holds the value: the previous
            # insert's or, for a first op, the view's (NaN — equal to
            # nothing — when the edge is absent).
            held = np.roll(vals, 1)
            held[first] = np.nan
            head = first & present
            held[head] = self._view.data[at[head]]
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
        dirty = np.unique(keys[changed] // n)
        if changed.size:
            self._advance(
                inserting, keys[changed], vals[changed], at[changed], present[changed]
            )
            self._dirty = np.union1d(self._dirty, dirty)
        n_applied = int(np.count_nonzero(applied))
        return UpdateResult(
            dirty_rows=dirty,
            applied=n_applied,
            skipped=batch.n_edges - n_applied,
            pending=self.pending,
        )

    def _advance(
        self, inserting: bool, keys: np.ndarray, vals: np.ndarray,
        at: np.ndarray, present: np.ndarray,
    ) -> None:
        """Move view and log past one batch's changed edges: distinct
        sorted flat ``keys``, found in the current view at ``at`` if
        ``present``; ``vals`` are the inserted values."""
        view, base, n = self._view, self.base, self.n
        rows, cols = np.divmod(keys, n)
        base_at, in_base = _locate(base, rows, cols)
        if inserting:
            # An insert back to the base value drops out of the log, and
            # the view shows the base's own bits for it (-0.0 == 0.0).
            restores = in_base.copy()
            restores[in_base] = base.data[base_at[in_base]] == vals[in_base]
            vals[restores] = base.data[base_at[restores]]
            add = ~present
            indices = _spliced(view.indices, at[add], cols[add])
            growth = np.bincount(rows[add], minlength=n)
        else:
            restores = ~in_base  # deleting an edge the base never had
            indices = _spliced(view.indices, at)
            growth = -np.bincount(rows, minlength=n)
        if self._ones is not None and (not inserting or (vals == 1.0).all()):
            if self._ones.size < indices.size:  # outgrown: one longer run
                self._ones = np.ones(indices.size + indices.size // 8)
            data = self._ones[: indices.size]
            data.setflags(write=False)
        elif inserting:
            self._ones = None
            data = _spliced(view.data, at[add], vals[add])
            # An overwritten slot sits right of its old position by the
            # number of inserts at or before it.
            over = at[present]
            data[over + np.searchsorted(at[add], over, side="right")] = vals[present]
        else:
            data = _spliced(view.data, at)
        indptr = view.indptr.copy()
        indptr[1:] += np.cumsum(growth)
        self._view = CSRMatrix(indptr, indices, data, view.shape)
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
        spliced = self.view()
        spliced.check()
        self.base = spliced
        self._clear_log()
        self.compactions += 1
        return spliced

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
