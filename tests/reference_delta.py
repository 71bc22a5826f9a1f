"""Reference delta-CSR overlay — the differential-testing oracle.

This is the dict-and-set body :class:`~repro.stream.delta.DeltaCSR` had
before it became array-native: a ``(u, v) -> value | None`` op dict, a
Python ``set`` of dirty rows, a per-edge ``apply`` loop and a ``view()``
that re-merges every dirty row against the base.  It is kept verbatim so
``tests/test_delta_differential.py`` can hold the array-native overlay to
it on every view array, every :class:`~repro.stream.delta.UpdateResult`
field and every counter.  One deliberate difference, made the same way in
``src/``: a ``strict`` delete batch is validated *before* the loop touches
the log — the original raised half-way through
with the log mutated and the dirty set / cached view not, and the next
``compact()`` failed its parity assertion.  Nothing under ``src/`` may
import this module.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import CSRMatrix
from repro.stream.delta import EdgeBatch, UpdateResult


class ReferenceDeltaCSR:
    """A frozen-CSR view over a sorted per-row delta log.

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
        # Final outcome per touched edge: value (insert) or None (delete).
        self._ops: dict[tuple[int, int], float | None] = {}
        self._dirty_rows: set[int] = set()
        self._view: CSRMatrix | None = base
        self.compactions = 0

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
        return len(self._ops)

    @property
    def compaction_limit(self) -> int:
        """Delta-log size that triggers :meth:`maybe_compact`."""
        return max(1, int(np.ceil(self.compaction_threshold * self.base.nnz)))

    @property
    def dirty_row_ids(self) -> np.ndarray:
        """Sorted rows the next :meth:`view` must re-merge."""
        return np.array(sorted(self._dirty_rows), dtype=np.int64)

    def _has_edge(self, u: int, v: int) -> bool:
        """Edge existence in the *current* (base + log) graph."""
        key = (u, v)
        if key in self._ops:
            return self._ops[key] is not None
        cols, _ = self.base.row(u)
        i = int(np.searchsorted(cols, v))
        return i < cols.size and cols[i] == v

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply(self, batch: EdgeBatch, *, strict: bool = False) -> UpdateResult:
        """Absorb one edge batch into the delta log.

        Inserting an edge that already exists with the same value, or
        deleting an edge that does not exist, is a *no-op*: it neither
        dirties the row nor grows the log.  With ``strict=True`` a missing
        delete raises instead (an actionable error naming the edge).
        Within one batch, later ops win (insert-then-delete deletes).
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
        vals = (
            batch.vals
            if batch.vals is not None
            else np.ones(batch.n_edges, dtype=np.float64)
        )
        if strict and not inserting:
            # The fix: find the first delete that would miss (absent, or a
            # repeat of an edge this batch already deleted) before anything
            # is mutated, so a raising batch leaves the overlay untouched.
            gone: set[tuple[int, int]] = set()
            for u, v in zip(batch.src.tolist(), batch.dst.tolist()):
                if (u, v) in gone or not self._has_edge(u, v):
                    raise ValueError(
                        f"cannot delete edge {u} -> {v}: not present in "
                        f"the current graph (pass strict=False to skip "
                        f"missing deletes)"
                    )
                gone.add((u, v))
        dirty: set[int] = set()
        applied = skipped = 0
        for i in range(batch.n_edges):
            u, v = int(batch.src[i]), int(batch.dst[i])
            key = (u, v)
            if inserting:
                val = float(vals[i])
                if self._edge_value(u, v) == val:
                    skipped += 1  # duplicate insert: already present as-is
                    continue
                new_op = val
            else:
                if not self._has_edge(u, v):
                    skipped += 1
                    continue
                new_op = None
            # Record the final outcome; drop ops that restore the base.
            base_val = self._base_value(u, v)
            if new_op == base_val:
                self._ops.pop(key, None)
            else:
                self._ops[key] = new_op
            dirty.add(u)
            applied += 1
        if dirty:
            self._dirty_rows.update(dirty)
            self._view = None  # stale: next view() re-splices
        return UpdateResult(
            dirty_rows=np.array(sorted(dirty), dtype=np.int64),
            applied=applied,
            skipped=skipped,
            pending=self.pending,
        )

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

    def _base_value(self, u: int, v: int) -> float | None:
        cols, data = self.base.row(u)
        i = int(np.searchsorted(cols, v))
        if i < cols.size and cols[i] == v:
            return float(data[i])
        return None

    def _edge_value(self, u: int, v: int) -> float | None:
        key = (u, v)
        if key in self._ops:
            return self._ops[key]
        return self._base_value(u, v)

    # ------------------------------------------------------------------ #
    # The frozen view
    # ------------------------------------------------------------------ #
    def view(self) -> CSRMatrix:
        """The current graph as a canonical frozen CSR.

        Cached between mutations.  Rebuilds only the rows in the dirty set:
        clean row segments are copied from the base in one vectorized move,
        dirty rows are merged (base row minus deletes/overwrites, plus
        inserts, column-sorted) and spliced in.
        """
        if self._view is not None:
            return self._view
        base = self.base
        merged: dict[int, tuple[np.ndarray, np.ndarray]] = {
            r: self._merge_row(r) for r in self._dirty_rows
        }
        counts = base.nnz_per_row().copy()
        for r, (cols, _) in merged.items():
            counts[r] = cols.size
        indptr = np.zeros(base.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(int(indptr[-1]), dtype=np.float64)
        # Copy clean segments between consecutive dirty rows en bloc.
        dirty_sorted = sorted(self._dirty_rows)
        prev = 0
        for r in dirty_sorted:
            self._copy_clean(base, indptr, indices, data, prev, r)
            cols, vals = merged[r]
            lo = indptr[r]
            indices[lo : lo + cols.size] = cols
            data[lo : lo + cols.size] = vals
            prev = r + 1
        self._copy_clean(base, indptr, indices, data, prev, base.shape[0])
        self._view = CSRMatrix(indptr, indices, data, base.shape)
        return self._view

    @staticmethod
    def _copy_clean(
        base: CSRMatrix,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        if start >= stop:
            return
        src_lo, src_hi = base.indptr[start], base.indptr[stop]
        dst_lo = indptr[start]
        span = src_hi - src_lo
        indices[dst_lo : dst_lo + span] = base.indices[src_lo:src_hi]
        data[dst_lo : dst_lo + span] = base.data[src_lo:src_hi]

    def _merge_row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``r`` of base merged with its pending ops, column-sorted."""
        cols, vals = self.base.row(r)
        ops = [(v, op) for (u, v), op in self._ops.items() if u == r]
        if not ops:
            return cols.copy(), vals.copy()
        touched = np.array([v for v, _ in ops], dtype=np.int64)
        keep = ~np.isin(cols, touched)
        ins = [(v, op) for v, op in ops if op is not None]
        out_cols = np.concatenate(
            [cols[keep], np.array([v for v, _ in ins], dtype=np.int64)]
        )
        out_vals = np.concatenate(
            [vals[keep], np.array([op for _, op in ins], dtype=np.float64)]
        )
        order = np.argsort(out_cols, kind="stable")
        return out_cols[order], out_vals[order]

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> CSRMatrix:
        """Fold the delta log into a fresh frozen base CSR.

        Parity with a from-scratch rebuild is asserted on every call: the
        incremental splice (:meth:`view`) must equal the matrix built by
        filtering the base COO through the log and re-canonicalizing with
        :meth:`CSRMatrix.from_coo` — array-for-array, not just numerically.
        """
        spliced = self.view()
        rebuilt = self._rebuild_from_scratch()
        if not (
            np.array_equal(spliced.indptr, rebuilt.indptr)
            and np.array_equal(spliced.indices, rebuilt.indices)
            and np.array_equal(spliced.data, rebuilt.data)
        ):
            raise AssertionError(
                "delta-CSR compaction parity violated: incremental merge "
                "differs from the from-scratch rebuild of the same edge set"
            )
        spliced.check()
        self.base = spliced
        self._ops.clear()
        self._dirty_rows.clear()
        self._view = spliced
        self.compactions += 1
        return spliced

    def maybe_compact(self) -> bool:
        """Compact iff the log has reached :attr:`compaction_limit`."""
        if self.pending >= self.compaction_limit:
            self.compact()
            return True
        return False

    def _rebuild_from_scratch(self) -> CSRMatrix:
        """The current edge set built through the independent COO path."""
        rows, cols, vals = self.base.to_coo()
        if self._ops:
            touched = np.array(sorted(self._ops), dtype=np.int64).reshape(-1, 2)
            width = self.base.shape[1]
            op_keys = touched[:, 0] * width + touched[:, 1]
            keep = ~np.isin(rows * width + cols, op_keys)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
            ins = [(k, v) for k, v in self._ops.items() if v is not None]
            if ins:
                rows = np.concatenate(
                    [rows, np.array([u for (u, _), _ in ins], dtype=np.int64)]
                )
                cols = np.concatenate(
                    [cols, np.array([c for (_, c), _ in ins], dtype=np.int64)]
                )
                vals = np.concatenate(
                    [vals, np.array([v for _, v in ins], dtype=np.float64)]
                )
        return CSRMatrix.from_coo(
            rows, cols, vals, self.base.shape, sum_duplicates=False
        )

    def __repr__(self) -> str:
        return (
            f"ReferenceDeltaCSR(shape={self.shape}, base_nnz={self.base.nnz}, "
            f"pending={self.pending}, compactions={self.compactions})"
        )
