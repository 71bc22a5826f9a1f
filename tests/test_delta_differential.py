"""Stateful differential test: the array-native ``DeltaCSR`` against the
dict-and-set overlay it replaced (``reference_delta.py``).

A Hypothesis rule-based state machine drives both overlays, and a plain
``{(u, v): value}`` model, through the same operation sequence on small
graphs (6-40 vertices, empty rows, sometimes an empty base): inserts of
absent edges, re-inserts at the same value, overwrites (alone and beside
inserts in one batch), restores of the base value, deletes of present
and of missing edges, batches with duplicates inside, ``strict`` deletes
that succeed and that fail, ``compact`` and ``maybe_compact`` at a tiny
threshold.  A view after a batch is an anchor plus a patch whose canonical
arrays are built only when read, so every batch draws which reader comes
next: the servers' row reads (``extract_rows`` of a drawn row list, with
repeats and in any order, plus ``nnz`` and ``nnz_per_row``, held to the
oracle while the view stays unbuilt, so the next batch lands on a patch) or
a whole-matrix reader (the canonical arrays, byte for byte against the
oracle's).  After **every** rule, through the read path alone (nothing here
builds a view):

* ``indptr`` and every row as ``extract_rows`` serves it equal the
  oracle's *byte for byte* (the value pool holds ``0.0`` and ``-0.0``) and,
  by value, a ``from_coo`` rebuild of the model;
* they equal ``rebuild_from_log`` — the base COO filtered through the
  *log* and re-canonicalized by ``from_coo``, the parity check
  ``DeltaCSR.compact()`` ran on every call until it moved here;
* ``pending``, ``compaction_limit``, ``dirty_row_ids`` and ``compactions``
  equal the oracle's (every ``UpdateResult`` field is compared inside the
  rule that produced it);
* what every view handed out so far serves — and, once built, its
  canonical arrays — is unchanged: the frozen-view rule replicas and
  checkers rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from reference_delta import ReferenceDeltaCSR
from repro.sparse import CSRMatrix
from repro.stream import DeltaCSR, EdgeBatch

VALUES = [1.0, 2.0, 0.5, 0.0, -0.0]


def _csr(edges: dict[tuple[int, int], float], n: int) -> CSRMatrix:
    keys = sorted(edges)
    return CSRMatrix.from_coo(
        np.array([u for u, _ in keys], dtype=np.int64),
        np.array([v for _, v in keys], dtype=np.int64),
        np.array([edges[k] for k in keys], dtype=np.float64),
        (n, n),
        sum_duplicates=False,
    )


def rebuild_from_log(delta: DeltaCSR) -> CSRMatrix:
    """The overlay's edge set built through the independent COO path: base
    entries the log does not touch, plus the log's inserts — never read
    from the view, so a log that drifted from the splices shows."""
    rows, cols, vals = delta.base.to_coo()
    if delta.pending:
        width = delta.base.shape[1]
        keep = ~np.isin(rows * width + cols, delta._log_keys)
        ins = ~delta._log_deleted
        rows = np.concatenate([rows[keep], delta._log_keys[ins] // width])
        cols = np.concatenate([cols[keep], delta._log_keys[ins] % width])
        vals = np.concatenate([vals[keep], delta._log_vals[ins]])
    return CSRMatrix.from_coo(
        rows, cols, vals, delta.base.shape, sum_duplicates=False
    )


def _bytes(adj: CSRMatrix) -> tuple[bytes, bytes, bytes]:
    return adj.indptr.tobytes(), adj.indices.tobytes(), adj.data.tobytes()


def _served(adj: CSRMatrix) -> tuple[bytes, bytes, bytes]:
    """``_bytes`` through the read path: ``indptr`` and every row gathered
    by ``extract_rows``, which builds nothing on a streaming view."""
    rows = adj.extract_rows(np.arange(adj.shape[0]))
    return adj.indptr.tobytes(), rows.indices.tobytes(), rows.data.tobytes()


def _same(adj: CSRMatrix, model: CSRMatrix) -> bool:
    """Equal to the model's edge set, zeros of either sign alike."""
    return (
        np.array_equal(adj.indptr, model.indptr)
        and np.array_equal(adj.indices, model.indices)
        and np.array_equal(adj.data, model.data)
    )


def _built(adj: CSRMatrix) -> bool:
    """Whether ``adj`` holds its canonical arrays (a plain CSR always does)."""
    return getattr(adj, "built", True)


class DeltaMachine(RuleBasedStateMachine):
    @initialize(
        n=st.integers(6, 40),
        density=st.sampled_from([0.0, 0.05, 0.3]),
        threshold=st.sampled_from([0.02, 0.1, 0.5]),
        unit=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def build(self, n, density, threshold, unit, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        mask[rng.integers(0, n)] = False  # always at least one empty row
        self.n = n
        # A unit-weight base stays unit-weight under unit inserts until
        # ``overwrite`` writes the first other value.
        self.values = [1.0] if unit else VALUES
        self.edges = {
            (int(u), int(v)): self.values[int(rng.integers(len(self.values)))]
            for u, v in zip(*np.nonzero(mask))
        }
        base = _csr(self.edges, n)
        self.new = DeltaCSR(base, compaction_threshold=threshold)
        self.ref = ReferenceDeltaCSR(base, compaction_threshold=threshold)
        self.snapshots = [(base, _bytes(base))]

    # -- helpers --------------------------------------------------------- #
    def _pairs(self, data, pool, *, max_size=6):
        picked = data.draw(
            st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=max_size)
        )
        return [u for u, _ in picked], [v for _, v in picked]

    def _values(self, data, k):
        return data.draw(st.lists(st.sampled_from(self.values), min_size=k, max_size=k))

    def _absent(self):
        return {
            (u, v) for u in range(self.n) for v in range(self.n)
        } - self.edges.keys()

    def _apply(self, data, batch: EdgeBatch, *, strict: bool = False):
        got = self.new.apply(batch, strict=strict)
        want = self.ref.apply(batch, strict=strict)
        assert got.dirty_rows.dtype == want.dirty_rows.dtype
        assert got.dirty_rows.tolist() == want.dirty_rows.tolist()
        assert (got.applied, got.skipped, got.pending, got.compacted) == (
            want.applied, want.skipped, want.pending, want.compacted
        )
        vals = batch.vals if batch.vals is not None else np.ones(batch.n_edges)
        for u, v, w in zip(batch.src.tolist(), batch.dst.tolist(), vals.tolist()):
            if batch.op == "delete":
                self.edges.pop((u, v), None)
            elif self.edges.get((u, v)) != w:
                self.edges[(u, v)] = w
        self._read(data)
        return got

    def _read(self, data):
        """The drawn reader of the view the batch left: row reads that keep
        it unbuilt, or the whole-matrix arrays that build it."""
        view, want = self.new.view(), self.ref.view()
        if data.draw(st.booleans(), label="build the view"):
            assert _bytes(view) == _bytes(want)
            assert _built(view)
            return
        built = _built(view)
        rows = data.draw(
            st.lists(st.integers(0, self.n - 1), max_size=2 * self.n), label="rows"
        )
        got = view.extract_rows(rows)
        assert _bytes(got) == _bytes(want.extract_rows(rows))
        assert _same(got, _csr(self.edges, self.n).extract_rows(rows))
        assert view.nnz == want.nnz
        assert np.array_equal(view.nnz_per_row(), want.nnz_per_row())
        assert _built(view) == built  # row reads build nothing

    def _insert(self, data, src, dst, vals):
        batch = EdgeBatch(src, dst, "insert", np.array(vals, dtype=float))
        return self._apply(data, batch)

    # -- rules ----------------------------------------------------------- #
    @rule(data=st.data())
    def insert_absent(self, data):
        src, dst = self._pairs(data, self._absent())
        assert self._insert(data, src, dst, self._values(data, len(src))).applied >= 1

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def insert_present_same_value(self, data):
        src, dst = self._pairs(data, self.edges)
        res = self._insert(data, src, dst, [self.edges[e] for e in zip(src, dst)])
        assert res.applied == 0 and res.dirty_rows.size == 0

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def overwrite(self, data):
        src, dst = self._pairs(data, self.edges)
        vals = [3.0 if self.edges[e] != 3.0 else 4.0 for e in zip(src, dst)]
        assert self._insert(data, src, dst, vals).applied >= 1

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def insert_and_overwrite(self, data):
        """New edges and new values for old ones in one batch: an
        overwritten slot moves right by the inserts that land before it."""
        new, old = self._pairs(data, self._absent()), self._pairs(data, self.edges)
        src, dst = new[0] + old[0], new[1] + old[1]
        assert self._insert(data, src, dst, [5.0] * len(src)).applied >= len(set(zip(*new)))

    @precondition(lambda self: self.new.base.nnz)
    @rule(data=st.data())
    def restore_base_values(self, data):
        """Base edges re-inserted at their base value — a zero with its sign
        flipped, equal but other bits: whatever the log held for them
        drains, and the view shows the base's own bits."""
        rows, cols, vals = self.new.base.to_coo()
        drifted = [  # base edges now deleted or overwritten, if there are any
            i for i, e in enumerate(zip(rows.tolist(), cols.tolist()))
            if self.edges.get(e) != vals[i]
        ]
        picks = data.draw(
            st.lists(
                st.sampled_from(drifted or range(vals.size)), min_size=1, max_size=6
            )
        )
        vals = vals[picks]
        self._insert(data, rows[picks], cols[picks], np.where(vals == 0, -vals, vals))

    @precondition(lambda self: self.edges)
    @rule(data=st.data(), strict=st.booleans())
    def delete_present(self, data, strict):
        src, dst = self._pairs(data, self.edges)
        if strict:  # a strict delete that succeeds names every edge once
            src, dst = map(list, zip(*dict.fromkeys(zip(src, dst))))
        res = self._apply(data, EdgeBatch(src, dst, "delete"), strict=strict)
        assert res.applied == len(set(zip(src, dst)))

    @rule(data=st.data())
    def delete_missing(self, data):
        src, dst = self._pairs(data, self._absent())
        res = self._apply(data, EdgeBatch(src, dst, "delete"))
        assert res.applied == 0 and res.skipped == len(src)

    @rule(data=st.data(), op=st.sampled_from(["insert", "delete"]))
    def duplicates_inside_one_batch(self, data, op):
        """Any mix of present / absent edges, each possibly several times,
        with clashing values: the sequential semantics in one batch."""
        pool = data.draw(
            st.lists(
                st.tuples(st.integers(0, self.n - 1), st.integers(0, self.n - 1)),
                min_size=1, max_size=3,
            )
        )
        picked = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8))
        src, dst = [u for u, _ in picked], [v for _, v in picked]
        if op == "delete":
            self._apply(data, EdgeBatch(src, dst, "delete"))
        else:
            self._insert(data, src, dst, self._values(data, len(src)))

    @rule(data=st.data())
    def failing_strict_delete(self, data):
        """A strict delete with a miss — an absent edge, or the repeat of a
        present one — raises the oracle's error and changes nothing."""
        src, dst = self._pairs(data, self._absent(), max_size=2)
        if self.edges:
            more = self._pairs(data, self.edges, max_size=3)
            at = data.draw(st.integers(0, len(more[0])))
            src = more[0][:at] + src + more[0][at:]
            dst = more[1][:at] + dst + more[1][at:]
        batch = EdgeBatch(src, dst, "delete")
        before = (self.new.view(), self.new.pending, self.new.dirty_row_ids.tolist())
        with pytest.raises(ValueError) as want:
            self.ref.apply(batch, strict=True)
        with pytest.raises(ValueError) as got:
            self.new.apply(batch, strict=True)
        assert str(got.value) == str(want.value)
        after = (self.new.view(), self.new.pending, self.new.dirty_row_ids.tolist())
        assert after[0] is before[0] and after[1:] == before[1:]

    @rule()
    def compact(self):
        self.new.compact()
        self.ref.compact()
        assert self.new.view() is self.new.base

    @rule()
    def maybe_compact(self):
        assert self.new.maybe_compact() == self.ref.maybe_compact()

    # -- checked after every rule ---------------------------------------- #
    @invariant()
    def overlays_agree(self):
        new, ref = self.new, self.ref
        view = new.view()
        served = _served(view)
        assert served == _bytes(ref.view())
        assert served == _bytes(rebuild_from_log(new))
        assert _same(view.extract_rows(np.arange(self.n)), _csr(self.edges, self.n))
        assert new.pending == ref.pending
        assert new.compaction_limit == ref.compaction_limit
        assert new.dirty_row_ids.dtype == ref.dirty_row_ids.dtype
        assert new.dirty_row_ids.tolist() == ref.dirty_row_ids.tolist()
        assert new.compactions == ref.compactions
        if new.pending == 0 and new.dirty_row_ids.size == 0:
            assert view is new.base

    @invariant()
    def returned_views_are_frozen(self):
        if self.snapshots[-1][0] is not self.new.view():
            self.snapshots.append((self.new.view(), _served(self.new.view())))
        for adj, frozen in self.snapshots:
            assert _served(adj) == frozen
            if _built(adj):
                assert _bytes(adj) == frozen


TestDeltaDifferential = DeltaMachine.TestCase
TestDeltaDifferential.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None, derandomize=True
)
