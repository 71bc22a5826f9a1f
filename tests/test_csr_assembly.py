"""``CSRMatrix.from_coo`` against the two-key lexsort it replaced, and
``CSRMatrix.add`` (scipy's merge) against a ``from_coo`` build of the sum.

``_lexsort_from_coo`` below is the previous body of ``from_coo``, kept
verbatim as the oracle.  The canonicalizer must reproduce it array for
array — ``indptr`` and ``indices`` equal, ``data`` equal *bitwise*
(duplicates are summed left to right in input order on both sides, so not
even the last bit may move) — whichever of its paths an input takes:
presorted (no sort), unsorted over a small index space (two counting
passes), unsorted over a large one (one stable argsort), duplicate-free (no
``reduceat``), or the int64-overflow fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import generators
from repro.sparse import CSRMatrix, spgemm
from repro.sparse import csr as csr_module

from reference_spgemm import transpose

#: rows * cols >= 2**63, so flat keys do not fit int64, yet few enough rows
#: for an ``indptr`` to exist.
HUGE = (4, 2**62)


def _lexsort_from_coo(rows, cols, vals, shape, *, sum_duplicates=True):
    """The pre-rewrite ``CSRMatrix.from_coo`` (oracle; do not optimize)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if vals is None:
        vals = np.ones(rows.shape[0], dtype=np.float64)
    else:
        vals = np.asarray(vals, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols and vals must have identical shapes")
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("column index out of range")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and rows.size:
        boundary = np.empty(rows.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(boundary)
        vals = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(indptr, cols, vals, (n_rows, n_cols))


def _oracle_add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    return _lexsort_from_coo(
        np.concatenate([a.row_ids(), b.row_ids()]),
        np.concatenate([a.indices, b.indices]),
        np.concatenate([a.data, b.data]),
        a.shape,
    )


def _oracle_transpose(m: CSRMatrix) -> CSRMatrix:
    rows, cols, vals = m.to_coo()
    return _lexsort_from_coo(
        cols, rows, vals, (m.shape[1], m.shape[0]), sum_duplicates=False
    )


def assert_identical(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def assert_matches_oracle(rows, cols, vals, shape, **kwargs) -> CSRMatrix:
    got = CSRMatrix.from_coo(rows, cols, vals, shape, **kwargs)
    assert_identical(got, _lexsort_from_coo(rows, cols, vals, shape, **kwargs))
    return got


@st.composite
def triplets(draw, max_dim: int = 24, max_nnz: int = 200):
    """Random COO triplets; the values span 24 binary orders of magnitude,
    so a duplicate summed in another order lands on other bits."""
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    vals = rng.standard_normal(nnz) * 2.0 ** rng.integers(-12, 12, nnz)
    return rows, cols, vals, (n_rows, n_cols)


def _row_major(rows, cols, vals, shape):
    """The same triplets in row-major order (duplicates kept, stably)."""
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order], shape


@given(triplets(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_shuffled_input_matches_oracle(args, sum_duplicates):
    rows, cols, vals, shape = args
    got = assert_matches_oracle(
        rows, cols, vals, shape, sum_duplicates=sum_duplicates
    )
    if sum_duplicates:
        got.check()


@given(triplets(max_dim=4, max_nnz=300))
@settings(max_examples=60, deadline=None)
def test_heavy_duplicates_match_oracle(args):
    assert_matches_oracle(*args).check()


@given(triplets(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_presorted_input_matches_oracle(args, sum_duplicates):
    rows, cols, vals, shape = _row_major(*args)
    assert_matches_oracle(rows, cols, vals, shape, sum_duplicates=sum_duplicates)


@given(triplets())
@settings(max_examples=60, deadline=None)
def test_reverse_sorted_input_matches_oracle(args):
    rows, cols, vals, shape = _row_major(*args)
    assert_matches_oracle(rows[::-1], cols[::-1], vals[::-1], shape)


@given(st.lists(triplets(max_dim=10, max_nnz=60), min_size=2, max_size=4),
       st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_concatenated_canonical_runs_match_oracle(parts, n_rows, n_cols):
    """Two to four canonical matrices laid end to end: sorted runs for the
    stable argsort to merge."""
    shape = (n_rows, n_cols)
    runs = [
        CSRMatrix.from_coo(r % n_rows, c % n_cols, v, shape).to_coo()
        for r, c, v, _ in parts
    ]
    rows, cols, vals = (np.concatenate(x) for x in zip(*runs))
    assert_matches_oracle(rows, cols, vals, shape).check()


@given(triplets(max_dim=10), triplets(max_dim=10), triplets(max_dim=10))
@settings(max_examples=60, deadline=None)
def test_chained_add_matches_oracle(ta, tb, tc):
    """``CSRMatrix.add`` is scipy's merge, not a ``from_coo`` build: the
    same sums (``self``'s value first, one rounding) with exact zeros
    absent."""
    shape = ta[3]
    a, b, c = (
        CSRMatrix.from_coo(r % shape[0], cl % shape[1], v, shape)
        for r, cl, v, _ in (ta, tb, tc)
    )
    got = a.add(b).add(c)
    got.check()
    assert_identical(got, _oracle_add(_oracle_add(a, b), c).prune_zeros())


class TestAddZeroRule:
    """An entry whose sum is exactly zero is absent; NaN and ±inf stay."""

    def _m(self, vals):
        return CSRMatrix([0, 2, 4], [0, 3, 1, 2], vals, (2, 4))

    def test_cancellation_is_empty(self):
        m = self._m([1.5, -2.0, 3.0, 1e-300])
        neg = CSRMatrix(m.indptr, m.indices, -m.data, m.shape)
        out = m.add(neg)
        assert out.nnz == 0
        assert out.indptr.tolist() == [0, 0, 0]

    def test_stored_zeros_drop(self):
        m = self._m([0.0, 2.0, -0.0, 4.0])
        out = m.add(CSRMatrix.zeros(m.shape))
        assert out.data.tolist() == [2.0, 4.0]
        assert out.indices.tolist() == [3, 2]
        assert out.indptr.tolist() == [0, 1, 2]

    def test_nan_and_inf_stay(self):
        m = self._m([np.nan, np.inf, -np.inf, 1.0])
        out = m.add(CSRMatrix.zeros(m.shape))
        assert out.nnz == 4
        assert np.isnan(out.data[0])
        assert out.data[1:].tolist() == [np.inf, -np.inf, 1.0]
        # inf + -inf is NaN, not zero: it stays too.
        both = m.add(self._m([1.0, -np.inf, 2.0, -1.0]))
        assert np.isnan(both.data[:2]).all()
        assert both.data[2:].tolist() == [-np.inf]
        assert both.indptr.tolist() == [0, 2, 3]


@given(triplets())
@settings(max_examples=60, deadline=None)
def test_double_transpose_matches_oracle(args):
    m = CSRMatrix.from_coo(*args)
    t = transpose(m)
    assert_identical(t, _oracle_transpose(m))
    assert_identical(transpose(t), _oracle_transpose(_oracle_transpose(m)))
    assert_identical(transpose(t), m)


@given(triplets(max_nnz=60))
@settings(max_examples=60, deadline=None)
def test_overflow_fallback_matches_oracle(args):
    """Columns spread over [0, 2**62): the flat key would wrap int64."""
    rows, cols, vals, _ = args
    wide = cols.astype(np.int64) * (HUGE[1] // 24) + cols
    got = assert_matches_oracle(rows % HUGE[0], wide, vals, HUGE)
    got.check()


class TestEdgeCases:
    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        got = assert_matches_oracle(empty, empty, None, (5, 7))
        assert got.nnz == 0
        assert_matches_oracle(empty, empty, np.empty(0), (0, 0))
        assert_matches_oracle(empty, empty, None, HUGE)

    def test_single_row(self):
        rng = np.random.default_rng(0)
        cols = rng.integers(0, 50, 400)
        assert_matches_oracle(
            np.zeros(400, dtype=np.int64), cols, rng.standard_normal(400), (1, 50)
        ).check()

    def test_single_entry_and_values_default_to_one(self):
        got = assert_matches_oracle([2], [3], None, (4, 5))
        assert got.data.tolist() == [1.0]

    def test_lists_and_narrow_dtypes_are_accepted(self):
        assert_matches_oracle([1, 0, 1], [0, 2, 0], [1.5, 2, 3], (2, 3))
        assert_matches_oracle(
            np.array([1, 0], dtype=np.int32), np.array([0, 1], dtype=np.uint8),
            np.array([1, 2], dtype=np.float32), (2, 2),
        )

    def test_huge_shape_three_entries(self):
        # Flat keys 7, 2**62 + 1 and 3 * 2**62 + 5: the last wraps int64.
        got = assert_matches_oracle([3, 0, 1], [5, 7, 1], [3.0, 1.0, 2.0], HUGE)
        assert got.indices.tolist() == [7, 1, 5]
        assert got.data.tolist() == [1.0, 2.0, 3.0]
        assert got.indptr.tolist() == [0, 1, 2, 2, 3]
        got.check()

    def test_result_never_aliases_the_input(self):
        rows = np.array([0, 0, 1], dtype=np.int64)
        cols = np.array([1, 2, 0], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        # Presorted, and reversed: on (2, 3) (2 + 3 <= 2 * 3) the reversed
        # input takes the counting passes.
        for order in (slice(None), slice(None, None, -1)):
            for shape in ((2, 3), HUGE):
                m = CSRMatrix.from_coo(rows[order], cols[order], vals[order], shape)
                for out in m.buffers():
                    for arr in (rows, cols, vals):
                        assert not np.shares_memory(out, arr)
                m.data[:] = 0.0
                assert vals.tolist() == [1.0, 2.0, 3.0]


class TestCountingPath:
    """Unsorted input with ``n_rows + n_cols <= 2 * nnz`` is bucketed by two
    counting passes (``coo_tocsr`` by column, ``csr_tocsc`` by row); every
    other input keeps the flat-key paths."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        for name in ("coo_tocsr", "csr_tocsc"):
            routine = getattr(csr_module._sparsetools, name)

            def spy(*args, _name=name, _routine=routine):
                calls.append(_name)
                return _routine(*args)

            monkeypatch.setattr(csr_module._sparsetools, name, spy)
        return calls

    @pytest.mark.parametrize("vals", [None, "wide"])
    @pytest.mark.parametrize("n_cols, counted", [(12, True), (13, False)])
    def test_shape_boundary(self, passes, vals, n_cols, counted):
        # 10 entries: 8 + 12 == 2 * nnz counts, 8 + 13 does not.
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 4, 10)  # duplicates guaranteed
        cols = rng.integers(0, 3, 10)
        assert not np.all(np.diff(rows * n_cols + cols) >= 0)
        if vals == "wide":
            vals = rng.standard_normal(10) * 2.0 ** rng.integers(-30, 30, 10)
        got = assert_matches_oracle(rows, cols, vals, (8, n_cols))
        got.check()
        assert got.nnz < 10
        assert passes == (["coo_tocsr", "csr_tocsc"] if counted else [])

    def test_presorted_input_is_not_bucketed(self, passes):
        rows, cols, vals, shape = _row_major(
            np.array([3, 0, 1, 0]), np.array([1, 2, 0, 2]), np.arange(4.0), (4, 3)
        )
        assert_matches_oracle(rows, cols, vals, shape)
        assert passes == []

    @pytest.mark.parametrize("vals", [None, "wide"])
    def test_planted_partition_edge_list(self, monkeypatch, passes, vals):
        """The 843k-entry edge list of ``load_dataset("products", scale=2.0,
        with_labels=True)``, as the generator hands it to ``from_coo``."""
        edges = []

        class Recorder:
            @staticmethod
            def from_coo(rows, cols, vals, shape):
                edges.append((rows, cols, shape))
                return CSRMatrix.zeros(shape)

        monkeypatch.setattr(generators, "CSRMatrix", Recorder)
        generators.planted_partition(
            8192, 16, 51.5, np.random.default_rng(503), intra_fraction=0.85
        )
        (rows, cols, shape), = edges
        assert rows.size > 840_000
        if vals == "wide":
            rng = np.random.default_rng(509)
            vals = rng.standard_normal(rows.size) * 2.0 ** rng.integers(
                -40, 40, rows.size
            )
        got = assert_matches_oracle(rows, cols, vals, shape)
        assert got.nnz < rows.size  # the edge list has duplicate edges
        assert passes == ["coo_tocsr", "csr_tocsc"]


class TestRangeChecksRunOnEveryPath:
    """Skipping the sort must not skip the validation."""

    @pytest.mark.parametrize(
        "shape, rows, cols, message",
        [
            ((3, 4), [0, 1, 3], [0, 1, 2], "row index out of range"),  # presorted
            ((3, 4), [-1, 0, 1], [0, 1, 2], "row index out of range"),
            ((3, 4), [2, 1, 7], [0, 1, 2], "row index out of range"),  # unsorted
            ((3, 4), [0, 1, 2], [0, 1, 4], "column index out of range"),  # presorted
            ((3, 4), [0, 1, 2], [-1, 1, 2], "column index out of range"),
            ((3, 4), [2, 1, 0], [0, 1, 4], "column index out of range"),  # unsorted
            (HUGE, [0, 1, 4], [0, 1, 2], "row index out of range"),
            (HUGE, [0, 1, 2], [0, 1, 2**62], "column index out of range"),
        ],
    )
    def test_out_of_range_raises(self, shape, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            CSRMatrix.from_coo(rows, cols, None, shape)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="identical shapes"):
            CSRMatrix.from_coo([0, 1], [0, 1], [1.0], (2, 2))


class TestCheckOnHugeShapes:
    """``check()`` used to compare ``row * n_cols + col`` keys, which wrap."""

    def test_valid_matrix_passes(self):
        # Rows 0, 1 and 3: from (1, 1) to (3, 5) the flat key grows by
        # 2**63 + 4, a negative int64 — once read as "not increasing".
        m = CSRMatrix([0, 1, 2, 2, 3], [7, 1, 5], [1.0, 2.0, 3.0], HUGE)
        m.check()

    def test_unsorted_row_is_still_caught(self):
        bad = CSRMatrix([0, 0, 2, 3, 3], [2**61, 7, 1], np.ones(3), HUGE)
        with pytest.raises(ValueError, match="strictly increasing"):
            bad.check()

    @pytest.mark.parametrize(
        "indptr, indices, ok",
        [
            ([0, 2, 4], [1, 2, 0, 1], True),
            ([0, 2, 4], [1, 2, 2, 1], False),   # violation right after a row start
            ([0, 2, 4], [2, 1, 0, 1], False),   # violation right before one
            ([0, 1, 2], [3, 3], True),          # equal columns across rows
            ([0, 0, 2, 2, 3], [0, 0, 0], False),  # duplicate inside a row
            ([0, 0, 2, 2, 3], [4, 5, 0], True),   # empty rows around
            ([0, 3, 3], [0, 1, 1], False),      # trailing empty row
        ],
    )
    def test_row_starts_are_the_only_exemption(self, indptr, indices, ok):
        m = CSRMatrix(indptr, indices, np.ones(len(indices)), (len(indptr) - 1, 6))
        if ok:
            m.check()
        else:
            with pytest.raises(ValueError, match="strictly increasing"):
                m.check()


@given(triplets(max_dim=16), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_unit_row_selector_product_is_a_row_gather(args, seed):
    """``Q @ A`` for a one-hot-per-row ``Q`` expands already in row-major
    order (the sort-free path) and is bitwise the gathered rows of ``A``."""
    a = CSRMatrix.from_coo(*args)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, a.shape[0], rng.integers(1, 12))
    q = CSRMatrix.from_coo(
        np.arange(picks.size), picks, None, (picks.size, a.shape[0])
    )
    assert_identical(spgemm(q, a), a.extract_rows(q.indices))
