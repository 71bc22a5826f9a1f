"""The CSR substrate's compiled paths against their retired numpy bodies.

``CSRMatrix.extract_rows``, :func:`repro.sparse.row_normalize_inplace` and
``CSRMatrix.add`` run scipy's compiled CSR routines where they used to
build index arrays with one entry per stored nonzero.  Each is held byte
for byte to its retired body in ``reference_sparse.py``: ``indptr``,
``indices`` and ``data`` compared with ``tobytes()``, the data as its int64
bit pattern.  (``_masked_indptr``'s property against its retired prefix
count is in ``test_sparse_properties.py``; ITS's one-``min`` sign check is
held to the retired ITS body at the end of this file.)

The matrices store the values that bend float arithmetic — ``±0.0``, NaN
(with payloads), ``±inf``, subnormals, and rows that cancel to ``0.0`` or
sum to a subnormal — and come as whole matrices, as ``row_block`` views
(data at an offset into the parent's arrays), as views whose ``indptr``
starts past 0 over the parent's full arrays, and with read-only arrays,
as shared memory attaches them.  A compiled routine that silently wrote
into a temporary (an output buffer of the wrong dtype or layout) would
leave garbage in the result and fail here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_its
import reference_sparse
from repro.core.its import its_select_mask
from repro.sparse import CSRMatrix, row_normalize_inplace
from repro.sparse.csr import _indptr_from_rows

_SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -3.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-323,
    1e308, -1e308, np.inf, -np.inf, np.nan,
    # NaNs with other payloads and signs (the second is signalling).
    np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0],
    np.array([0x7FF0000000000003], dtype=np.uint64).view(np.float64)[0],
]

_values = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def matrices(draw, shape=None, values=_values, max_dim: int = 9):
    """A canonical CSR matrix whose stored values include ``_SPECIAL``."""
    if shape is None:
        shape = (draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim)))
    n_rows, n_cols = shape
    cells = draw(
        st.lists(st.integers(0, n_rows * n_cols - 1), unique=True,
                 max_size=min(40, n_rows * n_cols))
    )
    keys = np.sort(np.array(cells, dtype=np.int64))
    data = np.array(
        draw(st.lists(values, min_size=keys.size, max_size=keys.size)),
        dtype=np.float64,
    )
    rows = keys // n_cols
    return CSRMatrix(_indptr_from_rows(rows, n_rows), keys % n_cols, data, shape)


def _read_only(m: CSRMatrix) -> CSRMatrix:
    out = m.copy()
    for a in out.buffers():
        a.setflags(write=False)
    return out


def _views(m: CSRMatrix, lo: int, hi: int) -> list[CSRMatrix]:
    """Rows ``[lo, hi)`` of ``m`` in every form a caller hands over."""
    return [
        m,
        _read_only(m),
        m.row_block(lo, hi),
        _read_only(m).row_block(lo, hi),
    ]


def _same(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    for a, b in zip(got.buffers(), want.buffers()):
        assert a.dtype == b.dtype and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()
    assert got.data.view(np.int64).tobytes() == want.data.view(np.int64).tobytes()


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_extract_rows_is_the_ranges_gather(m, data):
    lo = data.draw(st.integers(0, m.shape[0]))
    hi = data.draw(st.integers(lo, m.shape[0]))
    for view in _views(m, lo, hi):
        rows = data.draw(
            st.lists(st.integers(0, view.shape[0] - 1), max_size=12)
            if view.shape[0] else st.just([])
        )
        rows += rows[: data.draw(st.integers(0, len(rows)))]  # duplicates
        got = view.extract_rows(rows)
        _same(got, reference_sparse.extract_rows(view, rows))
        assert not np.shares_memory(got.data, view.data)
    # A view whose indptr starts past 0 over the parent's whole arrays: both
    # bodies read absolute entry offsets.
    offset = CSRMatrix(m.indptr[lo : hi + 1], m.indices, m.data, (hi - lo, m.shape[1]))
    rows = list(range(hi - lo))[::-1] * 2
    _same(offset.extract_rows(rows), reference_sparse.extract_rows(offset, rows))


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
@np.errstate(invalid="ignore", over="ignore")
def test_row_normalize_is_the_bincount_norm(m, data):
    lo = data.draw(st.integers(0, m.shape[0]))
    hi = data.draw(st.integers(lo, m.shape[0]))
    got_parent, want_parent = m.copy(), m.copy()
    got = row_normalize_inplace(got_parent.row_block(lo, hi))
    want = reference_sparse.row_normalize_inplace(want_parent.row_block(lo, hi))
    _same(got, want)
    _same(got_parent, want_parent)  # written in place, through the view
    got, want = m.copy(), m.copy()
    for a in got.indptr, got.indices, want.indptr, want.indices:
        a.setflags(write=False)  # only the data is written
    _same(row_normalize_inplace(got), reference_sparse.row_normalize_inplace(want))


@pytest.mark.parametrize(
    "row",
    [
        [1.0, -1.0],  # cancels to 0.0: left as 0.0
        [-0.0, 0.0, -0.0],
        [5e-324, 5e-324],  # subnormal sum: divides, no overflow to inf
        [1e308, 1e308, -1e308],  # inf partway: the sum is inf, not 1e308
        [0.1, 0.2, 0.3, -0.6],  # left-to-right rounding, not reordered
        [1.0] + [1e-16] * 8,  # 1.0 left to right; numpy's 8-way sum is not
        [np.nan, 1.0],
        [np.inf, -np.inf],
    ],
)
@np.errstate(invalid="ignore", over="ignore")
def test_row_normalize_edge_rows(row):
    m = CSRMatrix(
        np.array([0, len(row), len(row)], dtype=np.int64),
        np.arange(len(row)), np.array(row), (2, len(row)),
    )
    got, want = m.copy(), m.copy()
    _same(row_normalize_inplace(got), reference_sparse.row_normalize_inplace(want))


@st.composite
def operand_pairs(draw):
    """Two same-shape matrices that are disjoint, overlapping or cancelling."""
    a = draw(matrices())
    kind = draw(st.sampled_from(["any", "disjoint", "cancel", "partial"]))
    if kind == "cancel":
        return a, CSRMatrix(a.indptr, a.indices, -a.data, a.shape)
    b = draw(matrices(shape=a.shape))
    if kind == "disjoint":
        keep = ~np.isin(b.row_ids() * b.shape[1] + b.indices,
                        a.row_ids() * a.shape[1] + a.indices)
        indptr = reference_sparse.masked_indptr(b.indptr, keep)
        b = CSRMatrix(indptr, b.indices[keep], b.data[keep], b.shape)
    elif kind == "partial":
        b = a.copy()
        flip = np.array(draw(st.lists(st.booleans(), min_size=a.nnz, max_size=a.nnz)), dtype=bool)
        b.data[flip] = -b.data[flip]
    return a, b


@given(operand_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_add_is_scipys_plus(pair, data):
    a, b = pair
    lo = data.draw(st.integers(0, a.shape[0]))
    hi = data.draw(st.integers(lo, a.shape[0]))
    for x, y in zip(_views(a, lo, hi), _views(b, lo, hi)):
        got = x.add(y)
        got.check()
        _same(got, reference_sparse.add(x, y))
        _same(y.add(x), reference_sparse.add(y, x))


def test_add_refuses_a_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        CSRMatrix.identity(2).add(CSRMatrix.identity(3))


_sign_values = st.sampled_from([0.0, -0.0, 1.0, 0.25, 5e-324, -1.0, np.nan, np.inf])


@given(matrices(values=_sign_values), st.integers(1, 3), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
@np.errstate(invalid="ignore")
def test_its_sign_checks_are_the_retired_ones(p, s, seed):
    """One ``min`` replaces the three sign passes: a negative entry raises
    (also beside a NaN) the retired body's ``ValueError``, message and all,
    and nothing else does.  Past the checks the bits differ by design; where
    the retired body selects, the new one selects too, the same count per
    row.  (The retired body's one global prefix sum also gives up on some
    inputs the new one samples: NaN and ``inf`` poison every later row's
    sums there, and ``5e-324`` vanishes behind ``1.0``.)  Whichever body
    gives up, a mask the new one returns on finite weights selects only
    positive entries, ``min(s, positive)`` per row."""

    def outcome(body):
        rng = np.random.default_rng(seed)
        try:
            return body(p, s, rng)
        except (ValueError, RuntimeError) as err:
            return type(err), str(err)

    got = outcome(its_select_mask)
    want = outcome(reference_its.its_select_mask)
    if isinstance(want, tuple) and want[0] is ValueError:
        assert got == want
        return
    assert not (isinstance(got, tuple) and got[0] is ValueError), got
    def counts(m):
        return np.diff(np.r_[0, np.cumsum(m)][p.indptr])

    if not isinstance(want, tuple):
        assert not isinstance(got, tuple), got
        assert np.array_equal(counts(got), counts(want))
    if not isinstance(got, tuple) and np.all(np.isfinite(p.data)):
        positive = p.data > 0
        assert not np.any(got & ~positive)
        assert np.array_equal(counts(got), np.minimum(s, counts(positive)))
