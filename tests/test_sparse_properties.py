"""Property-based tests (hypothesis) on the sparse substrate's invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    CSRMatrix,
    col_selector,
    row_normalize,
    row_selector,
    spgemm,
    spmm,
    vstack,
)
from repro.sparse.csr import _indptr_from_rows, _masked_indptr, _ranges

import reference_its
from reference_spgemm import transpose


@st.composite
def coo_matrices(draw, max_dim: int = 12, max_nnz: int = 40):
    """Random COO triplets (possibly with duplicates) plus a shape."""
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return np.array(rows), np.array(cols), np.array(vals), (n_rows, n_cols)


@st.composite
def csr_matrices(draw, max_dim: int = 12, max_nnz: int = 40):
    rows, cols, vals, shape = draw(coo_matrices(max_dim, max_nnz))
    return CSRMatrix.from_coo(rows, cols, vals, shape)


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_from_coo_matches_dense_accumulation(args):
    rows, cols, vals, shape = args
    m = CSRMatrix.from_coo(rows, cols, vals, shape)
    m.check()
    ref = np.zeros(shape)
    np.add.at(ref, (rows.astype(int), cols.astype(int)), vals)
    assert np.allclose(m.to_dense(), ref)


@given(csr_matrices())
@settings(max_examples=60, deadline=None)
def test_transpose_involution(m):
    assert transpose(transpose(m)).equal(m)
    assert np.allclose(transpose(m).to_dense(), m.to_dense().T)
    assert np.array_equal(m.to_scipy(transpose=True).toarray(), m.to_dense().T)


@given(st.integers(1, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_col_selector_is_the_row_selector_transpose(n, data):
    """``Q_C`` built directly is bitwise the transpose it replaced, on
    unsorted, duplicate and empty vertex lists."""
    vertices = np.array(
        data.draw(st.lists(st.integers(0, n - 1), max_size=20)), dtype=np.int64
    )
    got = col_selector(vertices, n)
    got.check()
    want = transpose(row_selector(vertices, n))
    assert got.shape == want.shape
    for x, y in zip(got.buffers(), want.buffers()):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@given(csr_matrices(max_dim=8), csr_matrices(max_dim=8))
@settings(max_examples=60, deadline=None)
def test_spgemm_matches_dense(a, b):
    if a.shape[1] != b.shape[0]:
        # Pad/truncate b's row space so the product is defined.
        rows, cols, vals = b.to_coo()
        keep = rows < a.shape[1]
        b = CSRMatrix.from_coo(
            rows[keep], cols[keep], vals[keep], (a.shape[1], b.shape[1])
        )
    out = spgemm(a, b)
    out.check()
    assert np.allclose(out.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-9)


@given(csr_matrices(max_dim=10), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_spmm_matches_dense(a, width):
    x = np.linspace(-1, 1, a.shape[1] * width).reshape(a.shape[1], width)
    assert np.allclose(spmm(a, x), a.to_dense() @ x, atol=1e-9)


@given(st.lists(csr_matrices(max_dim=6), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_vstack_preserves_blocks(mats):
    n_cols = mats[0].shape[1]
    mats = [
        m if m.shape[1] == n_cols else CSRMatrix.zeros((m.shape[0], n_cols))
        for m in mats
    ]
    stacked = vstack(mats)
    stacked.check()
    offset = 0
    for m in mats:
        assert stacked.row_block(offset, offset + m.shape[0]).equal(m)
        offset += m.shape[0]


@given(csr_matrices())
@settings(max_examples=60, deadline=None)
def test_row_normalize_is_stochastic_or_empty(m):
    # Normalization needs non-negative weights, as in sampling use.
    m = CSRMatrix(m.indptr, m.indices, np.abs(m.data), m.shape)
    sums = row_normalize(m).to_dense().sum(axis=1)
    for i, s in enumerate(sums):
        if m.row(i)[1].sum() > 0:
            assert abs(s - 1.0) < 1e-9
        else:
            assert abs(s) < 1e-12


@given(csr_matrices(max_dim=10))
@settings(max_examples=60, deadline=None)
def test_extract_rows_agrees_with_dense_indexing(m):
    rows = np.arange(m.shape[0] - 1, -1, -1)  # reversed order
    sub = m.extract_rows(rows)
    assert np.allclose(sub.to_dense(), m.to_dense()[rows])


@given(csr_matrices(max_dim=10))
@settings(max_examples=60, deadline=None)
def test_add_commutes(m):
    other = CSRMatrix.from_coo(
        m.row_ids(), m.indices, -0.5 * m.data, m.shape
    )
    left = m.add(other).to_dense()
    right = other.add(m).to_dense()
    assert np.allclose(left, right)
    assert np.allclose(left, 0.5 * m.to_dense())


@given(
    st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=12)
)
@settings(max_examples=100, deadline=None)
def test_ranges_is_the_two_repeat_form(pairs):
    """``_ranges`` with one ``repeat`` is bitwise its two-``repeat`` form."""
    starts = np.array([s for s, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    got, want = _ranges(starts, counts), reference_its.ranges(starts, counts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(csr_matrices(max_dim=10), st.data())
@settings(max_examples=100, deadline=None)
def test_extract_rows_is_the_two_repeat_gather(m, data):
    """The selector-gather's row copy, on repeated and reordered rows."""
    rows = np.array(
        data.draw(st.lists(st.integers(0, m.shape[0] - 1), max_size=15)),
        dtype=np.int64,
    )
    got = m.extract_rows(rows)
    got.check()
    starts, counts = m.indptr[rows], m.indptr[rows + 1] - m.indptr[rows]
    take = reference_its.ranges(starts, counts)
    assert got.indices.tobytes() == m.indices[take].tobytes()
    assert got.data.tobytes() == m.data[take].tobytes()


@given(csr_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_masked_indptr_is_the_row_id_count(m, data):
    """The prefix-count row pointer equals the row-id ``bincount`` one, on
    the whole matrix and on a row block's slice of its ``indptr``."""
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=m.nnz, max_size=m.nnz)),
        dtype=bool,
    )
    want = _indptr_from_rows(m.row_ids()[mask], m.shape[0])
    assert _masked_indptr(m.indptr, mask).tobytes() == want.tobytes()
    lo = data.draw(st.integers(0, m.shape[0]))
    hi = data.draw(st.integers(lo, m.shape[0]))
    a, b = m.indptr[lo], m.indptr[hi]
    block = m.row_block(lo, hi)
    want = _indptr_from_rows(block.row_ids()[mask[a:b]], hi - lo)
    got = _masked_indptr(m.indptr[lo : hi + 1], mask[a:b])
    assert got.tobytes() == want.tobytes()
