"""``spmm`` (scipy's compiled CSR kernel) against the contract it is held to.

Two oracles live here.  ``_left_to_right_spmm`` *is* the contract of
``repro.sparse.spmm``: every output element is ``((0 + a1*x1) + a2*x2) + ...``
in CSR entry order, which ``np.add.at`` (a strict scatter, no pairwise
blocking) computes — equality with it is *bitwise* (``tobytes()``), since
training losses and the pinned serving digests are functions of these bits.
``_reduceat_spmm`` is the feature-major slabbed body ``spmm`` had until it
moved to the compiled kernel, kept verbatim; it sums each row as ``first +
numpy-pairwise(rest)``, another association, so it is held at ``allclose``.

The transposed product (``spmm(a, x, transpose=True)``, scipy's CSC kernel
over ``a``'s own arrays) is held bitwise to the row-major product with the
built transpose it replaced in the backward pass.

The two Hypothesis properties at the end are the serving contract itself: a
row's bits do not depend on which other rows are in the product, nor a
feature column's on which other columns are — in float64 and in the
model's float32.

A float32 dense operand runs in float32 (``a``'s values rounded once):
``_left_to_right_spmm`` follows that width rule, and ``_float32_loop_spmm``
states the float32 contract a second time as a plain Python loop, plain and
transposed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSRMatrix, spmm

from reference_spgemm import transpose

#: Upper target, in float64 elements (8 MiB), for the ``(f, nnz_slab)``
#: product temporary of ``_reduceat_spmm``.
_SLAB_ELEMS = 1 << 20


def _left_to_right_spmm(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """The summation-order contract, executable (oracle; do not optimize).

    In ``dense``'s width: float32 for a float32 operand (``a``'s values
    rounded once), float64 for any other."""
    dense = np.asarray(dense)
    width = np.float32 if dense.dtype == np.float32 else np.float64
    dense = dense.astype(width, copy=False)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    out = np.zeros((a.shape[0], dense.shape[1]), dtype=width)
    vals = a.data.astype(width)
    np.add.at(out, a.row_ids(), vals[:, None] * dense[a.indices])
    return out[:, 0] if squeeze else out


def _reduceat_spmm(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """The pre-scipy ``spmm`` (oracle; do not optimize)."""
    dense = np.asarray(dense, dtype=np.float64)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got {dense.ndim}-D")
    if a.shape[1] != dense.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {dense.shape}")
    n_features = dense.shape[1]
    out = np.zeros((a.shape[0], n_features), dtype=np.float64)
    if a.nnz:
        dense_t = np.ascontiguousarray(dense.T)
        # CSR entries are already grouped by row, so a segmented reduction
        # over non-empty rows is exact (and far faster than scatter-add).
        nonempty = np.flatnonzero(np.diff(a.indptr) > 0)
        starts = a.indptr[nonempty]
        # Slabs of whole rows: cut at the first row start at or after each
        # multiple of the per-slab entry budget.
        budget = max(1, _SLAB_ELEMS // max(1, n_features))
        cuts = np.unique(
            np.append(
                np.searchsorted(starts, np.arange(0, a.nnz, budget)),
                nonempty.size,
            )
        )
        bounds = np.append(starts, a.nnz)[cuts]
        for i, j, lo, hi in zip(cuts[:-1], cuts[1:], bounds[:-1], bounds[1:]):
            contrib = np.take(dense_t, a.indices[lo:hi], axis=1)
            np.multiply(a.data[lo:hi], contrib, out=contrib)
            out[nonempty[i:j]] = np.add.reduceat(
                contrib, starts[i:j] - lo, axis=1
            ).T
    return out[:, 0] if squeeze else out


def _csr(rng, degrees, n_cols, data=None) -> CSRMatrix:
    """A CSR matrix with the given row degrees and random sorted columns."""
    degrees = np.asarray(degrees, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    indices = np.concatenate(
        [np.sort(rng.choice(n_cols, d, replace=False)) for d in degrees]
        + [np.zeros(0, dtype=np.int64)]
    )
    if data is None:
        data = rng.standard_normal(indices.size)
    return CSRMatrix(indptr, indices, data, (degrees.size, n_cols))


def _float32_loop_spmm(
    a: CSRMatrix, dense: np.ndarray, *, transpose: bool = False
) -> np.ndarray:
    """The float32 contract as a loop over entries (oracle; do not optimize):
    every product and partial sum is one float32 rounding, each output row
    summed from ``+0.0`` in CSR entry order — for the transpose, over the
    rows of a column in ascending order."""
    vals = a.data.astype(np.float32)
    rows, cols = a.row_ids(), a.indices
    if transpose:
        rows, cols = cols, rows
    out = np.zeros((a.shape[1] if transpose else a.shape[0], dense.shape[1]),
                   np.float32)
    for e in np.argsort(rows, kind="stable"):
        out[rows[e]] = out[rows[e]] + vals[e] * dense[cols[e]]
    return out


def _assert_same_bits(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    got, want = spmm(a, dense), _left_to_right_spmm(a, dense)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # Another association of at most a few thousand terms, in got's width.
    tol = 1e-4 if got.dtype == np.float32 else 1e-10
    np.testing.assert_allclose(got, _reduceat_spmm(a, dense), rtol=tol, atol=tol)
    return got


# ---------------------------------------------------------------------- #
# Property: any row-degree profile, same bits as the left-to-right oracle
# ---------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 40), min_size=0, max_size=30),
    n_features=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_bitwise_equal_under_hypothesis(degrees, n_features, seed):
    rng = np.random.default_rng(seed)
    a = _csr(rng, degrees, 48)
    _assert_same_bits(a, rng.standard_normal((48, n_features)))


# ---------------------------------------------------------------------- #
# Property: the transposed product sums source rows in ascending order
# ---------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 40), min_size=0, max_size=30),
    n_features=st.integers(0, 9),
    seed=st.integers(0, 2**16),
)
def test_transposed_bitwise_equal_to_the_built_transpose(
    degrees, n_features, seed
):
    """``a.T @ x`` element ``(c, k)`` is the left-to-right sum over rows
    ``r`` of column ``c`` in ascending order: the CSR transpose's entry
    order, so the bits of ``spmm(transpose(a), x)`` — 2-D and 1-D."""
    rng = np.random.default_rng(seed)
    a = _csr(rng, degrees, 48)
    a.data[rng.random(a.nnz) < 0.1] = 0.0
    x = rng.standard_normal((len(degrees), n_features))
    got = spmm(a, x, transpose=True)
    assert got.flags.c_contiguous and got.shape == (48, n_features)
    assert got.tobytes() == spmm(transpose(a), x).tobytes()
    assert got.tobytes() == _left_to_right_spmm(transpose(a), x).tobytes()
    v = rng.standard_normal(len(degrees))
    assert spmm(a, v, transpose=True).tobytes() == spmm(transpose(a), v).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 40), min_size=0, max_size=30),
    n_features=st.integers(0, 9),
    seed=st.integers(0, 2**16),
)
def test_float32_operand_sums_in_float32(degrees, n_features, seed):
    """A float32 operand stays float32: plain and transposed, every element
    is the strict left-to-right float32 sum of the loop oracle."""
    rng = np.random.default_rng(seed)
    a = _csr(rng, degrees, 48)
    x = rng.standard_normal((48, n_features)).astype(np.float32)
    got = spmm(a, x)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert got.tobytes() == _float32_loop_spmm(a, x).tobytes()
    y = rng.standard_normal((len(degrees), n_features)).astype(np.float32)
    got_t = spmm(a, y, transpose=True)
    assert got_t.dtype == np.float32 and got_t.shape == (48, n_features)
    assert got_t.tobytes() == _float32_loop_spmm(a, y, transpose=True).tobytes()


def test_float32_rounds_the_values_once():
    """``a``'s float64 values are rounded to float32 once, before the
    product: not the float64 product rounded afterwards."""
    value = 1.0 + 2.0**-24 + 2.0**-30  # rounds up to 1 + 2**-23 in float32
    got = spmm(CSRMatrix.from_dense(np.array([[value]])),
               np.array([[3.0]], np.float32))[0, 0]
    assert got == np.float32(value) * np.float32(3.0) == 3.0 + 2.0**-21
    assert np.float32(value * 3.0) == 3.0 + 2.0**-22


def test_transposed_inner_dimension_is_checked(rng):
    a = _csr(rng, [1, 2, 1], 4)
    with pytest.raises(ValueError, match=r"inner dimensions differ: \(4, 3\)"):
        spmm(a, np.ones((4, 2)), transpose=True)
    assert spmm(a, np.ones((3, 2)), transpose=True).shape == (4, 2)


# ---------------------------------------------------------------------- #
# Structure: empty rows, empty matrices, degenerate operands
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "degrees",
    [
        [0, 0, 3, 5, 2],  # empty rows first
        [3, 5, 2, 0, 0],  # ... last
        [0, 4, 0, 0, 7, 0, 1, 0],  # ... interleaved
        [0, 0, 0, 0],  # all-empty matrix
        [],  # zero rows
    ],
    ids=["first", "last", "interleaved", "all-empty", "zero-rows"],
)
def test_empty_rows(rng, degrees):
    a = _csr(rng, degrees, 12)
    out = _assert_same_bits(a, rng.standard_normal((12, 50)))
    empty = np.flatnonzero(np.asarray(degrees) == 0)
    assert not out[empty].any()


def test_one_dimensional_and_single_feature(rng):
    a = _csr(rng, rng.integers(0, 9, 40), 25)
    v = rng.standard_normal(25)
    assert _assert_same_bits(a, v).shape == (40,)
    assert _assert_same_bits(a, v[:, None]).shape == (40, 1)


def test_zero_features(rng):
    a = _csr(rng, [2, 0, 3], 6)
    assert _assert_same_bits(a, np.zeros((6, 0))).shape == (3, 0)


def test_row_degrees_cross_pairwise_blocks(rng):
    """Degrees 1..300: numpy's pairwise sum (the retired body) changes shape
    at 8 and 128; the left-to-right kernel has no such blocks."""
    a = _csr(rng, np.arange(1, 301), 400)
    _assert_same_bits(a, rng.standard_normal((400, 3)))


# ---------------------------------------------------------------------- #
# Long rows and wide operands (where the retired body cut its slabs)
# ---------------------------------------------------------------------- #
def test_row_longer_than_a_slab(rng):
    # 2**20 // 512 features = 2048 entries per slab; the middle row has 2500.
    a = _csr(rng, [4, 2500, 6, 0, 25, 31], 3000)
    _assert_same_bits(a, rng.standard_normal((3000, 512)))


def test_slab_boundary_on_a_row_end(rng):
    # Rows end exactly at 2048 and 4096 entries.
    a = _csr(rng, [1000, 1048, 2048, 15, 15, 7], 2100)
    _assert_same_bits(a, rng.standard_normal((2100, 512)))


def test_features_wider_than_a_slab(rng):
    # Many more features than entries per row.
    a = _csr(rng, [3, 0, 2], 8)
    _assert_same_bits(a, rng.standard_normal((8, 512)))


def test_default_slab_is_crossed(rng):
    """At the real constant: f = 512 leaves 2048 entries per slab."""
    a = _csr(rng, rng.integers(0, 60, 200), 300)
    assert a.nnz > 2 * (_SLAB_ELEMS // 512)
    _assert_same_bits(a, rng.standard_normal((300, 512)))


# ---------------------------------------------------------------------- #
# Values
# ---------------------------------------------------------------------- #
def test_explicit_zeros_and_special_values(rng):
    degrees = rng.integers(1, 20, 30)
    data = rng.standard_normal(int(degrees.sum()))
    data[::5] = 0.0  # explicit zeros stay stored
    data[1::7] = -0.0
    data[2::11] = np.inf
    data[3::13] = -np.inf
    data[4::17] = np.nan
    a = _csr(rng, degrees, 40, data=data)
    x = rng.standard_normal((40, 6))
    x[::3, 0] = 0.0
    x[1::4, 1] = -0.0
    x[2::5, 2] = np.inf
    x[3::6, 3] = np.nan
    with np.errstate(invalid="ignore"):
        out = _assert_same_bits(a, x)
    assert np.isnan(out).any() and np.isinf(out).any()


def test_negative_zero_row_keeps_its_sign():
    """The sum starts from ``+0.0``: ``(0 + -0.0) + -0.0`` is ``+0.0``, where
    the retired body's ``-0.0 + -0.0`` kept the minus."""
    a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
    x = np.array([[-0.0], [-0.0]])
    out = _assert_same_bits(a, x)
    assert not np.signbit(out).any()
    assert np.signbit(_reduceat_spmm(a, x)[0, 0])


# ---------------------------------------------------------------------- #
# Dense operand layouts and dtypes
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "make",
    [
        lambda x: np.asfortranarray(x),
        lambda x: np.repeat(x, 2, axis=1)[:, ::2],  # column-sliced view
        lambda x: np.repeat(x, 3, axis=0)[::3],  # row-sliced view
        lambda x: x.astype(np.float32),
        lambda x: (x * 10).astype(np.int64),
        lambda x: x.tolist(),
    ],
    ids=["fortran", "col-sliced", "row-sliced", "float32", "int64", "list"],
)
def test_dense_operand_forms(rng, make):
    a = _csr(rng, rng.integers(0, 12, 35), 20)
    _assert_same_bits(a, make(rng.standard_normal((20, 7))))


def test_result_is_c_contiguous_and_owned(rng):
    """A transposed view here would change the bits of the ``neigh @ W``
    BLAS call downstream (GEMM picks its kernel from the operand layout)."""
    for degrees in ([3, 2, 4], [0, 0], [3, 0, 4]):
        out = spmm(_csr(rng, degrees, 9), rng.standard_normal((9, 5)))
        assert out.flags.c_contiguous and out.flags.owndata
        assert out.dtype == np.float64


def test_operands_not_modified(rng):
    a = _csr(rng, rng.integers(0, 9, 20), 15)
    x = rng.standard_normal((15, 4))
    before = (a.data.copy(), a.indices.copy(), a.indptr.copy(), x.copy())
    spmm(a, np.asfortranarray(x))
    spmm(a, x)
    for got, want in zip((a.data, a.indices, a.indptr, x), before):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------- #
# Errors: same text as before, from ``spmm`` and from ``a @ dense``
# ---------------------------------------------------------------------- #
def test_error_text_unchanged(rng):
    a = _csr(rng, [1, 2, 1], 4)
    for bad in (np.ones((5, 2)), np.ones((4, 2, 2)), np.ones(3)):
        with pytest.raises(ValueError) as want:
            _reduceat_spmm(a, bad)
        for call in (spmm, CSRMatrix.__matmul__):
            with pytest.raises(ValueError) as got:
                call(a, bad)
            assert str(got.value) == str(want.value), call


# ---------------------------------------------------------------------- #
# The serving contract: rows and feature columns are independent
# ---------------------------------------------------------------------- #
_operands = dict(
    degrees=st.lists(st.integers(0, 40), min_size=1, max_size=30),
    n_features=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    dtype=st.sampled_from([np.float64, np.float32]),
    data=st.data(),
)


@settings(max_examples=60, deadline=None)
@given(**_operands)
def test_a_rows_bits_do_not_depend_on_the_other_rows(
    degrees, n_features, seed, dtype, data
):
    """What exact serving and the embedding cache rest on: a vertex served
    alone, in a micro-batch or by ``layerwise_inference`` gets the same row."""
    rng = np.random.default_rng(seed)
    a = _csr(rng, degrees, 48)
    x = rng.standard_normal((48, n_features)).astype(dtype)
    rows = data.draw(st.lists(st.integers(0, len(degrees) - 1), max_size=12))
    got = spmm(a.extract_rows(rows), x)
    assert got.tobytes() == spmm(a, x)[rows].tobytes()


@settings(max_examples=60, deadline=None)
@given(**_operands)
def test_a_columns_bits_do_not_depend_on_the_other_columns(
    degrees, n_features, seed, dtype, data
):
    """No lane of the kernel's vectorized ``y += a * x`` may round
    differently from its scalar tail."""
    rng = np.random.default_rng(seed)
    a = _csr(rng, degrees, 48)
    x = rng.standard_normal((48, n_features)).astype(dtype)
    cols = data.draw(st.lists(st.integers(0, n_features - 1), max_size=12))
    got = spmm(a, x[:, cols])
    assert got.tobytes() == spmm(a, x)[:, cols].tobytes()
