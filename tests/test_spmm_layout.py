"""``spmm`` (feature-major, slabbed) against the row-major body it replaced.

``_row_major_spmm`` below is the previous body of ``repro.sparse.spmm.spmm``,
kept verbatim as the oracle.  Both reduce every ``(row, feature)`` output as
one ``np.add.reduceat`` segment over the same products in the same order —
the rewrite only makes each segment contiguous and bounds the temporary — so
the results must be equal *bitwise* (``tobytes()``, not ``allclose``):
training losses and the pinned serving digest are functions of these bits.
"""

from __future__ import annotations

from importlib import import_module
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSRMatrix, spmm

# ``repro.sparse.spmm`` the attribute is the function (the package re-exports
# it over the submodule's name); the slab constant lives on the module.
spmm_module = import_module("repro.sparse.spmm")


def _row_major_spmm(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """The pre-rewrite ``spmm`` (oracle; do not optimize)."""
    dense = np.asarray(dense, dtype=np.float64)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got {dense.ndim}-D")
    if a.shape[1] != dense.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {dense.shape}")
    out = np.zeros((a.shape[0], dense.shape[1]), dtype=np.float64)
    if a.nnz:
        contrib = a.data[:, None] * dense[a.indices]
        # CSR entries are already grouped by row, so a segmented reduction
        # over non-empty rows is exact (and far faster than scatter-add).
        nonempty = np.flatnonzero(np.diff(a.indptr) > 0)
        out[nonempty] = np.add.reduceat(contrib, a.indptr[nonempty], axis=0)
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


def _assert_same_bits(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    got, want = spmm(a, dense), _row_major_spmm(a, dense)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    return got


@pytest.fixture
def small_slab(monkeypatch):
    """Shrink the slab so small inputs run through many slabs."""
    monkeypatch.setattr(spmm_module, "_SLAB_ELEMS", 300)


# ---------------------------------------------------------------------- #
# Property: any row-degree profile, any slab size, same bits
# ---------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 40), min_size=0, max_size=30),
    n_features=st.integers(1, 9),
    slab=st.sampled_from([1, 7, 64, 300, 1 << 20]),
    seed=st.integers(0, 2**16),
)
def test_bitwise_equal_under_hypothesis(degrees, n_features, slab, seed):
    rng = np.random.default_rng(seed)
    a = _csr(rng, degrees, 48)
    x = rng.standard_normal((48, n_features))
    # Not the ``small_slab`` fixture: hypothesis runs many examples per
    # fixture instance, and the slab size is itself drawn here.
    with mock.patch.object(spmm_module, "_SLAB_ELEMS", slab):
        _assert_same_bits(a, x)


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
def test_empty_rows(rng, small_slab, degrees):
    a = _csr(rng, degrees, 12)
    out = _assert_same_bits(a, rng.standard_normal((12, 50)))
    empty = np.flatnonzero(np.asarray(degrees) == 0)
    assert not out[empty].any()


def test_one_dimensional_and_single_feature(rng, small_slab):
    a = _csr(rng, rng.integers(0, 9, 40), 25)
    v = rng.standard_normal(25)
    assert _assert_same_bits(a, v).shape == (40,)
    assert _assert_same_bits(a, v[:, None]).shape == (40, 1)


def test_zero_features(rng):
    a = _csr(rng, [2, 0, 3], 6)
    assert _assert_same_bits(a, np.zeros((6, 0))).shape == (3, 0)


def test_row_degrees_cross_pairwise_blocks(rng):
    """Degrees 1..300: numpy's pairwise sum changes shape at 8 and 128."""
    a = _csr(rng, np.arange(1, 301), 400)
    _assert_same_bits(a, rng.standard_normal((400, 3)))


# ---------------------------------------------------------------------- #
# Slabs
# ---------------------------------------------------------------------- #
def test_row_longer_than_a_slab(rng, small_slab):
    # 300 // 10 features = 30 entries per slab; the middle row has 200.
    a = _csr(rng, [4, 200, 6, 0, 25, 31], 256)
    _assert_same_bits(a, rng.standard_normal((256, 10)))


def test_slab_boundary_on_a_row_end(rng, small_slab):
    # Budget 30 entries: rows end exactly at 30, 60 and 90.
    a = _csr(rng, [10, 20, 30, 15, 15, 7], 64)
    _assert_same_bits(a, rng.standard_normal((64, 10)))


def test_features_wider_than_a_slab(rng, small_slab):
    # 300 // 512 == 0: the budget floors at one entry per slab.
    a = _csr(rng, [3, 0, 2], 8)
    _assert_same_bits(a, rng.standard_normal((8, 512)))


def test_default_slab_is_crossed(rng):
    """At the real constant: f = 512 leaves 2048 entries per slab."""
    a = _csr(rng, rng.integers(0, 60, 200), 300)
    assert a.nnz > 2 * (spmm_module._SLAB_ELEMS // 512)
    _assert_same_bits(a, rng.standard_normal((300, 512)))


# ---------------------------------------------------------------------- #
# Values
# ---------------------------------------------------------------------- #
def test_explicit_zeros_and_special_values(rng, small_slab):
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


def test_negative_zero_row_keeps_its_sign(small_slab):
    a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
    out = _assert_same_bits(a, np.array([[-0.0], [-0.0]]))
    assert np.signbit(out[0, 0]) and not np.signbit(out[1, 0])


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
def test_dense_operand_forms(rng, small_slab, make):
    a = _csr(rng, rng.integers(0, 12, 35), 20)
    _assert_same_bits(a, make(rng.standard_normal((20, 7))))


def test_result_is_c_contiguous_and_owned(rng):
    """A transposed view here would change the bits of the ``neigh @ W``
    BLAS call downstream (GEMM picks its kernel from the operand layout)."""
    for degrees in ([3, 2, 4], [0, 0], [3, 0, 4]):
        out = spmm(_csr(rng, degrees, 9), rng.standard_normal((9, 5)))
        assert out.flags.c_contiguous and out.flags.owndata
        assert out.dtype == np.float64


def test_operands_not_modified(rng, small_slab):
    a = _csr(rng, rng.integers(0, 9, 20), 15)
    x = rng.standard_normal((15, 4))
    before = (a.data.copy(), a.indices.copy(), a.indptr.copy(), x.copy())
    spmm(a, np.asfortranarray(x))  # already-transposed-contiguous operand
    spmm(a, x)
    for got, want in zip((a.data, a.indices, a.indptr, x), before):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------- #
# Errors: same text as before, from every backend
# ---------------------------------------------------------------------- #
def test_error_text_unchanged(rng):
    from repro.sparse import KERNELS

    a = _csr(rng, [1, 2, 1], 4)
    for bad in (np.ones((5, 2)), np.ones((4, 2, 2)), np.ones(3)):
        with pytest.raises(ValueError) as want:
            _row_major_spmm(a, bad)
        for name in KERNELS.names():
            with pytest.raises(ValueError) as got:
                KERNELS.get(name).spmm(a, bad)
            assert str(got.value) == str(want.value), name
