"""``stable_matmul`` (fixed-shape 32-row BLAS GEMMs) against its contract.

The contract (docstring of ``repro.gnn.layers.stable_matmul``) is what exact
serving, the embedding cache, ``layerwise_inference`` and every fleet shape
rest on: a row's bits depend on its own values and ``w`` only — not on how
many rows share the call, where in a block the row lands, which rows sit
beside it, nor how many threads BLAS runs.

``_einsum_matmul`` is the body ``stable_matmul`` had before it moved to BLAS,
kept verbatim as the oracle: numpy's scalar sum-of-products loop, which sums
each element strictly left to right over the inner dimension (bitwise equal
to ``np.add.at`` over the products whenever ``w`` has two or more columns;
with one column numpy takes its dot-product loop instead).  BLAS promises no
such order, so the GEMM is held to it at ``allclose``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gnn.layers import _ROWS, stable_matmul

TESTS = Path(__file__).resolve().parent


def _einsum_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The pre-BLAS ``stable_matmul`` (oracle; do not optimize)."""
    return np.einsum("ij,jk->ik", x, w, optimize=False)


def _left_to_right_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``((0 + x1*w1) + x2*w2) + ...`` per element (oracle; do not optimize)."""
    m, k = x.shape
    out = np.zeros((m, w.shape[1]))
    products = (x[:, :, None] * w).reshape(m * k, w.shape[1])
    np.add.at(out, np.repeat(np.arange(m), k), products)
    return out


# ---------------------------------------------------------------------- #
# The contract: a row's bits do not depend on the other rows
# ---------------------------------------------------------------------- #
#: Row counts at the block edges: none, the gemv-sized one, one block ± 1,
#: two blocks ± 1.
_EDGES = [0, 1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS - 1, 2 * _ROWS,
          2 * _ROWS + 1]


@settings(max_examples=80, deadline=None)
@given(
    m=st.sampled_from(_EDGES) | st.integers(0, 4 * _ROWS),
    k=st.integers(1, 80),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_a_rows_bits_do_not_depend_on_the_other_rows(m, k, n, seed, data):
    """``stable_matmul(x[r], w) == stable_matmul(x, w)[r]`` bitwise for any
    index array: permutations, duplicates, subsets, single rows."""
    rng = np.random.default_rng(seed)
    x, w = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    rows = data.draw(
        st.permutations(range(m))
        | st.lists(st.integers(0, m - 1), max_size=3 * _ROWS)
    ) if m else []
    got = stable_matmul(x[rows], w)
    assert got.tobytes() == stable_matmul(x, w)[rows].tobytes()


def _unaligned(x: np.ndarray) -> np.ndarray:
    """A float64 copy of ``x`` starting one byte into its buffer."""
    out = np.zeros(x.nbytes + 1, dtype=np.uint8)[1:].view(np.float64)
    out = out.reshape(x.shape)
    out[...] = x
    assert not out.flags.aligned
    return out


@pytest.mark.parametrize(
    "make",
    [
        np.asfortranarray,
        lambda x: np.repeat(x, 2, axis=1)[:, ::2],  # column-sliced view
        lambda x: np.repeat(x, 3, axis=0)[::3],  # row-sliced view
        lambda x: x[5:],  # offset view: rows land in other block positions
        lambda x: x.astype(np.float32),
        lambda x: (x * 10).astype(np.int64),
        _unaligned,
    ],
    ids=["fortran", "col-sliced", "row-sliced", "offset", "float32", "int64",
         "unaligned"],
)
def test_operand_forms_give_the_bits_of_the_float64_c_copy(rng, make):
    x = make(rng.standard_normal((75, 20)))
    w = rng.standard_normal((20, 9))
    want = stable_matmul(np.ascontiguousarray(x, dtype=np.float64), w)
    assert stable_matmul(x, w).tobytes() == want.tobytes()


# ---------------------------------------------------------------------- #
# Numerics: close to plain ``@`` and to the retired einsum body
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "m, k, n",
    [(0, 5, 3), (1, 512, 16), (31, 7, 1), (33, 100, 64), (300, 100, 512)],
)
def test_close_to_plain_matmul_and_the_retired_einsum(rng, m, k, n):
    x, w = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    got = stable_matmul(x, w)
    assert got.shape == (m, n) and got.dtype == np.float64
    # Other associations of at most 512 float64 products.
    np.testing.assert_allclose(got, x @ w, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(got, _einsum_matmul(x, w), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("m, k, n", [(1, 300, 2), (17, 64, 7), (40, 100, 33)])
def test_the_retired_einsum_sums_strictly_left_to_right(rng, m, k, n):
    x = rng.standard_normal((m, k)) * 1e3
    w = rng.standard_normal((k, n))
    assert _einsum_matmul(x, w).tobytes() == _left_to_right_matmul(x, w).tobytes()


# ---------------------------------------------------------------------- #
# Scope: the bits do not depend on the BLAS thread count
# ---------------------------------------------------------------------- #
def _digest() -> str:
    """Products big enough for OpenBLAS to split across threads."""
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for m, k, n in ((300, 100, 512), (100, 512, 512), (33, 64, 7)):
        x, w = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        h.update(stable_matmul(x, w).tobytes())
    return h.hexdigest()


def test_digest_does_not_depend_on_the_blas_thread_count():
    """The e2e harness pins BLAS to one thread; tests and users do not.  The
    thread count is read once, when numpy loads BLAS, so each count gets its
    own interpreter."""
    import repro

    path = os.pathsep.join([str(Path(repro.__file__).parents[1]), str(TESTS)])
    digests = {
        subprocess.run(
            [sys.executable, "-c",
             "from test_stable_matmul import _digest; print(_digest())"],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.strip()
        for threads in ("1", "2")
    }
    assert digests == {_digest()}
