"""The one SpGEMM against its contract and against the bodies it replaced.

:func:`repro.sparse.spgemm` writes its bit contract into its docstring —
*order*, *zeros*, *gather* — and this file holds it:

* bitwise (``tobytes()``), with Hypothesis on weighted operands — negative
  weights, stored zeros and exact cancellations included — against
  ``reference_spgemm.spgemm_sequential`` minus its zeros: every entry's
  partial products in (a-entry, b-entry) order, summed strictly left to
  right from ``0.0``, exact-zero sums absent;
* within ``CSRMatrix.equal``'s tolerance against the retired ``esc`` and
  ``hash`` bodies.  ``hash`` is a left-to-right sum too (bitwise so, checked
  here) but keeps exact zeros; ``esc`` keeps them and sums an entry's third
  and later products pairwise.

The random operands are weighted on purpose: products of unit weights sum
exact integers, and any order would pass.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSRMatrix, get_kernel, spgemm, spmm, sprand

from reference_spgemm import spgemm_esc, spgemm_hash, spgemm_sequential

#: The kernel and the retired bodies, by the names they were selected by
#: (the kernel is scipy's ``csr_matmat``).
BODIES = {"esc": spgemm_esc, "hash": spgemm_hash, "scipy": spgemm}


def _same_bytes(x: CSRMatrix, y: CSRMatrix) -> bool:
    return (
        x.shape == y.shape
        and x.indptr.tobytes() == y.indptr.tobytes()
        and x.indices.tobytes() == y.indices.tobytes()
        and x.data.tobytes() == y.data.tobytes()
    )


@st.composite
def csr_pairs(draw, max_dim: int = 14, max_nnz: int = 60):
    """A multiplication-compatible (a, b) pair with adversarial features:
    duplicate COO entries, explicit zeros, negative values (cancellation
    fodder), empty rows/columns."""
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))

    def one(rows, cols):
        nnz = draw(st.integers(0, max_nnz))
        r = draw(st.lists(st.integers(0, rows - 1), min_size=nnz, max_size=nnz))
        c = draw(st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz))
        v = draw(
            st.lists(
                st.one_of(
                    st.floats(-8, 8, allow_nan=False, allow_infinity=False),
                    st.just(0.0),  # explicit zeros survive from_coo
                    st.integers(-4, 4).map(float),  # exact cancellations
                ),
                min_size=nnz,
                max_size=nnz,
            )
        )
        return CSRMatrix.from_coo(
            np.array(r, dtype=np.int64),
            np.array(c, dtype=np.int64),
            np.array(v),
            (rows, cols),
        )

    return one(m, k), one(k, n)


@given(csr_pairs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_spgemm_matches_reference_bitwise(pair):
    """Order and zeros: the kernel's bytes are the contract's — the
    left-to-right sums, exact zeros dropped."""
    a, b = pair
    out = spgemm(a, b)
    out.check()
    assert _same_bytes(out, spgemm_sequential(a, b).prune_zeros())


@given(csr_pairs())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_spgemm_backends_agree(pair):
    """The retired bodies agree with the kernel within tolerance; the
    ``hash`` body is the sequential scatter bitwise, zeros kept, and the
    ``esc`` body stores exactly the entries the scatter does."""
    a, b = pair
    ref = spgemm(a, b)
    sequential = spgemm_sequential(a, b)
    for name, body in BODIES.items():
        out = body(a, b)
        out.check()
        assert out.shape == ref.shape
        assert out.equal(ref, 1e-9), name
    assert _same_bytes(spgemm_hash(a, b), sequential)
    esc = spgemm_esc(a, b)
    assert esc.indptr.tobytes() == sequential.indptr.tobytes()
    assert esc.indices.tobytes() == sequential.indices.tobytes()


def test_three_products_are_summed_left_to_right():
    """The order clause, pinned: ``(1e16 + 1) + 1`` rounds back to
    ``1e16`` left to right, where the retired ``esc`` body's first product
    plus numpy's pairwise rest, ``1e16 + (1 + 1)``, kept the ``2``."""
    a = CSRMatrix.from_dense(np.ones((1, 3)))
    b = CSRMatrix.from_dense(np.array([[1e16], [1.0], [1.0]]))
    assert spgemm(a, b).data.tolist() == [1e16]
    assert spgemm_sequential(a, b).data.tolist() == [1e16]
    assert spgemm_esc(a, b).data.tolist() == [1e16 + 2.0]


def test_the_kernel_drops_exact_zero_sums():
    """The zero clause: a cancellation and a product of stored zeros are
    both absent from the kernel's output — on the general path and on the
    gather, which drops ``b``'s stored ``0.0`` and ``-0.0`` — where the
    retired ``esc`` body kept an explicit ``0.0`` for each."""
    a = CSRMatrix.from_coo([0, 0, 1], [0, 1, 2], [1.0, -1.0, 0.0], (2, 3))
    b = CSRMatrix.from_coo([0, 1, 2], [0, 0, 1], [2.0, 2.0, 5.0], (3, 2))
    assert spgemm(a, b).nnz == 0
    esc = spgemm_esc(a, b)
    assert (esc.indices.tolist(), esc.data.tolist()) == ([0, 1], [0.0, 0.0])
    assert esc.equal(spgemm(a, b))
    stored = CSRMatrix(
        np.array([0, 3, 4]), np.array([0, 1, 2, 1]),
        np.array([0.0, 3.0, -0.0, 0.0]), (2, 3),
    )
    selector = CSRMatrix.identity(2)
    gathered = spgemm(selector, stored)
    assert (gathered.indptr.tolist(), gathered.indices.tolist()) == (
        [0, 1, 1], [1],
    )
    weighted = CSRMatrix(selector.indptr, selector.indices, [1.0, 2.0], (2, 2))
    assert spgemm(weighted, stored).indptr.tolist() == [0, 1, 1]
    stored.data[3] = np.nan  # not a zero: both paths keep it
    for left in (selector, weighted):
        assert spgemm(left, stored).indptr.tolist() == [0, 1, 2]


@given(csr_pairs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_spmm_backends_agree(pair):
    """``a @ dense`` is :func:`spmm`, bit for bit, 2-D and 1-D."""
    a, _ = pair
    rng = np.random.default_rng(a.nnz)
    x = rng.standard_normal((a.shape[1], 3))
    assert (a @ x).tobytes() == spmm(a, x).tobytes()
    v = rng.standard_normal(a.shape[1])
    assert (a @ v).tobytes() == spmm(a, v).tobytes()


class TestSeededSweep:
    """Deterministic density/shape sweep (no hypothesis), every body."""

    def test_density_sweep(self):
        rng = np.random.default_rng(12345)
        for density in (0.0, 0.01, 0.1, 0.5, 1.0):
            for m, k, n in ((1, 1, 1), (5, 9, 3), (40, 17, 28)):
                a = sprand(m, k, density, rng)
                b = sprand(k, n, density, rng)
                ref = spgemm(a, b)
                assert _same_bytes(ref, spgemm_sequential(a, b).prune_zeros())
                for name, body in BODIES.items():
                    out = body(a, b)
                    out.check()
                    assert out.equal(ref, 1e-9), (name, density, (m, k, n))

    @pytest.mark.parametrize("kernel", list(BODIES))
    def test_zero_row_and_zero_col_products(self, kernel):
        """Degenerate shapes: (0, k) @ (k, n), (m, k) @ (k, 0), (0, 0)."""
        ones = CSRMatrix.from_dense(np.ones((4, 3)))
        for a, b in (
            (CSRMatrix.zeros((0, 4)), CSRMatrix.from_dense(np.ones((4, 3)))),
            (ones, CSRMatrix.zeros((3, 0))),
            (CSRMatrix.zeros((0, 0)), CSRMatrix.zeros((0, 0))),
            (CSRMatrix.zeros((2, 5)), CSRMatrix.zeros((5, 2))),
        ):
            out = BODIES[kernel](a, b)
            out.check()
            assert out.shape == (a.shape[0], b.shape[1])
            assert out.nnz == 0

    @pytest.mark.parametrize("kernel", list(BODIES))
    def test_inner_dim_mismatch_raises(self, kernel):
        a = CSRMatrix.identity(3)
        b = CSRMatrix.identity(4)
        with pytest.raises(ValueError, match="inner dimensions differ"):
            BODIES[kernel](a, b)

    @pytest.mark.parametrize("kernel", list(BODIES))
    def test_cancellation_and_prune(self, kernel):
        """a @ b where products cancel exactly: a body may keep an explicit
        zero (esc, hash) or drop it (scipy); equal() sees through both, and
        prune_zeros restores canonical form."""
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [2.0, -1.0]]))
        b = CSRMatrix.from_dense(np.array([[3.0, 1.0], [-3.0, 1.0]]))
        out = BODIES[kernel](a, b)
        out.check()
        dense = a.to_dense() @ b.to_dense()
        assert np.allclose(out.to_dense(), dense)
        assert out.nnz == (3 if kernel == "scipy" else 4)
        pruned = out.prune_zeros(1e-12)
        assert pruned.equal(CSRMatrix.from_dense(dense), 1e-9)

    @pytest.mark.parametrize("kernel", list(BODIES))
    def test_hypersparse_selector_product(self, kernel):
        """The LADIES shape: a tall hypersparse column selector."""
        rng = np.random.default_rng(7)
        a_r = sprand(6, 400, 0.05, rng)
        sampled = np.sort(rng.choice(400, 11, replace=False))
        from repro.sparse import col_selector

        q_c = col_selector(sampled, 400)
        ref = spgemm_sequential(a_r, q_c)
        out = BODIES[kernel](a_r, q_c)
        out.check()
        assert out.equal(ref, 1e-9)

    def test_duplicate_heavy_product(self):
        """Indicator-row Q A: many batch vertices share neighbors, so the
        expanded intermediate is far larger than the output — and, on unit
        weights, every body returns the same bytes."""
        from repro.graphs import rmat
        from repro.sparse import indicator_rows

        rng = np.random.default_rng(3)
        adj = rmat(9, 8, rng)
        batches = [rng.choice(adj.shape[0], 64, replace=False) for _ in range(4)]
        q = indicator_rows(batches, adj.shape[0])
        ref = spgemm(q, adj)
        assert ref.nnz < sum(adj.nnz_per_row()[q.indices])
        for name, body in BODIES.items():
            assert _same_bytes(body(q, adj), ref), name


class TestHashKernelInternals:
    """The retired hash body stays a sound oracle."""

    def test_hash_matches_esc_exactly_on_integers(self):
        """Integer-valued data: all summation orders are exact, so the
        hash body must match the esc body and the kernel bit for bit, not
        just within tol."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, k, n = rng.integers(1, 25, 3)
            a = sprand(m, k, 0.3, rng, values="ones")
            b = sprand(k, n, 0.3, rng, values="ones")
            assert _same_bytes(spgemm_hash(a, b), spgemm_esc(a, b))
            assert _same_bytes(spgemm_hash(a, b), spgemm(a, b))

    def test_high_collision_table(self):
        """Dense-ish product: table load approaches its 50% bound."""
        rng = np.random.default_rng(13)
        a = sprand(30, 30, 0.9, rng)
        b = sprand(30, 30, 0.9, rng)
        assert spgemm_hash(a, b).equal(spgemm(a, b), 1e-9)


class TestRegistryAndDispatch:
    """What is left of kernel selection: one object, reached at call time."""

    def test_get_kernel_resolution(self):
        assert get_kernel("esc") is get_kernel("esc")
        for gone in ("hash", "scipy", "compiled"):
            with pytest.raises(ValueError, match="'esc' is the only"):
                get_kernel(gone)

    def test_every_product_reaches_the_kernel_at_call_time(self, monkeypatch):
        """A wrapper set on the kernel's class after the sampler exists —
        what the e2e tracer does — sees ``spgemm``, ``a @ b`` and every
        product a sampler runs, local, recorded and 1.5D."""
        from functools import partial

        from repro.comm import Communicator, ProcessGrid
        from repro.core import LadiesSampler, SageSampler
        from repro.distributed import (
            partitioned_bulk_sampling,
            record_sampling,
        )
        from repro.graphs import rmat
        from repro.partition import BlockRows

        rng = np.random.default_rng(4)
        adj = rmat(7, 6, rng)
        batches = [rng.choice(adj.shape[0], 8, replace=False) for _ in range(2)]
        samplers = (SageSampler(), LadiesSampler())
        calls = []
        cls = type(get_kernel("esc"))
        real = cls.spgemm
        monkeypatch.setattr(
            cls, "spgemm", lambda self, a, b: calls.append(1) or real(self, a, b)
        )
        a, b = sprand(5, 5, 0.5, rng), sprand(5, 5, 0.5, rng)
        spgemm(a, b)
        a @ b
        assert len(calls) == 2
        for sampler in samplers:
            for run in (sampler.sample_bulk, partial(record_sampling, sampler)):
                del calls[:]
                run(adj, batches, (3,), np.random.default_rng(0))
                assert calls, (sampler.name, run)
            del calls[:]
            grid = ProcessGrid(2, 1)
            partitioned_bulk_sampling(
                Communicator(2), grid, sampler,
                BlockRows.partition(adj, grid.n_rows), batches, (3,),
            )
            assert calls, sampler.name

    def test_graceful_without_scipy(self):
        """scipy is a declared requirement (``spmm`` runs on its CSR
        kernel): importing ``repro.sparse`` without it fails at once with
        an error that names the missing package — never a numpy fallback
        with other bits."""
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "try:\n"
            "    import repro.sparse\n"
            "except ImportError as err:\n"
            "    assert 'scipy' in str(err), err\n"
            "    print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout
