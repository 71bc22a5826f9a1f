"""Cross-backend equivalence: every registered kernel computes the same thing.

The KERNELS registry promises that backends are semantically
interchangeable; these tests enforce it.  Random CSR matrices — varied
shape and density, empty rows, explicit zeros, duplicate-producing
products, cancellations — must give identical results (up to float
summation order) under every registered backend, both via hypothesis
strategies and a seeded deterministic sweep that pins the awkward shapes
(zero rows, zero columns, hypersparse selectors).

The suite iterates ``KERNELS.names()`` at run time, so it automatically
covers newly registered plugin backends.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    CSRMatrix,
    KERNELS,
    KernelBackend,
    default_kernel,
    get_kernel,
    set_default_kernel,
    spgemm,
    spgemm_hash,
    spmm,
    sprand,
    use_kernel,
)

KERNEL_NAMES = KERNELS.names()


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
@settings(max_examples=120, deadline=None, derandomize=True)
def test_spgemm_backends_agree(pair):
    a, b = pair
    ref = spgemm(a, b)
    for name in KERNEL_NAMES:
        out = KERNELS.get(name).spgemm(a, b)
        out.check()
        assert out.shape == ref.shape
        assert out.equal(ref, 1e-9), f"kernel {name} diverged"


@given(csr_pairs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_spmm_backends_agree(pair):
    a, _ = pair
    rng = np.random.default_rng(a.nnz)
    x = rng.standard_normal((a.shape[1], 3))
    ref = spmm(a, x)
    for name in KERNEL_NAMES:
        out = KERNELS.get(name).spmm(a, x)
        assert out.shape == ref.shape
        assert np.allclose(out, ref, atol=1e-9), f"kernel {name} diverged"
    # 1-D right operand round-trips through every backend too.
    v = rng.standard_normal(a.shape[1])
    for name in KERNEL_NAMES:
        assert np.allclose(KERNELS.get(name).spmm(a, v), spmm(a, v))


@given(csr_pairs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sddmm_backends_agree(pair):
    pattern, _ = pair
    rng = np.random.default_rng(pattern.nnz + 1)
    x = rng.standard_normal((pattern.shape[0], 4))
    y = rng.standard_normal((pattern.shape[1], 4))
    ref = KERNELS.get("esc").sddmm(pattern, x, y)
    ref.check()
    assert ref.nnz == pattern.nnz  # structure preserved exactly
    for name in KERNEL_NAMES:
        out = KERNELS.get(name).sddmm(pattern, x, y)
        assert out.equal(ref, 1e-9), f"kernel {name} diverged"


class TestSeededSweep:
    """Deterministic density/shape sweep (no hypothesis) across backends."""

    def test_density_sweep(self):
        rng = np.random.default_rng(12345)
        for density in (0.0, 0.01, 0.1, 0.5, 1.0):
            for m, k, n in ((1, 1, 1), (5, 9, 3), (40, 17, 28)):
                a = sprand(m, k, density, rng)
                b = sprand(k, n, density, rng)
                ref = spgemm(a, b)
                for name in KERNEL_NAMES:
                    out = KERNELS.get(name).spgemm(a, b)
                    out.check()
                    assert out.equal(ref, 1e-9), (name, density, (m, k, n))

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_zero_row_and_zero_col_products(self, kernel):
        """Degenerate shapes: (0, k) @ (k, n), (m, k) @ (k, 0), (0, 0)."""
        k = KERNELS.get(kernel)
        ones = CSRMatrix.from_dense(np.ones((4, 3)))
        for a, b in (
            (CSRMatrix.zeros((0, 4)), CSRMatrix.from_dense(np.ones((4, 3)))),
            (ones, CSRMatrix.zeros((3, 0))),
            (CSRMatrix.zeros((0, 0)), CSRMatrix.zeros((0, 0))),
            (CSRMatrix.zeros((2, 5)), CSRMatrix.zeros((5, 2))),
        ):
            out = k.spgemm(a, b)
            out.check()
            assert out.shape == (a.shape[0], b.shape[1])
            assert out.nnz == 0

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_inner_dim_mismatch_raises(self, kernel):
        a = CSRMatrix.identity(3)
        b = CSRMatrix.identity(4)
        with pytest.raises(ValueError):
            KERNELS.get(kernel).spgemm(a, b)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_cancellation_and_prune(self, kernel):
        """a @ b where products cancel exactly: backends may keep an
        explicit zero or a ~1e-17 residue; equal() must see through both,
        and prune_zeros must restore canonical form."""
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [2.0, -1.0]]))
        b = CSRMatrix.from_dense(np.array([[3.0, 1.0], [-3.0, 1.0]]))
        out = KERNELS.get(kernel).spgemm(a, b)
        out.check()
        dense = a.to_dense() @ b.to_dense()
        assert np.allclose(out.to_dense(), dense)
        pruned = out.prune_zeros(1e-12)
        assert pruned.equal(CSRMatrix.from_dense(dense), 1e-9)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_hypersparse_selector_product(self, kernel):
        """The LADIES shape: a tall hypersparse column selector."""
        rng = np.random.default_rng(7)
        a_r = sprand(6, 400, 0.05, rng)
        sampled = np.sort(rng.choice(400, 11, replace=False))
        from repro.sparse import col_selector

        q_c = col_selector(sampled, 400)
        ref = spgemm(a_r, q_c)
        out = KERNELS.get(kernel).spgemm(a_r, q_c)
        out.check()
        assert out.equal(ref, 1e-9)

    def test_duplicate_heavy_product(self):
        """Indicator-row Q A: many batch vertices share neighbors, so the
        expanded intermediate is far larger than the output."""
        from repro.graphs import rmat
        from repro.sparse import indicator_rows

        rng = np.random.default_rng(3)
        adj = rmat(9, 8, rng)
        batches = [rng.choice(adj.shape[0], 64, replace=False) for _ in range(4)]
        q = indicator_rows(batches, adj.shape[0])
        ref = spgemm(q, adj)
        for name in KERNEL_NAMES:
            assert KERNELS.get(name).spgemm(q, adj).equal(ref, 1e-9), name


class TestHashKernelInternals:
    def test_hash_matches_esc_exactly_on_integers(self):
        """Integer-valued data: all summation orders are exact, so the
        hash kernel must match ESC bit-for-bit, not just within tol."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, k, n = rng.integers(1, 25, 3)
            a = sprand(m, k, 0.3, rng, values="ones")
            b = sprand(k, n, 0.3, rng, values="ones")
            ref = spgemm(a, b)
            out = spgemm_hash(a, b)
            assert np.array_equal(out.indptr, ref.indptr)
            assert np.array_equal(out.indices, ref.indices)
            assert np.array_equal(out.data, ref.data)

    def test_high_collision_table(self):
        """Dense-ish product: table load approaches its 50% bound."""
        rng = np.random.default_rng(13)
        a = sprand(30, 30, 0.9, rng)
        b = sprand(30, 30, 0.9, rng)
        assert spgemm_hash(a, b).equal(spgemm(a, b), 1e-9)


class TestRegistryAndDispatch:
    def test_builtin_backends_registered(self):
        assert "esc" in KERNELS and "hash" in KERNELS
        for name in KERNEL_NAMES:
            assert isinstance(KERNELS.get(name), KernelBackend)

    def test_get_kernel_resolution(self):
        assert get_kernel("hash").name == "hash"
        backend = KERNELS.get("esc")
        assert get_kernel(backend) is backend
        assert get_kernel(None) is default_kernel()
        with pytest.raises(KeyError):
            get_kernel("no-such-kernel")

    def test_use_kernel_scopes_matmul(self):
        rng = np.random.default_rng(5)
        a, b = sprand(10, 10, 0.4, rng), sprand(10, 10, 0.4, rng)
        ref = spgemm(a, b)
        assert default_kernel().name == "esc"
        with use_kernel("hash") as k:
            assert k.name == "hash"
            assert default_kernel().name == "hash"
            assert (a @ b).equal(ref, 1e-9)
        assert default_kernel().name == "esc"

    def test_use_kernel_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_kernel("hash"):
                raise RuntimeError("boom")
        assert default_kernel().name == "esc"

    def test_set_default_kernel_validates(self):
        with pytest.raises(KeyError):
            set_default_kernel("typo")
        assert default_kernel().name == "esc"

    def test_custom_backend_registration(self):
        class Doubling(KernelBackend):
            name = "doubling"

            def spgemm(self, a, b):
                return spgemm(a, b)

        KERNELS.register("doubling-test", Doubling(), description="test-only")
        try:
            rng = np.random.default_rng(2)
            a, b = sprand(6, 6, 0.5, rng), sprand(6, 6, 0.5, rng)
            with use_kernel("doubling-test"):
                assert (a @ b).equal(spgemm(a, b), 1e-9)
        finally:
            KERNELS.unregister("doubling-test")
        assert "doubling-test" not in KERNELS

    def test_sampler_none_kernel_tracks_default(self):
        """A sampler built with kernel=None follows the process default at
        call time (no snapshot at construction); an explicit kernel pins."""
        from repro.core import SageSampler

        floating = SageSampler()  # kernel=None
        pinned = SageSampler(kernel="esc")
        with use_kernel("hash"):
            assert floating._resolve_spgemm(None) == get_kernel("hash").spgemm
            assert pinned._resolve_spgemm(None) == get_kernel("esc").spgemm
        assert floating._resolve_spgemm(None) == get_kernel("esc").spgemm

    def test_sampler_rejects_unknown_kernel(self):
        from repro.core import SageSampler

        with pytest.raises(KeyError):
            SageSampler(kernel="no-such-kernel")

    def test_graceful_without_scipy(self):
        """scipy is a declared requirement (``spmm`` runs on its CSR
        kernel): its backend is always registered, and importing
        ``repro.sparse`` without it fails at once with an error that names
        the missing package — never a numpy fallback with other bits."""
        assert "scipy" in KERNELS.names()
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
