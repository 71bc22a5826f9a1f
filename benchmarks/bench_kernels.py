"""Wall-clock kernel benchmarks (pytest-benchmark proper).

Unlike the figure benchmarks — which report *simulated* seconds — these
track the real execution speed of the reproduction's hot kernels (the one
SpGEMM, LADIES' two products among its cases, the one SpMM, ITS, bulk
sampling, R-MAT generation), so regressions are visible::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LadiesSampler, SageSampler, its, its_sample_rows
from repro.graphs import rmat
from repro.sparse import (
    CSRMatrix,
    col_selector,
    row_normalize,
    spgemm,
    spgemm_flops,
    spmm,
    sprand,
)


@pytest.fixture(scope="module")
def medium_adj():
    return rmat(12, 16, np.random.default_rng(0))


@pytest.fixture(scope="module")
def medium_batches(medium_adj):
    rng = np.random.default_rng(1)
    return [
        rng.choice(medium_adj.shape[0], 128, replace=False) for _ in range(16)
    ]


def test_spgemm_kernel(benchmark):
    rng = np.random.default_rng(2)
    a = sprand(2000, 2000, 0.005, rng)
    b = sprand(2000, 2000, 0.005, rng)
    out = benchmark(spgemm, a, b)
    assert out.nnz > 0
    out.check()


def test_ladies_frontier_spgemm(benchmark, medium_adj, medium_batches):
    """The duplicate-heavy LADIES probability product ``Q A``."""
    q = LadiesSampler.make_q(medium_batches, medium_adj.shape[0])
    out = benchmark(spgemm, q, medium_adj)
    # Unit weights: the counts add up to the expansion, exactly.
    assert out.data.sum() == spgemm_flops(q, medium_adj) > out.nnz


def test_ladies_column_extraction(benchmark, medium_adj, medium_batches):
    """LADIES' column extraction ``A_R Q_C``: the stacked row extraction
    times a unit column selector of sorted distinct sampled ids."""
    n = medium_adj.shape[0]
    a_r = LadiesSampler.row_extract(medium_adj, medium_batches)
    sampled = np.sort(
        np.random.default_rng(2).choice(n, 512, replace=False)
    )
    out = benchmark(spgemm, a_r, col_selector(sampled, n))
    # Each entry of A_R in a sampled column is copied once, as it is.
    kept = np.isin(a_r.indices, sampled)
    assert out.shape == (a_r.shape[0], sampled.size)
    assert out.nnz == int(kept.sum()) > 0
    assert np.array_equal(out.data, a_r.data[kept])
    out.check()


def _csr_with_degrees(degrees, n_cols, rng) -> CSRMatrix:
    """Random CSR whose row ``i`` has (up to duplicate draws) ``degrees[i]``
    entries."""
    rows = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    cols = rng.integers(0, n_cols, rows.size)
    vals = rng.uniform(1e-6, 1.0, rows.size)
    return CSRMatrix.from_coo(rows, cols, vals, (len(degrees), n_cols))


#: name -> (adjacency factory, feature width).  ``uniform`` is the original
#: case; the other three are the propagation shapes of the e2e workloads:
#: a SAGE layer-0 sample, a wide-hidden LADIES layer, and a row block of
#: exact serving on a power-law graph (rows from 1 to 4000 entries).
SPMM_SHAPES = {
    "uniform-5000x5000-f64": (
        lambda rng: sprand(5000, 5000, 0.002, rng), 64),
    "sage-layer0-5651x8034-f100": (
        lambda rng: _csr_with_degrees(np.full(5651, 5), 8034, rng), 100),
    "ladies-383x621-f512": (
        lambda rng: _csr_with_degrees(rng.integers(1, 34, 383), 621, rng), 512),
    "pareto-4096x8192-f64": (
        lambda rng: _csr_with_degrees(
            np.minimum(4000, 1 + (20 * rng.pareto(1.2, 4096)).astype(np.int64)),
            8192, rng), 64),
}


@pytest.mark.parametrize("shape", list(SPMM_SHAPES))
def test_spmm_kernel(benchmark, shape):
    rng = np.random.default_rng(3)
    make_adj, n_features = SPMM_SHAPES[shape]
    a = make_adj(rng)
    x = rng.standard_normal((a.shape[1], n_features))
    out = benchmark(spmm, a, x)
    assert out.shape == (a.shape[0], n_features)


@pytest.mark.parametrize("weights", ["unit", "weighted"])
def test_its_kernel(benchmark, medium_adj, weights, monkeypatch):
    """SAMPLE on a GraphSAGE ``P``: NORM of unit weights makes every row even
    (the uniform path: an index per draw), NORM of random weights does not
    (the prefix-sum path)."""
    rng = np.random.default_rng(4)
    adj = medium_adj
    if weights == "weighted":
        adj = CSRMatrix(
            adj.indptr, adj.indices, rng.uniform(0.5, 1.5, adj.nnz), adj.shape
        )
    q = SageSampler.make_q(
        rng.choice(adj.shape[0], 2048, replace=False), adj.shape[0]
    )
    p = row_normalize(spgemm(q, adj))
    paths = set()
    check = its._uniform_rows

    def spy(*args):
        answer = check(*args)
        paths.add(answer)
        return answer

    monkeypatch.setattr(its, "_uniform_rows", spy)
    out = benchmark(its_sample_rows, p, 10, rng)
    assert paths == {weights == "unit"}
    assert np.array_equal(out.nnz_per_row(), np.minimum(10, p.nnz_per_row()))


def test_bulk_sage_sampling(benchmark, medium_adj, medium_batches):
    sampler = SageSampler()
    rng = np.random.default_rng(5)
    out = benchmark(
        sampler.sample_bulk, medium_adj, medium_batches, (10, 5), rng
    )
    assert len(out) == len(medium_batches)


def test_bulk_ladies_sampling(benchmark, medium_adj, medium_batches):
    sampler = LadiesSampler()
    rng = np.random.default_rng(6)
    out = benchmark(
        sampler.sample_bulk, medium_adj, medium_batches, (256,), rng
    )
    assert len(out) == len(medium_batches)


def test_rmat_generation(benchmark):
    out = benchmark(rmat, 11, 8, np.random.default_rng(7))
    assert out.shape == (2048, 2048)
