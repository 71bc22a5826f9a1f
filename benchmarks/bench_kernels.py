"""Wall-clock kernel benchmarks (pytest-benchmark proper).

Unlike the figure benchmarks — which report *simulated* seconds — these
track the real execution speed of the reproduction's hot kernels, so
regressions in the numpy implementations are visible.

The SpGEMM benchmarks sweep every backend registered in
:data:`repro.sparse.KERNELS`, so a new backend is benchmarked (and checked
against the reference result) just by registering it.

The file also runs as a script for the kernel-vs-kernel comparison on the
LADIES frontier workload (the duplicate-heavy ``Q A`` product the hash
backend targets)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --kernel hash
    PYTHONPATH=src python benchmarks/bench_kernels.py --kernel scipy --log-n 14
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import pytest

from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
    its_sample_rows,
)
from repro.graphs import rmat
from repro.sparse import (
    CSRMatrix,
    KERNELS,
    get_kernel,
    indicator_rows,
    row_normalize,
    spgemm,
    spmm,
    sprand,
)

KERNEL_NAMES = KERNELS.names()


@pytest.fixture(scope="module")
def medium_adj():
    return rmat(12, 16, np.random.default_rng(0))


@pytest.fixture(scope="module")
def medium_batches(medium_adj):
    rng = np.random.default_rng(1)
    return [
        rng.choice(medium_adj.shape[0], 128, replace=False) for _ in range(16)
    ]


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_spgemm_kernel(benchmark, kernel):
    rng = np.random.default_rng(2)
    a = sprand(2000, 2000, 0.005, rng)
    b = sprand(2000, 2000, 0.005, rng)
    out = benchmark(KERNELS.get(kernel).spgemm, a, b)
    assert out.nnz > 0
    assert out.equal(spgemm(a, b), 1e-9)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_ladies_frontier_spgemm(benchmark, kernel, medium_adj, medium_batches):
    """The duplicate-heavy LADIES probability product ``Q A``."""
    q = LadiesSampler.make_q(medium_batches, medium_adj.shape[0])
    out = benchmark(KERNELS.get(kernel).spgemm, q, medium_adj)
    assert out.nnz > 0
    assert out.equal(spgemm(q, medium_adj), 1e-9)


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
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_spmm_kernel(benchmark, kernel, shape):
    rng = np.random.default_rng(3)
    make_adj, n_features = SPMM_SHAPES[shape]
    a = make_adj(rng)
    x = rng.standard_normal((a.shape[1], n_features))
    out = benchmark(KERNELS.get(kernel).spmm, a, x)
    assert out.shape == (a.shape[0], n_features)
    # Every backend shares the one SpMM: same bits.
    assert out.tobytes() == spmm(a, x).tobytes()


def test_its_kernel(benchmark, medium_adj):
    rng = np.random.default_rng(4)
    q = SageSampler.make_q(
        rng.choice(medium_adj.shape[0], 2048, replace=False),
        medium_adj.shape[0],
    )
    p = row_normalize(spgemm(q, medium_adj))

    out = benchmark(its_sample_rows, p, 10, rng)
    assert out.nnz > 0


def test_bulk_sage_sampling(benchmark, medium_adj, medium_batches):
    sampler = SageSampler()
    rng = np.random.default_rng(5)
    out = benchmark(
        sampler.sample_bulk, medium_adj, medium_batches, (10, 5), rng
    )
    assert len(out) == len(medium_batches)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_bulk_ladies_sampling(benchmark, medium_adj, medium_batches, kernel):
    sampler = LadiesSampler(kernel=kernel)
    rng = np.random.default_rng(6)
    out = benchmark(
        sampler.sample_bulk, medium_adj, medium_batches, (256,), rng
    )
    assert len(out) == len(medium_batches)


def test_rmat_generation(benchmark):
    out = benchmark(rmat, 11, 8, np.random.default_rng(7))
    assert out.shape == (2048, 2048)


# ---------------------------------------------------------------------- #
# Script mode: kernel comparison on the LADIES frontier workload
# ---------------------------------------------------------------------- #
def _best_of(fn, *args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _bulk_digest(samples) -> bytes:
    import hashlib

    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            for arr in (
                layer.adj.indptr, layer.adj.indices, layer.adj.data,
                np.asarray(layer.src_ids, dtype=np.int64),
                np.asarray(layer.dst_ids, dtype=np.int64),
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(layer.adj.shape).encode())
    return h.digest()


def main(argv: list[str] | None = None) -> int:
    """Compare one kernel backend against a baseline on the LADIES
    frontier product and an end-to-end bulk sampling pass of every
    built-in sampler, asserting bit-identical samples along the way."""
    parser = argparse.ArgumentParser(
        description="Sparse-kernel backend comparison "
        "(frontier SpGEMM + end-to-end sampler sweep)"
    )
    parser.add_argument("--kernel", default="hash", choices=KERNELS.names())
    parser.add_argument("--baseline", default="esc", choices=KERNELS.names())
    parser.add_argument("--log-n", type=int, default=13,
                        help="rmat scale: 2^log_n vertices (default 13)")
    parser.add_argument("--degree", type=int, default=16)
    parser.add_argument("--batches", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--fanout", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="CI preset: log_n 11, 4 batches x 128, "
                        "fanout 64, 2 repeats")
    parser.add_argument("--gate", action="store_true",
                        help="pinned regression-gate profile: smoke sizes, "
                        "hash vs esc, artifact BENCH_kernels_gate.json "
                        "carrying an env fingerprint (wall-clock numbers "
                        "are machine-specific; the gate compares the "
                        "speedup ratios)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="artifact path (default benchmarks/results/"
                        "BENCH_kernels.json); 'none' disables")
    args = parser.parse_args(argv)
    if args.gate:
        args.kernel, args.baseline, args.smoke = "hash", "esc", True
    if args.smoke:
        args.log_n, args.batches = 11, 4
        args.batch_size, args.fanout, args.repeats = 128, 64, 2

    rng = np.random.default_rng(0)
    adj = rmat(args.log_n, args.degree, rng)
    n = adj.shape[0]
    batches = [
        rng.choice(n, min(args.batch_size, n), replace=False)
        for _ in range(args.batches)
    ]
    q = LadiesSampler.make_q(batches, n)
    kern = get_kernel(args.kernel)
    base = get_kernel(args.baseline)

    out = kern.spgemm(q, adj)
    ref = base.spgemm(q, adj)
    out.check()
    if not out.equal(ref, 1e-9):
        print(f"error: {args.kernel} result differs from {args.baseline}",
              file=sys.stderr)
        return 1

    print(f"workload: {n} vertices, {adj.nnz} edges, "
          f"{args.batches} batches x {len(batches[0])} vertices")
    # rows: (slug, label, t_baseline, t_kernel)
    rows = []
    t_base = _best_of(base.spgemm, q, adj, repeats=args.repeats)
    t_kern = _best_of(kern.spgemm, q, adj, repeats=args.repeats)
    rows.append(("frontier", "frontier SpGEMM (Q A)", t_base, t_kern))

    # End-to-end bulk sampling, all four built-in samplers.  Same seed on
    # both backends; the digest assert makes "faster but different" loud.
    sampler_cases = [
        ("sage", lambda k: SageSampler(kernel=k),
         (max(2, args.fanout // 8), max(2, args.fanout // 16))),
        ("ladies", lambda k: LadiesSampler(kernel=k), (args.fanout,)),
        ("fastgcn", lambda k: FastGCNSampler(kernel=k), (args.fanout,)),
        ("saint", lambda k: GraphSaintRWSampler(walk_length=3, kernel=k),
         (2, 2)),
    ]
    bulk_repeats = max(1, args.repeats // 2)
    for slug, factory, fanout in sampler_cases:
        def bulk(kernel_name):
            return factory(kernel_name).sample_bulk(
                adj, batches, fanout, np.random.default_rng(1)
            )

        if _bulk_digest(bulk(args.baseline)) != _bulk_digest(bulk(args.kernel)):
            print(f"error: {slug} samples differ between {args.kernel} and "
                  f"{args.baseline}", file=sys.stderr)
            return 1
        t_base = _best_of(bulk, args.baseline, repeats=bulk_repeats)
        t_kern = _best_of(bulk, args.kernel, repeats=bulk_repeats)
        rows.append((slug, f"bulk {slug} sampling", t_base, t_kern))

    width = max(len(r[1]) for r in rows)
    print(f"{'workload':<{width}}  {args.baseline:>10}  {args.kernel:>10}  speedup")
    for _, name, tb, tk in rows:
        print(f"{name:<{width}}  {tb * 1e3:8.2f}ms  {tk * 1e3:8.2f}ms  "
              f"{tb / tk:6.2f}x")
    if args.json != "none":
        from repro.bench import env_fingerprint, write_bench_artifact

        path = write_bench_artifact(
            "kernels_gate" if args.gate else "kernels",
            env=env_fingerprint(),
            params={
                "kernel": args.kernel, "baseline": args.baseline,
                "log_n": args.log_n, "degree": args.degree,
                "batches": args.batches, "batch_size": args.batch_size,
                "fanout": args.fanout, "repeats": args.repeats,
                "vertices": n, "edges": adj.nnz,
            },
            # Wall-clock, so these are host-dependent trajectory points —
            # the speedup ratios are the comparable metric across hosts.
            metrics={
                f"speedup_{slug}": tb / tk for slug, _, tb, tk in rows
            },
            rows=[
                {
                    "workload": name,
                    f"{args.baseline}_ms": tb * 1e3,
                    f"{args.kernel}_ms": tk * 1e3,
                    "speedup": tb / tk,
                }
                for _, name, tb, tk in rows
            ],
            path=args.json,
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
