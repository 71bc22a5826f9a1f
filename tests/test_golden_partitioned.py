"""Golden regression tests for plan-driven partitioned sampling.

The partitioned executor runs the same sampling plan as the local one,
with per-batch RNG streams keyed by *global* batch index.  Three
properties are pinned:

1. **Pre-refactor bit-compatibility** — at ``k == p/c`` (one batch per
   process row) the per-row streams of the historical hand-coded
   implementation coincide with the per-batch streams, so output must
   match digests recorded from the pre-refactor code, bit for bit.
2. **Grid invariance** — output is identical across ``c ∈ {1, 2}`` at
   fixed ``p`` (and across ``p``), because each batch draws only from its
   own stream and its frontier evolution is batch-local.
3. **Executor parity** — partitioned output equals single-rank replicated
   output and the ``Q^{l-1}``-materializing oracle's, for every
   plan-emitting sampler.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.comm import Communicator, ProcessGrid
from repro.core import FastGCNSampler, LadiesSampler, SageSampler, batch_rng
from repro.distributed import (
    PartitionedExecutor,
    partitioned_bulk_sampling,
    replicated_bulk_sampling,
)
from repro.graphs import rmat
from repro.partition import BlockRows

from reference_interpreter import reference_sample_bulk

SEED = 42
DIST_SEED = 7
N_BATCHES = 4  # == n_rows at (p=4, c=1): the pre-refactor-compatible shape
BATCH_SIZE = 24

SAMPLER_CASES = [
    ("sage", lambda: SageSampler(include_dst=True), (5, 3)),
    ("ladies", lambda: LadiesSampler(include_dst=True), (32,)),
    ("fastgcn", lambda: FastGCNSampler(include_dst=True), (32,)),
]

#: Digests recorded by running the PRE-refactor hand-coded partitioned
#: implementations (commit 01a2a91) at p=4, c=1, seed=7 on this workload.
#: Re-recorded, every grid agreeing, when SAMPLE moved to one prefix sum
#: with rejection rounds (sage was 650fcd38…, ladies e33f57ce…, fastgcn
#: 2fb93928…).
PRE_REFACTOR_DIGESTS = {
    "sage": "39c1053e27b7655050c90f9f403db7e4b2a1d169e897a774d267eb1163fb2d13",
    "ladies": "5759051a3c6fedbf4630c624d2845a27848ed08cce62eb0a29fa73d6067b05f1",
    "fastgcn": "91a3eb2b4101deedf0e40bac30dbe15d063e53cb03d99ff6255270c15ded81c2",
}


def _graph_and_batches():
    rng = np.random.default_rng(SEED)
    adj = rmat(9, 8, rng)
    batches = [
        rng.choice(adj.shape[0], BATCH_SIZE, replace=False)
        for _ in range(N_BATCHES)
    ]
    return adj, batches


def _bulk_digest(samples) -> str:
    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            for arr in (
                layer.adj.indptr,
                layer.adj.indices,
                layer.adj.data,
                np.asarray(layer.src_ids, dtype=np.int64),
                np.asarray(layer.dst_ids, dtype=np.int64),
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(layer.adj.shape).encode())
    return h.hexdigest()


def _run_partitioned(name: str, p: int, c: int) -> str:
    """Digest of one partitioned bulk."""
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    grid = ProcessGrid(p, c)
    blocks = BlockRows.partition(adj, grid.n_rows)
    samples, _ = partitioned_bulk_sampling(
        Communicator(p), grid, factory(), blocks, batches, fanout,
        seed=DIST_SEED,
    )
    assert len(samples) == N_BATCHES
    return _bulk_digest(samples)


@pytest.mark.parametrize(
    "name", [n for n in PRE_REFACTOR_DIGESTS]
)
def test_matches_pre_refactor_implementation(name):
    """The plan executor reproduces the hand-coded algorithms bit-for-bit
    at the grid shape where their RNG disciplines coincide."""
    assert _run_partitioned(name, 4, 1) == PRE_REFACTOR_DIGESTS[name]


@pytest.mark.parametrize(
    "name", [n for n in PRE_REFACTOR_DIGESTS]
)
@pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (2, 1), (8, 2)])
def test_compiled_matches_pre_refactor_digests(name, p, c):
    """The emitted plan on the grid reproduces the pre-refactor digests bit
    for bit at every grid shape — how the plan is executed (fused once,
    four steps with NORM in place now) never changes output.  (8, 2) is
    the shape where a rank sums two stage products *and* the all-reduce
    sums two ranks."""
    assert _run_partitioned(name, p, c) == PRE_REFACTOR_DIGESTS[name]


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_compiled_matches_interpreted_partitioned(name):
    """On the 1.5D grid the executor samples what the ``Q^{l-1}``-
    materializing oracle (``reference_interpreter.py``) samples from the
    same per-batch streams, for every sampler."""
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    want = reference_sample_bulk(
        factory(), adj, batches, fanout,
        [batch_rng(DIST_SEED, i) for i in range(N_BATCHES)],
    )
    assert _run_partitioned(name, 4, 2) == _bulk_digest(want)


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_invariant_across_replication_factor(name):
    """c ∈ {1, 2} at fixed p=4: replication never changes what is sampled."""
    assert _run_partitioned(name, 4, 1) == _run_partitioned(name, 4, 2)


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_invariant_across_world_size(name):
    """p ∈ {2, 4}: the grid shape never changes what is sampled."""
    assert _run_partitioned(name, 2, 1) == _run_partitioned(name, 4, 2)


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_parity_with_single_rank_replicated(name):
    """Partitioned output == single-rank sampling output, per batch, for
    every plan-emitting sampler."""
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    rep = replicated_bulk_sampling(
        Communicator(1), factory(), adj, batches, fanout, seed=DIST_SEED
    )
    assert _run_partitioned(name, 4, 2) == _bulk_digest(rep[0])


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_optimized_plan_charges_the_same_clock(name):
    """Per (phase, kind), a freshly emitted plan handed to the executor
    directly charges the simulated seconds the product path
    (``partitioned_bulk_sampling``, which runs the sampler's cached plan)
    charges — in particular EXTRACT still fills the ``extraction`` bar.

    (Once this compared an optimized program with the plan as emitted;
    the emitted plan is now the only program.)"""
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    grid = ProcessGrid(4, 2)
    blocks = BlockRows.partition(adj, grid.n_rows)
    comm = Communicator(4)
    partitioned_bulk_sampling(
        comm, grid, factory(), blocks, batches, fanout, seed=DIST_SEED
    )
    direct_sampler, direct_comm = factory(), Communicator(4)
    PartitionedExecutor(
        direct_comm, grid, direct_sampler, blocks, batches, DIST_SEED
    ).run(direct_sampler.plan(fanout))
    clock = comm.clock.breakdown_by_kind()
    assert direct_comm.clock.breakdown_by_kind() == clock
    assert clock[("extraction", "compute")] > 0


#: The simulated cost of one partitioned bulk, recorded at commit
#: ``473e3f8`` (the last one with a per-process-row copy of the local
#: executor's state, running the optimized plan): per (sampler, p, c) — the
#: (phase, kind) breakdown, every rank's clock, and the ledger's bytes sent
#: and message count.  Floats are compared with ``==``: a change in which
#: ranks are charged, with what, or in what order per rank moves a sum in
#: its last bit.  The plan as emitted charges these same floats, the
#: ``extraction`` phase included: NORM is charged with its SAMPLE, and an
#: EXTRACT charges its own phase whether or not a SAMPLE precedes it.
#: Re-recorded when SAMPLE moved to one prefix sum with rejection rounds:
#: the charge rules did not change, the sampled sizes they are charged on did.
PINNED_CHARGES = {
    ('sage', 4, 2): (
        {
            ('extraction', 'compute'): 3.200646688102894e-05,
            ('probability', 'comm'): 2.0443520000000003e-05,
            ('probability', 'compute'): 9.605393183279742e-05,
            ('sampling', 'compute'): 6.404039099678457e-05,
        },
        [0.00021255104102893893, 0.00021255104102893893, 0.0002125427506109325, 0.0002125427506109325],
        135840.0, 24,
    ),
    ('sage', 2, 1): (
        {
            ('extraction', 'compute'): 3.200646688102894e-05,
            ('probability', 'comm'): 2.029744e-05,
            ('probability', 'compute'): 0.00014406651061093246,
            ('sampling', 'compute'): 6.404039099678457e-05,
        },
        [0.00029243472617363343, 0.000292434355755627],
        29744.0, 8,
    ),
    ('ladies', 4, 2): (
        {
            ('extraction', 'comm'): 1.2566720000000001e-05,
            ('extraction', 'compute'): 4.801087073954984e-05,
            ('probability', 'comm'): 1.00376e-05,
            ('probability', 'compute'): 4.8006060450160774e-05,
            ('sampling', 'compute'): 3.200219163987138e-05,
        },
        [0.00015062353028938902, 0.00015062353028938902, 0.00015062357504823148, 0.00015062357504823148],
        26912.0, 28,
    ),
    ('ladies', 2, 1): (
        {
            ('extraction', 'comm'): 1.003968e-05,
            ('extraction', 'compute'): 8.001770803858522e-05,
            ('probability', 'comm'): 1.003968e-05,
            ('probability', 'compute'): 7.200801028938907e-05,
            ('sampling', 'compute'): 3.200219163987138e-05,
        },
        [0.000236112507266881, 0.00023611209054662377],
        7936.0, 8,
    ),
    ('fastgcn', 4, 2): (
        {
            ('extraction', 'comm'): 1.255696e-05,
            ('extraction', 'compute'): 4.801026881028939e-05,
            ('probability', 'comm'): 5.04096e-06,
            ('probability', 'compute'): 8.017605144694533e-06,
            ('sampling', 'compute'): 3.201142122186495e-05,
        },
        [0.00010563577517684887, 0.00010563577517684887, 0.00010563790971061095, 0.00010563790971061095],
        31520.0, 24,
    ),
    ('fastgcn', 2, 1): (
        {
            ('extraction', 'comm'): 1.003968e-05,
            ('extraction', 'compute'): 8.001662765273312e-05,
            ('probability', 'comm'): 5.04096e-06,
            ('probability', 'compute'): 8.017605144694533e-06,
            ('sampling', 'compute'): 3.201142122186495e-05,
        },
        [0.00015112901556270099, 0.00015112878405144694],
        12160.0, 8,
    ),
}


@pytest.mark.parametrize("name,p,c", list(PINNED_CHARGES))
def test_partitioned_charges_are_pinned(name, p, c):
    """Exact simulated clock and communication volume of one partitioned
    bulk, per sampler and grid shape."""
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    grid, comm = ProcessGrid(p, c), Communicator(p)
    partitioned_bulk_sampling(
        comm, grid, factory(), BlockRows.partition(adj, grid.n_rows),
        batches, fanout, seed=DIST_SEED,
    )
    breakdown, clocks, sent, messages = PINNED_CHARGES[name, p, c]
    assert comm.clock.breakdown_by_kind() == breakdown
    assert [comm.clock.time(r) for r in range(p)] == clocks
    assert (comm.ledger.sent(), comm.ledger.messages()) == (sent, messages)


if __name__ == "__main__":  # golden regeneration helper
    import sys

    if "--regen" in sys.argv:
        for name in PRE_REFACTOR_DIGESTS:
            print(f'    "{name}": "{_run_partitioned(name, 4, 1)}",')
    else:
        print(__doc__)
