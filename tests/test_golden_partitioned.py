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
   plan-emitting sampler *including SAINT*, whose partitioned support is
   new and entirely derived from its plan.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.comm import Communicator, ProcessGrid
from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
    batch_rng,
)
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
    ("saint", lambda: GraphSaintRWSampler(walk_length=3), (3, 3)),
]

#: Digests recorded by running the PRE-refactor hand-coded partitioned
#: implementations (commit 01a2a91) at p=4, c=1, seed=7 on this workload.
#: SAINT has no entry: it could not run partitioned before this refactor.
PRE_REFACTOR_DIGESTS = {
    "sage": "650fcd385a8d75bf13ff69229ad181b1377d4f2ec89a49d9e47ee73f3a3dc717",
    "ladies": "e33f57cecc2422dca48c5879d73ea533a024b0264140caacdd7789e303c37963",
    "fastgcn": "2fb939281f77e8e97cac101d9648f2fc5f641cfed446188b966d926a9328010c",
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
@pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (2, 1)])
def test_compiled_matches_pre_refactor_digests(name, p, c):
    """The emitted plan on the grid reproduces the pre-refactor digests bit
    for bit at every grid shape — how the plan is executed (fused once,
    four steps with NORM in place now) never changes output."""
    assert _run_partitioned(name, p, c) == PRE_REFACTOR_DIGESTS[name]


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_compiled_matches_interpreted_partitioned(name):
    """On the 1.5D grid the executor samples what the ``Q^{l-1}``-
    materializing oracle (``reference_interpreter.py``) samples from the
    same per-batch streams, for all four samplers (SAINT has no
    pre-refactor digest, so this parity is what pins it)."""
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
    every plan-emitting sampler (SAINT included: satellite acceptance for
    its new derived partitioned support)."""
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
PINNED_CHARGES = {
    ('sage', 4, 2): (
        {
            ('extraction', 'compute'): 3.2006544051446944e-05,
            ('probability', 'comm'): 2.0444480000000003e-05,
            ('probability', 'compute'): 9.60541118971061e-05,
            ('sampling', 'compute'): 6.404219678456592e-05,
        },
        [0.00021255373993569131, 0.00021255373993569131, 0.0002125087169131833, 0.0002125087169131833],
        130256.0, 24,
    ),
    ('sage', 2, 1): (
        {
            ('extraction', 'compute'): 3.2006544051446944e-05,
            ('probability', 'comm'): 2.029504e-05,
            ('probability', 'compute'): 0.00014406658778135046,
            ('sampling', 'compute'): 6.404219678456592e-05,
        },
        [0.0002924343583279742, 0.00029242909530546624],
        29504.0, 8,
    ),
    ('ladies', 4, 2): (
        {
            ('extraction', 'comm'): 1.256688e-05,
            ('extraction', 'compute'): 4.801091704180065e-05,
            ('probability', 'comm'): 1.00376e-05,
            ('probability', 'compute'): 4.8006060450160774e-05,
            ('sampling', 'compute'): 3.200219163987138e-05,
        },
        [0.00015062373659163983, 0.00015062373659163983, 0.00015062339961414788, 0.00015062339961414788],
        26912.0, 28,
    ),
    ('ladies', 2, 1): (
        {
            ('extraction', 'comm'): 1.003968e-05,
            ('extraction', 'compute'): 8.001772347266881e-05,
            ('probability', 'comm'): 1.003968e-05,
            ('probability', 'compute'): 7.200801028938907e-05,
            ('sampling', 'compute'): 3.200219163987138e-05,
        },
        [0.00023611252270096462, 0.00023611207511254018],
        7936.0, 8,
    ),
    ('fastgcn', 4, 2): (
        {
            ('extraction', 'comm'): 1.2556800000000001e-05,
            ('extraction', 'compute'): 4.801029967845659e-05,
            ('probability', 'comm'): 5.04096e-06,
            ('probability', 'compute'): 8.017605144694533e-06,
            ('sampling', 'compute'): 3.201142122186495e-05,
        },
        [0.00010563644604501608, 0.00010563644604501608, 0.00010563773427652735, 0.00010563773427652735],
        31568.0, 24,
    ),
    ('fastgcn', 2, 1): (
        {
            ('extraction', 'comm'): 1.003968e-05,
            ('extraction', 'compute'): 8.001668938906752e-05,
            ('probability', 'comm'): 5.04096e-06,
            ('probability', 'compute'): 8.017605144694533e-06,
            ('sampling', 'compute'): 3.201142122186495e-05,
        },
        [0.00015112907729903537, 0.00015112876861736333],
        12160.0, 8,
    ),
    ('saint', 4, 2): (
        {
            ('extraction', 'comm'): 1.3032000000000002e-05,
            ('extraction', 'compute'): 9.607114083601285e-05,
            ('probability', 'comm'): 3.05528e-05,
            ('probability', 'compute'): 0.0001440550276527331,
            ('sampling', 'compute'): 9.60540655948553e-05,
        },
        [0.00037980247974276536, 0.00037980247974276536, 0.0003797793574276528, 0.0003797793574276528],
        315872.0, 52,
    ),
    ('saint', 2, 1): (
        {
            ('extraction', 'comm'): 1.026144e-05,
            ('extraction', 'compute'): 0.00012810961800643086,
            ('probability', 'comm'): 3.0333920000000002e-05,
            ('probability', 'compute'): 0.00021606934533762058,
            ('sampling', 'compute'): 9.60540655948553e-05,
        },
        [0.0005448858809003215, 0.0005448809882958199],
        59536.0, 16,
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


def test_saint_partitioned_samples_are_valid_subgraphs():
    """Structural check independent of digests: every partitioned-SAINT
    layer is the full induced adjacency on its vertex set and ends at the
    batch."""
    adj, batches = _graph_and_batches()
    grid = ProcessGrid(4, 2)
    blocks = BlockRows.partition(adj, grid.n_rows)
    samples, _ = partitioned_bulk_sampling(
        Communicator(4), grid, GraphSaintRWSampler(walk_length=3), blocks,
        batches, (3, 3), seed=DIST_SEED,
    )
    dense = adj.to_dense()
    for mb in samples:
        layer = mb.layers[0]
        sub = dense[np.ix_(layer.dst_ids, layer.src_ids)]
        assert np.allclose(layer.adj.to_dense(), sub)
        assert np.all(np.isin(mb.batch, layer.src_ids))
        assert np.array_equal(mb.layers[-1].dst_ids, mb.batch)


def test_saint_partitioned_charges_all_three_phases():
    """Phase attribution is derived from step types: a graph-wise plan
    still lands work in probability, sampling and extraction."""
    adj, batches = _graph_and_batches()
    comm = Communicator(4)
    grid = ProcessGrid(4, 2)
    blocks = BlockRows.partition(adj, grid.n_rows)
    partitioned_bulk_sampling(
        comm, grid, GraphSaintRWSampler(walk_length=2), blocks, batches,
        (2, 2), seed=0,
    )
    bd = comm.clock.breakdown()
    assert {"probability", "sampling", "extraction"} <= set(bd)
    assert all(v > 0 for v in bd.values())


if __name__ == "__main__":  # golden regeneration helper
    import sys

    if "--regen" in sys.argv:
        for name in PRE_REFACTOR_DIGESTS:
            print(f'    "{name}": "{_run_partitioned(name, 4, 1)}",')
    else:
        print(__doc__)
