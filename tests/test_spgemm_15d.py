"""The 1.5D SpGEMM against its retired body, and what it no longer builds.

``reference_spgemm_15d.spgemm_15d`` is the body that re-canonicalized every
stage product through ``CSRMatrix.from_coo``.  The new one keeps the stage
products as they come and sums them with scipy's merge; on sampling
operands (non-negative weights, products without stored zeros) it must
return the oracle's blocks array for array — ``data`` by bytes — and charge
the simulated cluster exactly what the oracle charges: every rank's clock,
every (phase, kind) slot, and the ledger's bytes and messages per phase and
rank.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import Communicator, ProcessGrid
from repro.core import SageSampler
from repro.distributed import partitioned_bulk_sampling, spgemm_15d
from repro.partition import BlockRows
from repro.sparse import CSRMatrix, sprand

import reference_spgemm_15d as oracle

GRIDS = [(4, 1), (4, 2), (8, 2), (8, 4), (16, 2)]


def _selector_with_empty_rows(n_rows, n, rng):
    """At most one ``1.0`` per row: a unit selector with holes."""
    has_entry = rng.random(n_rows) < 0.6
    return CSRMatrix(
        np.concatenate(([0], np.cumsum(has_entry))),
        rng.integers(0, n, int(has_entry.sum())),
        np.ones(int(has_entry.sum())),
        (n_rows, n),
    )


def _q_blocks(kind, n_blocks, n, rng, rowless, density=0.15):
    """One Q block per process row; block ``rowless`` (if any) has no
    rows — a process row that owns no batches."""
    blocks = []
    for i in range(n_blocks):
        rows = 0 if i == rowless else int(rng.integers(1, 12))
        if kind == "weighted":
            blocks.append(sprand(rows, n, density, rng))
        else:
            blocks.append(_selector_with_empty_rows(rows, n, rng))
    starts = np.concatenate(([0], np.cumsum([b.shape[0] for b in blocks])))
    return BlockRows(blocks, starts, n)


def _a_blocks(n, n_blocks, rng, empty_block):
    """A partitioned into ``n_blocks`` block rows; block ``empty_block``
    (if any) stores nothing."""
    a = sprand(n, n, 0.12, rng)
    blocks = BlockRows.partition(a, n_blocks)
    if empty_block is not None:
        blk = blocks.blocks[empty_block]
        blocks.blocks[empty_block] = CSRMatrix.zeros(blk.shape)
    return blocks


def _ledger(comm):
    led = comm.ledger
    return {
        (phase, r): (led.sent(phase, r), led.received(phase, r),
                     led.messages(phase, r))
        for phase in led.phases()
        for r in range(comm.world_size)
    }


def _run(fn, grid, q, a, aware):
    comm = Communicator(grid.p)
    with comm.phase("probability"):
        out = fn(comm, grid, q, a, sparsity_aware=aware)
    return out, comm


@given(
    st.sampled_from(GRIDS),
    st.booleans(),
    st.sampled_from(["weighted", "selector"]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_matches_retired_body(grid_shape, aware, kind, rowless, empty_a, seed):
    grid = ProcessGrid(*grid_shape)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(grid.n_rows, 48))
    q = _q_blocks(
        kind, grid.n_rows, n, rng,
        int(rng.integers(grid.n_rows)) if rowless else None,
    )
    a = _a_blocks(
        n, grid.n_rows, rng,
        int(rng.integers(grid.n_rows)) if empty_a else None,
    )
    got, comm = _run(spgemm_15d, grid, q, a, aware)
    want, comm_want = _run(oracle.spgemm_15d, grid, q, a, aware)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g.check()
        assert g.shape == w.shape
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.indices, w.indices)
        assert g.data.tobytes() == w.data.tobytes()
    assert [comm.clock.time(r) for r in range(grid.p)] == [
        comm_want.clock.time(r) for r in range(grid.p)
    ]
    assert comm.clock.breakdown_by_kind() == comm_want.clock.breakdown_by_kind()
    assert _ledger(comm) == _ledger(comm_want)


@pytest.mark.parametrize("p,c", [(8, 2), (16, 2)])
def test_in_rank_stage_sum_is_exercised(p, c, monkeypatch):
    """q = p/c² ≥ 2 with c ≥ 2: some rank sums two stage products before
    the all-reduce sums the process row — both reductions run, and still
    equal the oracle."""
    grid = ProcessGrid(p, c)
    rng = np.random.default_rng(p + c)
    n = 64
    # Dense enough that no (stage, row) product is skipped as empty.
    q = _q_blocks("weighted", grid.n_rows, n, rng, None, density=0.6)
    a = _a_blocks(n, grid.n_rows, rng, None)
    sums = []
    real_add = CSRMatrix.add

    def counting_add(self, other):
        sums.append(self.shape)
        return real_add(self, other)

    with monkeypatch.context() as m:
        m.setattr(CSRMatrix, "add", counting_add)
        got, _ = _run(spgemm_15d, grid, q, a, True)
    want, _ = _run(oracle.spgemm_15d, grid, q, a, True)
    # Every process row: c - 1 all-reduce sums plus c (q - 1) stage sums.
    q_stages = grid.n_rows // c
    assert len(sums) == grid.n_rows * ((c - 1) + c * (q_stages - 1))
    for g, w in zip(got, want):
        assert g.data.tobytes() == w.data.tobytes()


def test_sage_bulk_builds_nothing_through_from_coo(
    small_adj, batches, monkeypatch
):
    """One SAGE partitioned bulk on (4, 2): the stage products pass
    through and the all-reduce merges on scipy's add, so nothing is
    canonicalized by ``from_coo`` (the re-canonicalizing body made 12
    calls here: per layer, one per stage product and one per process
    row's all-reduce)."""
    calls = []
    real = CSRMatrix.from_coo.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args[-1] if args else kwargs.get("shape"))
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(CSRMatrix, "from_coo", classmethod(counting))
    grid = ProcessGrid(4, 2)
    samples, _ = partitioned_bulk_sampling(
        Communicator(4), grid, SageSampler(),
        BlockRows.partition(small_adj, grid.n_rows), batches, (4, 2), seed=0,
    )
    assert len(samples) == len(batches)
    assert calls == []
