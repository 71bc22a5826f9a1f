"""Simulated runtime: cost model, clocks, collectives, grids, ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import (
    Communicator,
    CostModel,
    ProcessGrid,
    SimClock,
    payload_nbytes,
)
from repro.machine import PERLMUTTER_LIKE, LinkModel
from repro.sparse import sprand


class TestPayloadSizes:
    def test_basic_types(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(np.zeros(10)) == 80

    def test_csr_counts_all_arrays(self, rng):
        m = sprand(10, 10, 0.2, rng)
        expected = m.indptr.nbytes + m.indices.nbytes + m.data.nbytes
        assert payload_nbytes(m) == expected

    def test_nested_containers(self):
        assert payload_nbytes([np.zeros(2), (1, None)]) == 16 + 8
        assert payload_nbytes({"a": np.zeros(4)}) == 32

    def test_duck_typed_wire_size(self):
        class Sized:
            nbytes = 77

        assert payload_nbytes(Sized()) == 77

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            payload_nbytes(object())


class TestCostModel:
    def test_link_selection_by_node(self):
        m = PERLMUTTER_LIKE  # 4 devices per node
        cost = CostModel(m)
        intra = cost.p2p(0, 1, 1e6)
        inter = cost.p2p(0, 4, 1e6)
        assert inter > intra  # crossing a node is slower
        assert cost.p2p(2, 2, 1e6) == 0.0

    def test_link_time_formula(self):
        link = LinkModel(alpha=1e-6, beta=1e-9)
        assert link.time(1000) == pytest.approx(1e-6 + 1e-6)
        with pytest.raises(ValueError):
            link.time(-1)

    def test_collective_costs_scale_with_group(self):
        cost = CostModel(PERLMUTTER_LIKE)
        small = cost.allreduce(range(2), 1e6)
        large = cost.allreduce(range(16), 1e6)
        assert large > small
        assert cost.allreduce(range(1), 1e6) == 0.0
        assert cost.bcast(range(1), 1e6) == 0.0

    def test_compute_roofline(self):
        cost = CostModel(PERLMUTTER_LIKE)
        flop_bound = cost.compute(flops=1e12, nbytes=0, kernels=0)
        mem_bound = cost.compute(flops=0, nbytes=1e12, kernels=0)
        dev = PERLMUTTER_LIKE.device
        assert flop_bound == pytest.approx(1e12 / dev.flops_per_s)
        assert mem_bound == pytest.approx(1e12 / dev.mem_bw)

    def test_kernel_overhead_dominates_tiny_work(self):
        cost = CostModel(PERLMUTTER_LIKE)
        t = cost.compute(flops=10, kernels=100)
        assert t > 99 * PERLMUTTER_LIKE.device.kernel_overhead

    def test_host_paths(self):
        cost = CostModel(PERLMUTTER_LIKE)
        assert cost.host_transfer(25e9) == pytest.approx(1.0)
        assert cost.host_compute(flops=1e12) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cost.host_transfer(-1)


class TestSimClock:
    def test_advance_and_elapsed(self):
        clk = SimClock(3)
        clk.advance(0, 1.0)
        clk.advance(1, 2.0, "comm")
        assert clk.time(0) == 1.0
        assert clk.elapsed() == 2.0

    def test_barrier_synchronizes(self):
        clk = SimClock(3)
        clk.advance(2, 5.0)
        t = clk.barrier([0, 2])
        assert t == 5.0
        assert clk.time(0) == 5.0
        assert clk.time(1) == 0.0  # not in the barrier group

    def test_phase_attribution(self):
        clk = SimClock(2)
        with clk.phase("sampling"):
            clk.advance(0, 1.0)
            clk.advance(1, 3.0, "comm")
        with clk.phase("fetch"):
            clk.advance(0, 2.0)
        assert clk.phase_seconds("sampling") == 3.0  # max over ranks
        assert clk.phase_seconds("sampling", "comm") == 3.0
        assert clk.phase_seconds("sampling", "compute") == 1.0
        assert clk.phase_seconds("fetch") == 2.0
        assert clk.breakdown() == {"sampling": 3.0, "fetch": 2.0}

    def test_nested_phases(self):
        clk = SimClock(1)
        with clk.phase("outer"):
            with clk.phase("inner"):
                clk.advance(0, 1.0)
            clk.advance(0, 1.0)
        assert clk.phase_seconds("inner") == 1.0
        assert clk.phase_seconds("outer") == 1.0

    def test_invalid_inputs(self):
        clk = SimClock(1)
        with pytest.raises(ValueError):
            clk.advance(0, -1.0)
        with pytest.raises(ValueError):
            clk.advance(0, 1.0, "weird")
        with pytest.raises(ValueError):
            SimClock(0)

    def test_reset(self):
        clk = SimClock(2)
        clk.advance(0, 1.0)
        clk.reset()
        assert clk.elapsed() == 0.0
        assert clk.breakdown() == {}


class TestProcessGrid:
    def test_shape_and_coords(self):
        g = ProcessGrid(8, 2)
        assert g.n_rows == 4
        assert g.coords(5) == (2, 1)
        assert g.rank(2, 1) == 5
        assert g.row_ranks(1) == [2, 3]
        assert g.col_ranks(0) == [0, 2, 4, 6]
        assert g.all_ranks() == list(range(8))

    def test_degenerate_1d(self):
        g = ProcessGrid(4, 1)
        assert g.n_rows == 4
        assert g.row_ranks(2) == [2]
        assert g.col_ranks(0) == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessGrid(8, 3)  # c must divide p
        with pytest.raises(ValueError):
            ProcessGrid(0, 1)
        g = ProcessGrid(4, 2)
        with pytest.raises(ValueError):
            g.coords(4)
        with pytest.raises(ValueError):
            g.rank(2, 0)


class TestCollectives:
    def test_bcast_returns_value_and_charges(self):
        comm = Communicator(4)
        out = comm.bcast(np.arange(10), [0, 1, 2, 3])
        assert np.array_equal(out, np.arange(10))
        assert comm.clock.elapsed() > 0
        assert comm.ledger.received() == 3 * 80

    def test_allreduce_sums_arrays(self):
        comm = Communicator(4)
        out = comm.allreduce([np.full(3, float(r)) for r in range(4)], range(4))
        assert np.allclose(out, 6.0)

    def test_allreduce_sums_csr(self, rng):
        comm = Communicator(2)
        a = sprand(5, 5, 0.3, rng)
        b = sprand(5, 5, 0.3, rng)
        out = comm.allreduce([a, b], [0, 1])
        assert np.allclose(out.to_dense(), a.to_dense() + b.to_dense())

    def test_allreduce_single_rank_is_free(self):
        comm = Communicator(2)
        comm.allreduce([np.ones(5)], [1])
        assert comm.clock.elapsed() == 0.0

    def test_gather_collects_in_order(self):
        comm = Communicator(3)
        out = comm.gather([10, 20, 30], [0, 1, 2], root_pos=1)
        assert out == [10, 20, 30]
        # Root received the two non-root payloads.
        assert comm.ledger.received(rank=1) == 16

    def test_allgather(self):
        comm = Communicator(3)
        out = comm.allgather([np.full(2, r) for r in range(3)], range(3))
        assert len(out) == 3 and np.allclose(out[2], 2)

    def test_alltoallv_transposes_payloads(self):
        comm = Communicator(3)
        send = [[(i, j) for j in range(3)] for i in range(3)]
        send = [[np.array([i * 10 + j]) for j in range(3)] for i in range(3)]
        recv = comm.alltoallv(send, [0, 1, 2])
        for i in range(3):
            for j in range(3):
                assert recv[j][i][0] == i * 10 + j

    def test_alltoallv_shape_validation(self):
        comm = Communicator(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[1]], [0, 1])

    def test_scatterv(self):
        comm = Communicator(4)
        payloads = [np.full(r + 1, r) for r in range(4)]
        out = comm.scatterv(payloads, [0, 1, 2, 3], root_pos=0)
        assert np.allclose(out[3], 3)
        # Root sent all non-root bytes.
        assert comm.ledger.sent(rank=0) == 8 * (2 + 3 + 4)

    def test_p2p(self):
        comm = Communicator(2)
        out = comm.p2p(0, 1, np.ones(4))
        assert np.allclose(out, 1.0)
        assert comm.ledger.sent(rank=0) == 32
        assert comm.ledger.received(rank=1) == 32
        assert comm.p2p(1, 1, 5) == 5  # self-send is free

    def test_group_validation(self):
        comm = Communicator(4)
        with pytest.raises(ValueError):
            comm.bcast(1, [0, 0])
        with pytest.raises(ValueError):
            comm.bcast(1, [0, 7])
        with pytest.raises(ValueError):
            comm.allreduce([1], [0, 1])

    def test_inter_node_collectives_cost_more(self):
        comm = Communicator(8)
        comm.allreduce([np.ones(1000)] * 4, [0, 1, 2, 3])  # one node
        t_intra = comm.clock.elapsed()
        comm2 = Communicator(8)
        comm2.allreduce([np.ones(1000)] * 4, [0, 2, 4, 6])  # spans nodes
        assert comm2.clock.elapsed() > t_intra


class TestVolumeLedger:
    def test_phase_filtering(self):
        comm = Communicator(2)
        with comm.phase("a"):
            comm.p2p(0, 1, np.ones(2))
        with comm.phase("b"):
            comm.p2p(1, 0, np.ones(4))
        assert comm.ledger.sent("a") == 16
        assert comm.ledger.sent("b") == 32
        assert comm.ledger.sent() == 48
        assert comm.ledger.phases() == ["a", "b"]
        assert comm.ledger.messages("a") == 1

    def test_reset(self):
        comm = Communicator(2)
        comm.p2p(0, 1, np.ones(2))
        comm.ledger.reset()
        assert comm.ledger.sent() == 0
