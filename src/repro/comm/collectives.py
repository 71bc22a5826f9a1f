"""The simulated communicator: collectives with alpha-beta charged clocks.

Distributed algorithms in this codebase are written SPMD-as-orchestration:
single-threaded code holds every rank's local state in a list and calls one
of these collectives with all ranks' payloads at once.  Each call

* synchronizes the participating ranks (bulk-synchronous semantics),
* charges each rank's clock per the :class:`~repro.comm.cost_model.CostModel`,
* records bytes moved in the :class:`~repro.comm.volume.VolumeLedger`,
* returns the values each rank would hold afterwards.

Returned payloads may alias the inputs — simulated ranks must treat received
payloads as read-only (as real NCCL receive buffers effectively are here).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..machine import MachineConfig, PERLMUTTER_LIKE
from ..sparse import CSRMatrix
from .clock import SimClock
from .cost_model import CostModel, Unscaled, payload_nbytes
from .volume import VolumeLedger

__all__ = ["Communicator"]


def _default_reduce(values: Sequence[object]) -> object:
    """Element-wise sum for ndarrays, numbers and CSR matrices."""
    first = values[0]
    if isinstance(first, np.ndarray):
        return np.sum(np.stack(values, axis=0), axis=0)
    if isinstance(first, CSRMatrix):
        acc = first
        for v in values[1:]:
            acc = acc.add(v)
        return acc
    return sum(values)


class Communicator:
    """Simulated world of ``world_size`` ranks on one machine model.

    ``work_scale`` linearly scales every payload size, flop count and byte
    count (but *not* kernel-launch counts) before costs are charged.  It is
    how sim-scale workloads are charged at paper-scale magnitudes: a graph
    generated at 1/S of the paper's size, driven with ``work_scale=S``,
    produces the paper's cost balance between fixed per-kernel overheads
    (scale-independent, the bulk-amortization term) and scalable
    compute/communication work.
    """

    def __init__(
        self,
        world_size: int,
        machine: MachineConfig = PERLMUTTER_LIKE,
        *,
        work_scale: float = 1.0,
    ) -> None:
        if work_scale <= 0:
            raise ValueError(f"work_scale must be positive, got {work_scale}")
        self.world_size = world_size
        self.clock = SimClock(world_size)
        self.cost = CostModel(machine)
        self.ledger = VolumeLedger(world_size)
        self.work_scale = float(work_scale)

    def _nbytes(self, payload: object) -> float:
        """Wire size of a payload, scaled to paper magnitude.

        :class:`~repro.comm.cost_model.Unscaled` wrappers opt out of the
        scaling (payloads already at true size, e.g. model gradients).
        """
        if isinstance(payload, Unscaled):
            return payload_nbytes(payload.payload)
        return payload_nbytes(payload) * self.work_scale

    # -------------------------------------------------------------- #
    # Conveniences
    # -------------------------------------------------------------- #
    def phase(self, name: str):
        """Open a named phase for time/volume attribution."""
        return self.clock.phase(name)

    def compute(
        self, rank: int, flops: float = 0.0, nbytes: float = 0.0, kernels: int = 1
    ) -> None:
        """Charge ``rank`` for device kernels under the roofline model."""
        self.clock.advance(
            rank,
            self.cost.compute(
                flops * self.work_scale, nbytes * self.work_scale, kernels
            ),
            "compute",
        )

    def host_compute(self, rank: int, flops: float = 0.0, nbytes: float = 0.0) -> None:
        """Charge ``rank`` for host-side (CPU) computation."""
        self.clock.advance(
            rank,
            self.cost.host_compute(flops * self.work_scale, nbytes * self.work_scale),
            "compute",
        )

    def host_transfer(self, rank: int, nbytes: float) -> None:
        """Charge ``rank`` for a host<->device transfer (PCIe-class)."""
        self.clock.advance(
            rank, self.cost.host_transfer(nbytes * self.work_scale), "comm"
        )

    def _check_group(self, ranks: Sequence[int]) -> None:
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group {ranks}")
        if any(r < 0 or r >= self.world_size for r in ranks):
            raise ValueError(f"rank out of range in group {ranks}")

    # -------------------------------------------------------------- #
    # Collectives
    # -------------------------------------------------------------- #
    def bcast(self, value: object, ranks: Sequence[int], root_pos: int = 0) -> object:
        """Broadcast ``value`` from ``ranks[root_pos]`` to the group."""
        self._check_group(ranks)
        nbytes = self._nbytes(value)
        self.clock.barrier(ranks)
        dt = self.cost.bcast(ranks, nbytes)
        phase = self.clock.current_phase
        for pos, r in enumerate(ranks):
            self.clock.advance(r, dt, "comm")
            if pos == root_pos:
                self.ledger.record_send(phase, r, nbytes * (len(ranks) - 1), len(ranks) - 1)
            else:
                self.ledger.record_recv(phase, r, nbytes)
        return value

    def allreduce(
        self,
        values: Sequence[object],
        ranks: Sequence[int],
        op: Callable[[Sequence[object]], object] = _default_reduce,
    ) -> object:
        """All-reduce the per-rank ``values``; every rank gets the result."""
        self._check_group(ranks)
        if len(values) != len(ranks):
            raise ValueError("one value per participating rank required")
        nbytes = max(self._nbytes(v) for v in values)
        self.clock.barrier(ranks)
        dt = self.cost.allreduce(ranks, nbytes)
        phase = self.clock.current_phase
        g = len(ranks)
        ring_bytes = 2 * nbytes * (g - 1) / g if g > 1 else 0.0
        for r in ranks:
            self.clock.advance(r, dt, "comm")
            self.ledger.record_send(phase, r, ring_bytes, 2 * (g - 1))
            self.ledger.record_recv(phase, r, ring_bytes)
        return op(list(values))

    def gather(
        self, values: Sequence[object], ranks: Sequence[int], root_pos: int = 0
    ) -> list[object]:
        """Gather per-rank ``values`` onto ``ranks[root_pos]``."""
        self._check_group(ranks)
        if len(values) != len(ranks):
            raise ValueError("one value per participating rank required")
        sizes = [self._nbytes(v) for v in values]
        # Order sizes so the root contributes nothing to the wire.
        wire = [sizes[root_pos]] + [s for i, s in enumerate(sizes) if i != root_pos]
        self.clock.barrier(ranks)
        dt = self.cost.gather(ranks, wire)
        phase = self.clock.current_phase
        for pos, r in enumerate(ranks):
            self.clock.advance(r, dt, "comm")
            if pos == root_pos:
                self.ledger.record_recv(phase, r, sum(wire[1:]))
            else:
                self.ledger.record_send(phase, r, sizes[pos], 1)
        return list(values)

    def allgather(
        self, values: Sequence[object], ranks: Sequence[int]
    ) -> list[object]:
        """All-gather: every rank receives every rank's value, in group order."""
        self._check_group(ranks)
        if len(values) != len(ranks):
            raise ValueError("one value per participating rank required")
        sizes = [self._nbytes(v) for v in values]
        self.clock.barrier(ranks)
        dt = self.cost.allgather(ranks, sizes)
        phase = self.clock.current_phase
        total = sum(sizes)
        for pos, r in enumerate(ranks):
            self.clock.advance(r, dt, "comm")
            self.ledger.record_send(phase, r, sizes[pos] * (len(ranks) - 1), len(ranks) - 1)
            self.ledger.record_recv(phase, r, total - sizes[pos])
        return list(values)

    def alltoallv(
        self, send: Sequence[Sequence[object]], ranks: Sequence[int]
    ) -> list[list[object]]:
        """Personalized all-to-all: ``send[i][j]`` goes from group position
        ``i`` to position ``j``.  Returns ``recv`` with ``recv[j][i] ==
        send[i][j]``.  Each rank is charged for its own send/receive volume,
        then the group synchronizes (bulk-synchronous step).
        """
        self._check_group(ranks)
        g = len(ranks)
        if len(send) != g or any(len(row) != g for row in send):
            raise ValueError(f"send must be a {g}x{g} payload matrix")
        sizes = [[self._nbytes(send[i][j]) for j in range(g)] for i in range(g)]
        self.clock.barrier(ranks)
        phase = self.clock.current_phase
        for pos, r in enumerate(ranks):
            sent = sum(sizes[pos][j] for j in range(g) if j != pos)
            received = sum(sizes[i][pos] for i in range(g) if i != pos)
            dt = self.cost.alltoallv_rank(r, ranks, sent, received)
            self.clock.advance(r, dt, "comm")
            self.ledger.record_send(phase, r, sent, g - 1)
            self.ledger.record_recv(phase, r, received)
        self.clock.barrier(ranks)
        return [[send[i][j] for i in range(g)] for j in range(g)]

    def scatterv(
        self,
        payloads: Sequence[object],
        ranks: Sequence[int],
        root_pos: int = 0,
    ) -> list[object]:
        """Personalized scatter: the root sends ``payloads[i]`` to group
        position ``i``.  The root's sends overlap in latency (ISend) but
        serialize on its injection bandwidth; each receiver pays one
        message.  This models Algorithm 2's row-data distribution.
        """
        self._check_group(ranks)
        if len(payloads) != len(ranks):
            raise ValueError("one payload per participating rank required")
        root = ranks[root_pos]
        sizes = [self._nbytes(v) for v in payloads]
        self.clock.barrier(ranks)
        phase = self.clock.current_phase
        total_sent = sum(s for i, s in enumerate(sizes) if i != root_pos)
        link = self.cost._group_link(ranks)
        self.clock.advance(root, link.alpha + link.beta * total_sent, "comm")
        self.ledger.record_send(phase, root, total_sent, len(ranks) - 1)
        for pos, r in enumerate(ranks):
            if pos == root_pos:
                continue
            self.clock.advance(r, link.alpha + link.beta * sizes[pos], "comm")
            self.ledger.record_recv(phase, r, sizes[pos])
        return list(payloads)

    def p2p(self, src: int, dst: int, payload: object) -> object:
        """Blocking send/receive of one payload between two ranks."""
        self._check_group([src, dst]) if src != dst else None
        if src == dst:
            return payload
        nbytes = self._nbytes(payload)
        self.clock.barrier([src, dst])
        dt = self.cost.p2p(src, dst, nbytes)
        phase = self.clock.current_phase
        for r in (src, dst):
            self.clock.advance(r, dt, "comm")
        self.ledger.record_send(phase, src, nbytes, 1)
        self.ledger.record_recv(phase, dst, nbytes)
        return payload
