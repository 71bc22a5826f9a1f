"""Cost models for the simulated cluster.

All simulated time in this reproduction comes from two places:

* **Communication** — the alpha-beta model the paper itself uses for its
  analysis (section 2.4): a message of ``n`` bytes over a link costs
  ``alpha + beta * n`` seconds.  Links are chosen from the machine's
  two-level hierarchy (intra-node NVLink vs inter-node NIC).
* **Computation** — a roofline per device: ``kernel_overhead * kernels +
  max(flops / peak_flops, bytes / memory_bandwidth)``.

The helpers here also know how to measure the size in bytes of the payloads
our algorithms move around (numpy arrays, CSR matrices, nested containers).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..machine import MachineConfig, PERLMUTTER_LIKE
from ..sparse import CSRMatrix

__all__ = ["payload_nbytes", "CostModel", "Unscaled"]


class Unscaled:
    """Marks a payload whose wire size must ignore ``work_scale``.

    Sim-scale runs scale graph-derived payloads up to paper magnitude, but
    some payloads are already at true size regardless of the graph — model
    gradients above all.  Wrap those in ``Unscaled`` before handing them to
    a collective.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: object) -> None:
        self.payload = payload


def payload_nbytes(payload: object) -> int:
    """Wire size in bytes of a payload moved by a collective.

    Understands ``None`` (0 bytes), numbers (8 bytes), numpy arrays, our
    :class:`CSRMatrix` (indptr + indices + data), and nested lists/tuples/
    dicts of the above.
    """
    if payload is None:
        return 0
    if isinstance(payload, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, CSRMatrix):
        return int(
            payload.indptr.nbytes + payload.indices.nbytes + payload.data.nbytes
        )
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(v) for v in payload)
    declared = getattr(payload, "nbytes", None)
    if declared is not None:  # duck-typed wrappers that declare a wire size
        return int(declared)
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


class CostModel:
    """Charges simulated seconds for messages and kernels on a machine."""

    def __init__(self, machine: MachineConfig = PERLMUTTER_LIKE) -> None:
        self.machine = machine

    # -------------------------------------------------------------- #
    # Point-to-point
    # -------------------------------------------------------------- #
    def p2p(self, src: int, dst: int, nbytes: float) -> float:
        """One message of ``nbytes`` from rank ``src`` to rank ``dst``."""
        if src == dst:
            return 0.0
        return self.machine.link(src, dst).time(nbytes)

    # -------------------------------------------------------------- #
    # Collectives (bulk-synchronous; returns the common completion time)
    # -------------------------------------------------------------- #
    def _group_link(self, ranks: Sequence[int]):
        """Worst link any pair in the group must traverse."""
        nodes = {self.machine.node_of(r) for r in ranks}
        return self.machine.intra_node if len(nodes) <= 1 else self.machine.inter_node

    def bcast(self, ranks: Sequence[int], nbytes: float) -> float:
        """Binomial-tree broadcast of ``nbytes`` to ``len(ranks)`` ranks."""
        g = len(ranks)
        if g <= 1:
            return 0.0
        rounds = math.ceil(math.log2(g))
        return rounds * self._group_link(ranks).time(nbytes)

    def allreduce(self, ranks: Sequence[int], nbytes: float) -> float:
        """Ring all-reduce of an ``nbytes`` buffer over the group."""
        g = len(ranks)
        if g <= 1:
            return 0.0
        link = self._group_link(ranks)
        # Ring: 2(g-1) steps, each moving n/g bytes.
        return 2 * (g - 1) * link.alpha + 2 * link.beta * nbytes * (g - 1) / g

    def gather(self, ranks: Sequence[int], nbytes_per_rank: Iterable[float]) -> float:
        """Gather onto a root: one message per non-root rank."""
        sizes = list(nbytes_per_rank)
        g = len(sizes)
        if g <= 1:
            return 0.0
        link = self._group_link(ranks)
        return (g - 1) * link.alpha + link.beta * sum(sizes[1:])

    def allgather(self, ranks: Sequence[int], nbytes_per_rank: Iterable[float]) -> float:
        """Ring all-gather; every rank ends with every contribution."""
        sizes = list(nbytes_per_rank)
        g = len(sizes)
        if g <= 1:
            return 0.0
        link = self._group_link(ranks)
        return (g - 1) * link.alpha + link.beta * sum(sizes)

    def alltoallv_rank(
        self, rank: int, ranks: Sequence[int], sent: float, received: float
    ) -> float:
        """Per-rank cost of an all-to-allv: pairwise exchange rounds.

        Each rank pays latency for ``g - 1`` peer messages plus bandwidth for
        whichever direction dominates (sends and receives overlap on
        full-duplex links).

        When the group spans nodes, ranks sharing a node contend for its
        NIC: the bandwidth term is multiplied by the number of group members
        on ``rank``'s node.  This is why the paper's feature fetch scales
        with the replication factor — a process column with ``c >= 4`` has
        one member per node (no contention) while a flat all-to-all over
        all GPUs (Quiver, or c = 1) has a whole node's GPUs behind one NIC.
        """
        g = len(ranks)
        if g <= 1:
            return 0.0
        link = self._group_link(ranks)
        contention = 1
        if link is self.machine.inter_node:
            node = self.machine.node_of(rank)
            contention = sum(1 for r in ranks if self.machine.node_of(r) == node)
        return (g - 1) * link.alpha + link.beta * contention * max(sent, received)

    # -------------------------------------------------------------- #
    # Computation
    # -------------------------------------------------------------- #
    def compute(self, flops: float = 0.0, nbytes: float = 0.0, kernels: int = 1) -> float:
        """Device (GPU) kernel time under the roofline model."""
        return self.machine.device.time(flops=flops, nbytes=nbytes, kernels=kernels)

    def host_compute(self, flops: float = 0.0, nbytes: float = 0.0) -> float:
        """Host (CPU) time: flop-bound at the machine's host throughput."""
        if flops < 0 or nbytes < 0:
            raise ValueError("flops and bytes must be non-negative")
        return max(flops / self.machine.host_flops_per_s, nbytes / self.machine.host_bw)

    def host_transfer(self, nbytes: float) -> float:
        """Moving ``nbytes`` between host DRAM and a device (PCIe-class link)."""
        if nbytes < 0:
            raise ValueError("bytes must be non-negative")
        return nbytes / self.machine.host_bw
