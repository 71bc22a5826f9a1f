"""Machine and architecture configuration for the simulated runtime.

The paper evaluates on NERSC Perlmutter: 4x NVIDIA A100 per node, NVLink 3.0
within a GPU pair (100 GB/s unidirectional), 4x HPE Slingshot 11 NICs per
node (25 GB/s injection each).  We model this as a two-level hierarchy:
fast intra-node links and slower inter-node links, each described by an
``alpha``/``beta`` pair (latency seconds / seconds-per-byte), plus a roofline
compute model per device.

These numbers set the *scale* of simulated time; all figure reproductions
depend only on the relative magnitudes (intra >> inter bandwidth, GPU >>
PCIe/DRAM bandwidth), which are faithful to the published hardware specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "LinkModel",
    "DeviceModel",
    "MachineConfig",
    "PERLMUTTER_LIKE",
    "ArchitectureConfig",
    "SAGE_ARCH",
    "LADIES_ARCH",
]


@dataclass(frozen=True)
class LinkModel:
    """An alpha-beta communication link: ``time = alpha + beta * bytes``."""

    alpha: float  # latency per message (seconds)
    beta: float  # seconds per byte (reciprocal bandwidth)

    def time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` over this link (one message)."""
        if nbytes < 0:
            raise ValueError(f"message size must be non-negative, got {nbytes}")
        return self.alpha + self.beta * float(nbytes)


@dataclass(frozen=True)
class DeviceModel:
    """Roofline compute model for one device (a GPU in the paper).

    ``time = kernel_overhead + max(flops / flops_per_s, bytes / mem_bw)``

    The per-kernel launch overhead is what makes *per-batch* sampling slow
    relative to *bulk* sampling: bulk sampling issues O(L) kernels per k
    minibatches instead of O(L) kernels per minibatch, which is exactly the
    amortization argument of the paper (section 4, section 8.1.1).
    """

    flops_per_s: float
    mem_bw: float  # bytes per second
    kernel_overhead: float  # seconds per kernel launch
    memory_bytes: float  # device memory capacity

    def time(self, flops: float = 0.0, nbytes: float = 0.0, kernels: int = 1) -> float:
        """Execution time of ``kernels`` launches doing ``flops``/``nbytes`` total."""
        if flops < 0 or nbytes < 0 or kernels < 0:
            raise ValueError("flops, bytes and kernel count must be non-negative")
        work = max(flops / self.flops_per_s, nbytes / self.mem_bw)
        return kernels * self.kernel_overhead + work


@dataclass(frozen=True)
class MachineConfig:
    """A cluster: homogeneous devices grouped into nodes with two link tiers."""

    name: str
    devices_per_node: int
    device: DeviceModel
    intra_node: LinkModel
    inter_node: LinkModel
    # Host-side (CPU/DRAM over PCIe) path, used by the Quiver-UVA baseline
    # and by CPU reference baselines.
    host_bw: float = 25e9  # bytes/s DRAM<->GPU over PCIe-ish link
    host_flops_per_s: float = 1e12  # CPU throughput for CPU-side sampling

    def node_of(self, rank: int) -> int:
        """Node index hosting device ``rank``."""
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        return rank // self.devices_per_node

    def link(self, src: int, dst: int) -> LinkModel:
        """The link model connecting two device ranks."""
        if self.node_of(src) == self.node_of(dst):
            return self.intra_node
        return self.inter_node


#: Default machine: Perlmutter-like A100 nodes.  Bandwidths follow the paper's
#: system description (section 7.2); FLOP rate is A100 fp32 tensor-core order.
PERLMUTTER_LIKE = MachineConfig(
    name="perlmutter-like",
    devices_per_node=4,
    device=DeviceModel(
        flops_per_s=19.5e12,  # A100 fp32
        mem_bw=1555e9,  # HBM2e
        kernel_overhead=8e-6,  # ~8us per kernel launch
        memory_bytes=80e9,
    ),
    intra_node=LinkModel(alpha=2.5e-6, beta=1.0 / 100e9),  # NVLink 3.0
    inter_node=LinkModel(alpha=10e-6, beta=1.0 / 25e9),  # Slingshot 11 NIC
)


@dataclass(frozen=True)
class ArchitectureConfig:
    """GNN architecture hyper-parameters (paper Table 4)."""

    name: str
    batch_size: int
    fanout: tuple[int, ...]  # per-layer sample counts, last layer first
    hidden: int
    layers: int
    test_fanout: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.layers != len(self.fanout):
            raise ValueError(
                f"fanout {self.fanout} must list one sample count per layer "
                f"(layers={self.layers})"
            )
        if self.batch_size <= 0 or self.hidden <= 0:
            raise ValueError("batch_size and hidden must be positive")


#: Paper Table 4, row 1: GraphSAGE with batch 1024, fanout (15, 10, 5).
SAGE_ARCH = ArchitectureConfig(
    name="SAGE",
    batch_size=1024,
    fanout=(15, 10, 5),
    hidden=256,
    layers=3,
    test_fanout=(20, 20, 20),
)

#: Paper Table 4, row 2: LADIES with batch 512, layer width 512, one layer.
LADIES_ARCH = ArchitectureConfig(
    name="LADIES",
    batch_size=512,
    fanout=(512,),
    hidden=256,
    layers=1,
)
