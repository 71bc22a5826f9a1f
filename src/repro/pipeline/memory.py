"""Device-memory feasibility model.

The paper reports each configuration with "the highest possible replication
factor (c) and bulk minibatch count (k) without going out of memory"
(section 7.3), and Quiver's preprocessing OOMs on Papers at 128 GPUs.  This
module estimates per-device memory at *paper scale* from dataset statistics
so benchmarks can annotate runs the same way and mark OOM points.

Estimates are deliberately simple (CSR bytes + fp32 features + sampling
working set); they only need to rank configurations, not predict megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.datasets import DatasetSpec
from ..machine import ArchitectureConfig, MachineConfig, PERLMUTTER_LIKE

__all__ = ["MemoryModel", "choose_c_k", "quiver_fits"]

_IDX = 8  # bytes per index
_VAL = 4  # bytes per stored value (fp32)


@dataclass(frozen=True)
class MemoryModel:
    """Byte estimates for the pieces resident on one device."""

    spec: DatasetSpec
    arch: ArchitectureConfig

    def graph_bytes(self) -> float:
        """Full CSR adjacency (replicated algorithms)."""
        return self.spec.edges * (_IDX + _VAL) + self.spec.vertices * _IDX

    def graph_partition_bytes(self, p: int, c: int) -> float:
        """One 1.5D block row of the adjacency."""
        return self.graph_bytes() * c / p

    def feature_bytes(self, p: int, c: int) -> float:
        """One 1.5D block row of the feature matrix."""
        return self.spec.vertices * self.spec.features * _VAL * c / p

    #: Multiplier covering SpGEMM expand-phase intermediates, CSR-to-CSR
    #: copies and framework slack on top of the raw stacked matrices.
    #: Calibrated so the paper's Figure 4 (c, k) annotations come out
    #: qualitatively: k < "all" on dense datasets at small p, k = "all"
    #: once aggregate memory grows.
    workspace_factor: float = 8.0

    def bulk_sampling_bytes(self, k: int) -> float:
        """Working set of bulk-sampling k batches (stacked P/Q/A^l).

        The dominant matrix is the deepest stacked probability matrix:
        about ``k * b * prod(fanout[:-1])`` rows with the average degree's
        nonzeros each before sampling cuts them down.
        """
        rows = k * self.arch.batch_size
        frontier = 1.0
        total = 0.0
        for s in self.arch.fanout:
            total += rows * frontier * self.spec.avg_degree * (_IDX + _VAL)
            frontier *= s
        return self.workspace_factor * total

    def pipeline_fits(
        self, p: int, c: int, k: int, *, replicated_graph: bool,
        machine: MachineConfig = PERLMUTTER_LIKE,
    ) -> bool:
        """Whether one device holds the pipeline's working set."""
        graph = (
            self.graph_bytes()
            if replicated_graph
            else self.graph_partition_bytes(p, c)
        )
        need = graph + self.feature_bytes(p, c) + self.bulk_sampling_bytes(
            max(1, k // p)
        )
        return need < 0.9 * machine.device.memory_bytes


def choose_c_k(
    spec: DatasetSpec,
    arch: ArchitectureConfig,
    p: int,
    *,
    replicated_graph: bool = True,
    machine: MachineConfig = PERLMUTTER_LIKE,
) -> tuple[int, int]:
    """Pick (c, k) for ``p`` devices, paper-style (section 7.3).

    The paper grows the replication factor with the aggregate memory —
    empirically ``c ≈ p/4`` capped at 8 across Figure 4's annotations — and
    then bulks as many minibatches as fit (k capped at the dataset's batch
    count, printed as "k=all").  We mirror that: the largest power-of-two
    ``c`` dividing ``p`` with ``c <= min(8, p/4)`` that also fits memory,
    then the largest fitting ``k``.
    """
    model = MemoryModel(spec, arch)
    cap = min(8, max(1, p // 4))
    best_c = 1
    c = 1
    while c * 2 <= cap and p % (c * 2) == 0:
        c *= 2
    for cand in (c, c // 2, c // 4, 1):
        if cand >= 1 and p % cand == 0 and model.pipeline_fits(
            p, cand, 1, replicated_graph=replicated_graph, machine=machine
        ):
            best_c = cand
            break
    k = spec.batches
    while k > 1 and not model.pipeline_fits(
        p, best_c, k, replicated_graph=replicated_graph, machine=machine
    ):
        k //= 2
    return best_c, max(1, k)


def quiver_fits(
    spec: DatasetSpec,
    *,
    machine: MachineConfig = PERLMUTTER_LIKE,
    preprocessing_factor: float = 3.0,
) -> bool:
    """Whether Quiver's fully-replicated preprocessing fits one device.

    Quiver replicates the topology per device (with a transient multiple of
    its size during preprocessing) alongside the full feature matrix; the
    paper observed the resulting OOM on Papers at 128 GPUs.
    """
    model = MemoryModel(spec, ArchitectureConfig("probe", 1024, (1,), 1, 1))
    features = spec.vertices * spec.features * _VAL
    need = preprocessing_factor * model.graph_bytes() + features
    return need < machine.device.memory_bytes
