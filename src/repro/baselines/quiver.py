"""A cost-model reimplementation of the Quiver baseline (paper section 7.3).

Quiver (torch-quiver) is the paper's GraphSAGE comparator: a PyG extension
that replicates the graph on every device, samples each minibatch
individually on GPU (or with UVA: the topology in host DRAM accessed
through unified addressing) and fetches features without the paper's
replication-aware all-to-allv.  The strategic differences from our
pipeline, all reproduced here:

* **Per-batch sampling** — no bulk amortization: every minibatch re-issues
  the full set of sampling kernels (section 8.1.1's amortization argument).
* **Flat feature fetching** — features are 1D-partitioned over all ``p``
  ranks and every fetch is an all-to-allv across all of them, with no
  dedup of repeated neighbors; on dense graphs the duplicated volume is
  what keeps Quiver from scaling (section 8.1.1).
* **UVA mode** — sampling reads the topology from host DRAM over a
  PCIe-class link, and 80% of feature rows come from DRAM with 20% cached
  on device (Figure 5's configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..comm import Communicator, ProcessGrid, Unscaled
from ..config import MachineConfig, PERLMUTTER_LIKE
from ..core import MinibatchSample, SageSampler, assign_round_robin
from ..distributed import charge_sampling, record_sampling
from ..graphs import Graph
from ..partition import FeatureStore
from ..pipeline.stats import EpochStats

__all__ = ["QuiverConfig", "QuiverBaseline"]


@dataclass
class QuiverConfig:
    """Configuration of one Quiver run."""

    p: int
    mode: str = "gpu"  # "gpu" (topology on device) | "uva" (topology in DRAM)
    fanout: tuple[int, ...] = (15, 10, 5)
    batch_size: int = 1024
    seed: int = 0
    hidden: int = 256  # model width used for propagation cost parity
    dram_feature_fraction: float = 0.8  # UVA: rows served from host DRAM
    #: Fraction of UVA topology traffic hidden behind GPU compute.  UVA
    #: reads are prefetched/coalesced and overlap with the sampling
    #: kernels, so only the non-overlapped remainder stalls the pipeline.
    uva_overlap: float = 0.875
    work_scale: float = 1.0  # sim-to-paper workload scale (see Communicator)
    machine: MachineConfig = field(default_factory=lambda: PERLMUTTER_LIKE)

    def __post_init__(self) -> None:
        if self.mode not in ("gpu", "uva"):
            raise ValueError(f"unknown Quiver mode {self.mode!r}")
        if self.p <= 0:
            raise ValueError("p must be positive")
        if not 0.0 <= self.dram_feature_fraction <= 1.0:
            raise ValueError("dram_feature_fraction must be in [0, 1]")
        if not 0.0 <= self.uva_overlap < 1.0:
            raise ValueError("uva_overlap must be in [0, 1)")


class QuiverBaseline:
    """Simulated per-epoch timing of Quiver GraphSAGE training."""

    def __init__(self, graph: Graph, config: QuiverConfig) -> None:
        if graph.features is None:
            raise ValueError("Quiver baseline needs node features")
        self.graph = graph
        self.config = config
        self.comm = Communicator(
            config.p, config.machine, work_scale=config.work_scale
        )
        # Features flat-sharded over all ranks: a 1.5D grid with c = 1.
        self.grid = ProcessGrid(config.p, 1)
        self.store = FeatureStore(graph.features, self.grid)
        self.sampler = SageSampler(include_dst=True)

    # ------------------------------------------------------------------ #
    def _sample_per_batch(
        self, batches: list[np.ndarray], seed: int
    ) -> list[list[MinibatchSample]]:
        """Per-batch (non-bulk) sampling on every rank's share."""
        cfg = self.config
        owners = assign_round_robin(len(batches), cfg.p)
        per_rank: list[list[MinibatchSample]] = []
        with self.comm.phase("sampling"):
            for rank in range(cfg.p):
                mine: list[MinibatchSample] = []
                rng = np.random.default_rng(np.random.SeedSequence([seed, rank]))
                for i in owners[rank]:
                    out, work = record_sampling(
                        self.sampler, self.graph.adj, [batches[i]],
                        cfg.fanout, rng,
                    )
                    charge_sampling(self.comm, rank, work, len(cfg.fanout))
                    if cfg.mode == "uva":
                        # Topology reads traverse the host link; most of the
                        # traffic overlaps with the sampling kernels.
                        self.comm.host_transfer(
                            rank, (1.0 - cfg.uva_overlap) * work.spgemm_nbytes
                        )
                    mine.extend(out)
                per_rank.append(mine)
            self.comm.clock.barrier()
        return per_rank

    def _fetch_round(self, current: list[MinibatchSample | None]) -> None:
        """One round of Quiver feature fetching (no dedup, flat group)."""
        cfg = self.config
        needed = []
        for mb in current:
            if mb is None:
                needed.append(np.empty(0, dtype=np.int64))
                continue
            # No dedup: each sampled edge pulls its source row separately.
            layer0 = mb.layers[0]
            needed.append(layer0.src_ids[layer0.adj.indices])
        with self.comm.phase("feature_fetch"):
            self.store.fetch(self.comm, needed)
            if cfg.mode == "uva":
                for rank, ids in enumerate(needed):
                    dram_rows = cfg.dram_feature_fraction * len(ids)
                    self.comm.host_transfer(
                        rank, self.store.wire_bytes(int(dram_rows))
                    )

    def _propagation_round(self, current: list[MinibatchSample | None]) -> None:
        from ..gnn.model import propagation_flops

        cfg = self.config
        hidden = cfg.hidden
        n_classes = max(2, self.graph.n_classes)
        with self.comm.phase("propagation"):
            for rank, mb in enumerate(current):
                if mb is None:
                    continue
                dims = (
                    [self.graph.n_features]
                    + [hidden] * (len(cfg.fanout) - 1)
                    + [n_classes]
                )
                self.comm.compute(
                    rank,
                    flops=propagation_flops(mb, dims),
                    nbytes=32.0 * mb.total_edges(),
                    kernels=6 * len(mb.layers),
                )
            # Gradients are model-sized (not graph-sized): unscaled wire.
            grad_payload = Unscaled(
                np.empty(
                    (self.graph.n_features + len(cfg.fanout) * hidden)
                    * hidden
                    // 8
                )
            )
            self.comm.allreduce(
                [grad_payload] * cfg.p, list(range(cfg.p)),
                op=lambda vals: vals[0],
            )

    # ------------------------------------------------------------------ #
    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """Simulate one epoch; returns the Figure-4-style phase breakdown."""
        cfg = self.config
        self.comm.clock.reset()
        self.comm.ledger.reset()
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17, epoch]))
        batches = self.graph.make_batches(cfg.batch_size, rng)
        per_rank = self._sample_per_batch(batches, seed=cfg.seed + epoch)
        rounds = max(len(s) for s in per_rank)
        for t in range(rounds):
            current = [s[t] if t < len(s) else None for s in per_rank]
            self._fetch_round(current)
            self._propagation_round(current)
        sub = self.comm.clock.breakdown()
        return EpochStats(
            sampling=sub.get("sampling", 0.0),
            feature_fetch=sub.get("feature_fetch", 0.0),
            propagation=sub.get("propagation", 0.0),
            bytes_sent=self.comm.ledger.sent(),
            n_batches=len(batches),
        )
