"""Shared experiment harness for the paper-figure benchmarks.

Each benchmark regenerates one table or figure: it sweeps the paper's
parameter axis (GPU count, replication factor, bulk size), runs the
simulated pipeline, and prints the same rows/series the paper reports.
This module centralizes the sweep plumbing and the sim-scale workload
definitions so benchmark files stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.config import RunConfig
from ..graphs import Graph, load_dataset
from ..graphs.datasets import PAPER_DATASETS
from ..machine import PERLMUTTER_LIKE, MachineConfig
from ..pipeline import TrainingPipeline, choose_c_k
from ..pipeline.stats import EpochStats

__all__ = ["BenchWorkload", "SIM_WORKLOADS", "load_bench_graph", "run_pipeline_epoch"]


@dataclass(frozen=True)
class BenchWorkload:
    """Sim-scale stand-in workload for one paper dataset.

    ``scale`` feeds :func:`repro.graphs.load_dataset`; ``batch_size`` and
    ``n_batches`` are chosen so the bulk-vs-per-batch dynamics (many
    minibatches per epoch) survive the downscaling; ``fanout`` is the
    paper's shape shrunk proportionally.
    """

    dataset: str
    scale: float
    batch_size: int
    n_batches: int
    fanout: tuple[int, ...]
    ladies_width: int
    seed: int = 0

    @property
    def spec(self):
        return PAPER_DATASETS[self.dataset]


#: Sim-scale versions of Table 3 + Table 4, sized so one figure bench runs
#: in minutes.  Relative density ordering (protein > products > papers) and
#: the papers dataset's large-n/low-d character are preserved.
SIM_WORKLOADS: dict[str, BenchWorkload] = {
    "products": BenchWorkload(
        dataset="products", scale=1.0, batch_size=32, n_batches=64,
        fanout=(5, 3, 2), ladies_width=64,
    ),
    "protein": BenchWorkload(
        dataset="protein", scale=1.0, batch_size=32, n_batches=64,
        fanout=(5, 3, 2), ladies_width=64,
    ),
    "papers": BenchWorkload(
        dataset="papers", scale=0.25, batch_size=32, n_batches=128,
        fanout=(5, 3, 2), ladies_width=64,
    ),
}


def load_bench_graph(workload: BenchWorkload) -> Graph:
    """Generate the workload's graph with a training split sized to yield
    exactly ``n_batches`` full minibatches."""
    g = load_dataset(workload.dataset, scale=workload.scale, seed=workload.seed)
    need = workload.batch_size * workload.n_batches
    if need > g.n:
        raise ValueError(
            f"workload wants {need} training vertices but graph has {g.n}"
        )
    rng = np.random.default_rng(workload.seed + 99)
    g.train_idx = np.sort(rng.choice(g.n, size=need, replace=False))
    return g


def run_pipeline_epoch(
    graph: Graph,
    workload: BenchWorkload,
    *,
    p: int,
    c: int | None = None,
    k: int | None = None,
    algorithm: str = "replicated",
    sampler: str = "sage",
    sparsity_aware: bool = True,
    machine: MachineConfig = PERLMUTTER_LIKE,
    seed: int = 0,
) -> tuple[EpochStats, int, int]:
    """Run one perf-only epoch; returns (stats, c, k) actually used.

    When ``c``/``k`` are omitted they are chosen by the paper-scale memory
    model (section 7.3's "highest c and k that fit"), capped to the sim
    workload's batch count.
    """
    from ..api.registries import SAMPLERS
    from ..core import LadiesSampler
    from ..machine import ArchitectureConfig

    # Layer-wise samplers (LADIES family, FastGCN included) take one wide
    # layer; everything else uses the workload's per-layer fanout shape.
    layerwise = issubclass(SAMPLERS[sampler], LadiesSampler)
    fanout = workload.fanout if not layerwise else (workload.ladies_width,)
    arch = ArchitectureConfig(
        name=sampler.upper(),
        batch_size=workload.spec.batch_size,
        fanout=fanout,
        hidden=256,
        layers=len(fanout),
    )
    if c is None or k is None:
        auto_c, auto_k = choose_c_k(
            workload.spec, arch, p,
            replicated_graph=(algorithm == "replicated"), machine=machine,
        )
        c = c if c is not None else auto_c
        # Scale the paper-sized k down to the sim batch count.
        if k is None:
            k = max(1, int(round(workload.n_batches * auto_k / workload.spec.batches)))
    cfg = RunConfig(
        p=p,
        c=c,
        algorithm=algorithm,
        sampler=sampler,
        fanout=fanout,
        batch_size=workload.batch_size,
        k=k,
        hidden=workload_hidden(),
        train_model=False,
        sparsity_aware=sparsity_aware,
        machine=machine,
        seed=seed,
        work_scale=work_scale_for(workload, graph),
    )
    pipe = TrainingPipeline(graph, cfg)
    return pipe.train_epoch(), c, k


def workload_hidden() -> int:
    """Model width shared by the pipeline and the Quiver baseline in
    benchmarks, so propagation costs are directly comparable."""
    return 64


def work_scale_for(workload: BenchWorkload, graph: Graph) -> float:
    """Sim-to-paper workload scale: the ratio of paper edges to sim edges.

    Charging costs at this scale restores the paper's balance between fixed
    kernel overheads and scalable flop/byte work (see Communicator docs).
    """
    return max(1.0, workload.spec.edges / max(1, graph.m))
