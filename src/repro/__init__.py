"""repro: a reproduction of "Distributed Matrix-Based Sampling for Graph
Neural Network Training" (Tripathy, Yelick, Buluc - MLSys 2024).

The package implements the paper's matrix-based bulk sampling framework and
every substrate it depends on: a CSR sparse-matrix library with SpGEMM/SpMM
kernels, a simulated multi-GPU runtime with alpha-beta communication costs,
1D/1.5D matrix partitioning, the Graph Replicated and Graph Partitioned
distributed sampling algorithms, a numpy GNN training stack, the end-to-end
pipeline of Figure 3, and the baselines the paper compares against.

The public entry point is :mod:`repro.api` — the sampler and
execution-algorithm name tables, a serializable
:class:`~repro.api.RunConfig`, and the :class:`~repro.api.Engine` facade.

Quickstart::

    from repro.api import Engine, RunConfig

    cfg = RunConfig(dataset="products", scale=0.25, p=4,
                    sampler="sage", fanout=(15, 10, 5),
                    batch_size=32, hidden=32, epochs=3)
    engine = Engine(cfg)
    engine.train()
    print(engine.evaluate("test"))

See README.md for the system inventory and the benchmarks/ directory for
the paper-figure reproductions.
"""

from . import api, baselines, bench, comm, core, distributed, gnn, graphs, partition, pipeline, sparse
from .api import Engine, RunConfig
from .machine import (
    LADIES_ARCH,
    PERLMUTTER_LIKE,
    SAGE_ARCH,
    ArchitectureConfig,
    DeviceModel,
    LinkModel,
    MachineConfig,
)

__version__ = "1.1.0"

__all__ = [
    "api",
    "sparse",
    "comm",
    "core",
    "partition",
    "distributed",
    "gnn",
    "pipeline",
    "baselines",
    "graphs",
    "bench",
    "Engine",
    "RunConfig",
    "MachineConfig",
    "DeviceModel",
    "LinkModel",
    "ArchitectureConfig",
    "PERLMUTTER_LIKE",
    "SAGE_ARCH",
    "LADIES_ARCH",
]
