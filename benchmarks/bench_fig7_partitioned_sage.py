"""Figure 7 (top row): Graph Partitioned GraphSAGE sampling-time breakdown.

Sweeps p in {16, 32, 64} with the paper's replication-factor choices,
breaking sampling time into the three steps of Figure 2 (probability /
sampling / extraction) and into communication vs computation.

Paper shapes: sampling time falls from 16 to 64 GPUs (1.75x on Protein,
1.43x on Papers); probability generation (the sparsity-aware 1.5D SpGEMM)
dominates; communication improves only when c grows; computation is
embarrassingly parallel in p.

The partitioned experiments use sparser/larger sim graphs than the Figure 4
workloads: the 1.5D algorithm's regime is kb << n (at paper scale the
frontier is under 1% of V), which the fig4 sim graphs do not satisfy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import format_table
from repro.comm import Communicator, ProcessGrid
from repro.core import SageSampler
from repro.distributed import partitioned_bulk_sampling
from repro.graphs import load_dataset
from repro.graphs.datasets import PAPER_DATASETS
from repro.partition import BlockRows

#: (p, c) pairs annotated in Figure 7 for each dataset's SAGE row.
SWEEP = {"protein": ((16, 2), (32, 4), (64, 4)), "papers": ((16, 1), (32, 2), (64, 4))}
FANOUT = (4, 3)
N_BATCHES, BATCH = 32, 32


def partitioned_graph(dataset: str):
    g = load_dataset(dataset, scale=1.0, seed=0)
    scale = PAPER_DATASETS[dataset].edges / g.m
    rng = np.random.default_rng(1)
    batches = [rng.choice(g.n, BATCH, replace=False) for _ in range(N_BATCHES)]
    return g, batches, scale


def sweep_rows(dataset: str, g, batches, scale) -> list[dict]:
    """The Figure 7 SAGE sweep for one dataset (simulated seconds)."""
    rows = []
    for p, c in SWEEP[dataset]:
        comm = Communicator(p, work_scale=scale)
        grid = ProcessGrid(p, c)
        blocks = BlockRows.partition(g.adj, grid.n_rows)
        partitioned_bulk_sampling(
            comm, grid, SageSampler(), blocks, batches, FANOUT, seed=0
        )
        bd = comm.clock.breakdown()
        kinds = comm.clock.breakdown_by_kind()
        rows.append(
            {
                "p": p,
                "c": c,
                "probability": bd.get("probability", 0.0),
                "sampling": bd.get("sampling", 0.0),
                "extraction": bd.get("extraction", 0.0),
                "comm": sum(v for (_, k), v in kinds.items() if k == "comm"),
                "comp": sum(v for (_, k), v in kinds.items() if k == "compute"),
                "total": sum(bd.values()),
            }
        )
    return rows


@pytest.mark.parametrize("dataset", ["protein", "papers"])
def test_fig7_sage(dataset, benchmark, record_result):
    g, batches, scale = partitioned_graph(dataset)

    rows = benchmark.pedantic(
        sweep_rows, args=(dataset, g, batches, scale), rounds=1, iterations=1
    )
    record_result(
        f"fig7_sage_{dataset}",
        format_table(
            rows,
            title=(
                f"Figure 7 top [{dataset}] - partitioned SAGE sampling "
                "breakdown (sim s, one bulk of all minibatches)"
            ),
        ),
    )

    by_p = {r["p"]: r for r in rows}
    # Sampling time falls from 16 to 64 GPUs.
    assert by_p[64]["total"] < by_p[16]["total"]
    # Probability generation (the 1.5D SpGEMM) dominates the breakdown.
    for r in rows:
        assert r["probability"] > r["sampling"]
        assert r["probability"] > r["extraction"]
    # Computation scales with p (embarrassingly parallel steps).
    assert by_p[64]["comp"] < by_p[16]["comp"]


def main() -> int:
    """Script mode: print both dataset sweeps and their headline ratios
    (simulated seconds, so they are deterministic across hosts)."""
    for dataset in SWEEP:
        g, batches, scale = partitioned_graph(dataset)
        rows = sweep_rows(dataset, g, batches, scale)
        print(format_table(
            rows, title=f"Figure 7 top [{dataset}] - partitioned SAGE "
            "breakdown (sim s)"
        ))
        by_p = {r["p"]: r for r in rows}
        print(f"scaling 16 -> 64: {by_p[16]['total'] / by_p[64]['total']:.4g}x, "
              f"probability share at p=16: "
              f"{by_p[16]['probability'] / by_p[16]['total']:.4g}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
