"""Figure 7 (bottom row): Graph Partitioned LADIES breakdown + the serial
CPU reference crossover.

Paper shapes: distributed LADIES scales across p; time is dominated by the
(column-)extraction step, executed as a series of smaller per-batch CSR
SpGEMMs (the memory workaround of section 8.2.2); and the distributed runs
begin to beat the serial CPU reference (43.9 s on Papers, 3.12 s on Protein
at paper scale) at high GPU counts.
"""

from __future__ import annotations

import pytest

from repro.baselines import reference_cpu_ladies
from repro.bench import format_table
from repro.comm import Communicator, ProcessGrid
from repro.core import LadiesSampler
from repro.distributed import partitioned_bulk_sampling
from repro.partition import BlockRows

from bench_fig7_partitioned_sage import partitioned_graph

SWEEP = ((16, 1), (32, 2), (64, 4))
WIDTH = 64


def sweep_rows(g, batches, scale) -> tuple[list[dict], float]:
    """The Figure 7 LADIES sweep plus the serial CPU reference time."""
    cpu = reference_cpu_ladies(g, batches, WIDTH, work_scale=scale).seconds
    rows = []
    for p, c in SWEEP:
        comm = Communicator(p, work_scale=scale)
        grid = ProcessGrid(p, c)
        blocks = BlockRows.partition(g.adj, grid.n_rows)
        partitioned_bulk_sampling(
            comm, grid, LadiesSampler(), blocks, batches, (WIDTH,),
            seed=0,
        )
        bd = comm.clock.breakdown()
        rows.append(
            {
                "p": p,
                "c": c,
                "probability": bd.get("probability", 0.0),
                "sampling": bd.get("sampling", 0.0),
                "extraction": bd.get("extraction", 0.0),
                "total": sum(bd.values()),
                "cpu_reference": cpu,
            }
        )
    return rows, cpu


@pytest.mark.parametrize("dataset", ["protein", "papers"])
def test_fig7_ladies(dataset, benchmark, record_result):
    g, batches, scale = partitioned_graph(dataset)

    rows, cpu = benchmark.pedantic(
        sweep_rows, args=(g, batches, scale), rounds=1, iterations=1
    )
    record_result(
        f"fig7_ladies_{dataset}",
        format_table(
            rows,
            title=(
                f"Figure 7 bottom [{dataset}] - partitioned LADIES "
                "breakdown vs serial CPU reference (sim s)"
            ),
        ),
    )

    by_p = {r["p"]: r for r in rows}
    # Distributed LADIES scales with p.
    assert by_p[64]["total"] < by_p[16]["total"]
    # Extraction (dominated by column extraction) is the largest step.
    for r in rows:
        assert r["extraction"] >= r["sampling"]
    # The crossover: by 64 GPUs the distributed sampler beats the serial
    # CPU reference (the paper reports exactly this threshold).
    assert by_p[64]["total"] < cpu


def main() -> int:
    """Script mode: print both dataset sweeps and their headline ratios
    (simulated seconds)."""
    for dataset in ("protein", "papers"):
        g, batches, scale = partitioned_graph(dataset)
        rows, cpu = sweep_rows(g, batches, scale)
        print(format_table(
            rows, title=f"Figure 7 bottom [{dataset}] - partitioned "
            "LADIES breakdown vs serial CPU reference (sim s)"
        ))
        by_p = {r["p"]: r for r in rows}
        print(f"scaling 16 -> 64: {by_p[16]['total'] / by_p[64]['total']:.4g}x, "
              f"crossover margin at p=64: {cpu / by_p[64]['total']:.4g}x")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
