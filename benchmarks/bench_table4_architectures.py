"""Table 4: architecture hyper-parameters used throughout the evaluation.

Echoes the paper's SAGE and LADIES configurations and the sim-scale
counterparts every other benchmark runs, validating the proportional
shrinkage (3 layers for SAGE, 1 for LADIES, same batch:width ratios).
"""

from __future__ import annotations

from repro.bench import SIM_WORKLOADS, format_table
from repro.machine import LADIES_ARCH, SAGE_ARCH


def test_table4(benchmark, record_result):
    def run():
        rows = [
            {
                "GNN": SAGE_ARCH.name,
                "batch": SAGE_ARCH.batch_size,
                "fanout": str(SAGE_ARCH.fanout),
                "hidden": SAGE_ARCH.hidden,
                "layers": SAGE_ARCH.layers,
            },
            {
                "GNN": LADIES_ARCH.name,
                "batch": LADIES_ARCH.batch_size,
                "fanout": str(LADIES_ARCH.fanout),
                "hidden": LADIES_ARCH.hidden,
                "layers": LADIES_ARCH.layers,
            },
        ]
        sim_rows = [
            {
                "workload": name,
                "batch": wl.batch_size,
                "sage_fanout": str(wl.fanout),
                "ladies_width": wl.ladies_width,
            }
            for name, wl in SIM_WORKLOADS.items()
        ]
        return (
            format_table(rows, title="Table 4 (paper architectures)")
            + "\n\n"
            + format_table(sim_rows, title="Table 4 (sim-scale counterparts)")
        )

    text = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result("table4_architectures", text)

    # The paper's invariants these configs encode.
    assert SAGE_ARCH.layers == 3 and SAGE_ARCH.fanout == (15, 10, 5)
    assert LADIES_ARCH.layers == 1 and LADIES_ARCH.fanout == (512,)
    assert LADIES_ARCH.batch_size == LADIES_ARCH.fanout[0]  # b = s = 512
    for wl in SIM_WORKLOADS.values():
        assert len(wl.fanout) == 3  # 3-layer SAGE everywhere
        # LADIES keeps the paper's b = s relation at sim scale too.
        assert wl.ladies_width >= wl.batch_size
