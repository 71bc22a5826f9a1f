"""Benchmark tooling: ASCII reporting, harness workloads, config objects
and the environment fingerprint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    SIM_WORKLOADS,
    format_latency_summary,
    format_series,
    format_stacked_bars,
    format_table,
    latency_summary,
    percentiles,
)
from repro.bench.harness import BenchWorkload, work_scale_for, workload_hidden
from repro.config import ArchitectureConfig, DeviceModel, LinkModel


class TestFormatTable:
    def test_alignment_and_order(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        out = format_table(rows, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert lines[1].startswith("a")
        assert "22" in lines[4]

    def test_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_float_formatting(self):
        out = format_table([{"x": 0.123456789}])
        assert "0.12346" in out


class TestPercentiles:
    def test_nearest_rank_returns_observed_values(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        pct = percentiles(values, (50, 95, 99))
        # Nearest rank over n=5: p50 -> 3rd value, p95/p99 -> 5th.
        assert pct[50] == 3.0
        assert pct[95] == 5.0
        assert pct[99] == 5.0

    def test_single_value(self):
        assert percentiles([7.5], (50, 99)) == {50: 7.5, 99: 7.5}

    def test_unsorted_input(self):
        assert percentiles([9.0, 1.0], (50,))[50] == 1.0

    def test_large_sample_matches_rank_definition(self):
        values = np.arange(1, 101, dtype=float)  # 1..100
        pct = percentiles(values, (50, 95, 99, 100))
        assert pct[50] == 50.0
        assert pct[95] == 95.0
        assert pct[99] == 99.0
        assert pct[100] == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentiles([])
        with pytest.raises(ValueError):
            percentiles([1.0], (0,))
        with pytest.raises(ValueError):
            percentiles([1.0], (101,))

    def test_latency_summary_fields(self):
        s = latency_summary([2.0, 1.0, 4.0, 3.0])
        assert s["n"] == 4
        assert s["mean"] == pytest.approx(2.5)
        assert s["p50"] == 2.0
        assert s["max"] == 4.0
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

    def test_latency_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_summary([])

    def test_format_latency_summary_line(self):
        line = format_latency_summary([1.0, 2.0, 3.0], label="lat", unit="ms")
        assert line.startswith("lat: p50 2ms")
        assert "p95 3ms" in line and "(n=3)" in line


class TestStackedBars:
    def test_bar_lengths_proportional(self):
        rows = [
            {"p": 4, "a": 2.0, "b": 0.0},
            {"p": 8, "a": 1.0, "b": 0.0},
        ]
        out = format_stacked_bars(rows, "p", ["a", "b"], width=20)
        lines = [l for l in out.splitlines() if "|" in l]
        long_bar = lines[0].count("#")
        short_bar = lines[1].count("#")
        assert long_bar == 20 and short_bar == 10

    def test_legend_present(self):
        out = format_stacked_bars(
            [{"p": 1, "x": 1.0}], "p", ["x"], title="T"
        )
        assert "=x" in out.splitlines()[1]

    def test_empty(self):
        assert "(no rows)" in format_stacked_bars([], "p", ["x"])


class TestSeries:
    def test_shapes(self):
        out = format_series(
            {"gpu": [1.0, 2.0], "uva": [3.0, 4.0]}, [4, 8], title="S"
        )
        assert "gpu" in out and "uva" in out and "4" in out


class TestWorkloads:
    def test_all_workloads_well_formed(self):
        for name, wl in SIM_WORKLOADS.items():
            assert wl.dataset == name
            assert wl.spec.vertices > 0
            assert len(wl.fanout) == 3

    def test_work_scale_positive(self):
        from repro.bench import load_bench_graph

        wl = SIM_WORKLOADS["products"]
        g = load_bench_graph(wl)
        assert work_scale_for(wl, g) > 100  # sim is far smaller than paper

    def test_workload_hidden_consistent(self):
        assert workload_hidden() > 0

    def test_workload_too_large_rejected(self):
        wl = BenchWorkload(
            dataset="products", scale=0.05, batch_size=1024, n_batches=1024,
            fanout=(2, 2, 2), ladies_width=8,
        )
        from repro.bench import load_bench_graph

        with pytest.raises(ValueError):
            load_bench_graph(wl)


class TestConfigObjects:
    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            ArchitectureConfig("x", 8, (3, 3), 4, 3)  # fanout/layers mismatch
        with pytest.raises(ValueError):
            ArchitectureConfig("x", 0, (3,), 4, 1)

    def test_device_model_validation(self):
        dev = DeviceModel(1e12, 1e11, 1e-6, 1e9)
        with pytest.raises(ValueError):
            dev.time(flops=-1)

    def test_link_model(self):
        link = LinkModel(alpha=1e-6, beta=2e-9)
        assert link.time(0) == 1e-6

    def test_machine_node_mapping(self):
        from repro.config import PERLMUTTER_LIKE as m

        assert m.node_of(0) == m.node_of(3) == 0
        assert m.node_of(4) == 1
        assert m.node_of(1) == m.node_of(2) != m.node_of(4)
        with pytest.raises(ValueError):
            m.node_of(-1)


class TestEnvFingerprint:
    def test_fingerprint_contents(self):
        import os
        import platform

        from repro.bench import env_fingerprint

        env = env_fingerprint()
        assert env["cpu_count"] == (os.cpu_count() or 1)
        assert env["python"] == platform.python_version()
        assert "numpy" in env and "platform" in env
