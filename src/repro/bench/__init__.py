"""Benchmark harness: sim-scale workloads and ASCII figure reporting."""

from .harness import SIM_WORKLOADS, BenchWorkload, load_bench_graph, run_pipeline_epoch
from .reporting import (
    env_fingerprint,
    format_latency_summary,
    format_series,
    format_stacked_bars,
    format_table,
    latency_summary,
    percentiles,
)

__all__ = [
    "BenchWorkload",
    "SIM_WORKLOADS",
    "load_bench_graph",
    "run_pipeline_epoch",
    "format_table",
    "format_stacked_bars",
    "format_series",
    "percentiles",
    "latency_summary",
    "format_latency_summary",
    "env_fingerprint",
]
