"""Benchmark harness: sim-scale workloads, ASCII figure reporting, and the
schema-versioned ``BENCH_<name>.json`` perf-trajectory artifacts."""

from .artifact import (
    BENCH_SCHEMA_VERSION,
    bench_artifact,
    default_artifact_path,
    env_fingerprint,
    load_bench_artifact,
    write_bench_artifact,
)
from .harness import SIM_WORKLOADS, BenchWorkload, load_bench_graph, run_pipeline_epoch
from .regression import (
    EnvMismatch,
    ParamsMismatch,
    Regression,
    compare_artifacts,
    metric_direction,
)
from .reporting import (
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
    "BENCH_SCHEMA_VERSION",
    "bench_artifact",
    "default_artifact_path",
    "env_fingerprint",
    "load_bench_artifact",
    "write_bench_artifact",
    "Regression",
    "ParamsMismatch",
    "EnvMismatch",
    "metric_direction",
    "compare_artifacts",
]
