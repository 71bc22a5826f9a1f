"""ServeReport: what one :meth:`ServingCluster.process` run produced.

Results in request-id order plus the run's aggregates — micro-batch count,
per-phase simulated seconds (slowest replica per phase), fleet-wide cache
and stream counters and the per-replica request split — with the derived
latency / throughput views, the deterministic logits digest, and the
metrics-registry publisher.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cache import ServeStats
from .request import InferenceResult

__all__ = ["ServeReport"]


@dataclass
class ServeReport:
    """Everything one :meth:`ServingCluster.process` run produced."""

    results: list[InferenceResult]
    batches: int
    phase_seconds: dict[str, float]
    cache_stats: ServeStats | None = None
    exact: bool = True
    # Streaming runs only: snapshot of the StreamingGraph's counters
    # (update batches, applied/skipped edits, compactions, dirty vertices).
    update_stats: object | None = None
    # Per-replica request counts keyed by replica id.
    per_replica: dict[int, int] = field(default_factory=dict)
    # Nothing is shed: every request is served.  The e2e harness
    # (benchmarks/e2e/workloads.py) still reads ``report.shed`` into its
    # ``serve.shed`` count, so the name stays, at 0, until that count goes.
    shed: ClassVar[int] = 0

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def latencies(self) -> np.ndarray:
        """Per-request end-to-end latency, in request-id order."""
        return np.array([r.latency for r in self.results])

    @property
    def makespan(self) -> float:
        """Completion time of the last request."""
        return max((r.completed for r in self.results), default=0.0)

    @property
    def throughput(self) -> float:
        """Requests served per simulated second."""
        span = self.makespan
        return self.n_requests / span if span > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.n_requests / self.batches if self.batches else 0.0

    def latency_summary(self) -> dict[str, float]:
        """n / mean / p50 / p95 / p99 / max of the request latencies."""
        from ..bench.reporting import latency_summary

        return latency_summary(self.latencies)

    def digest(self) -> str:
        """SHA-256 over (rid, vertices, logits) of every result.

        Bit-exact serving makes this digest stable across runs, batch
        sizes, wait policies and cache budgets — the CI smoke job pins it
        per run pair rather than per platform.
        """
        h = hashlib.sha256()
        for r in sorted(self.results, key=lambda r: r.request.rid):
            h.update(np.int64(r.request.rid).tobytes())
            h.update(np.ascontiguousarray(r.request.vertices).tobytes())
            h.update(np.ascontiguousarray(r.logits).tobytes())
        return h.hexdigest()

    def publish(self, registry, **labels) -> None:
        """Publish this report into a metrics registry
        (:mod:`repro.obs.metrics`) without touching any public field.

        Counters/gauges for the run totals and phase seconds, a latency
        histogram over the per-request latencies, and the nested
        cache/stream counters via their own ``publish`` hooks.
        """
        registry.counter(
            "serve_requests_total", "inference requests served", **labels
        ).inc(self.n_requests)
        registry.counter(
            "serve_batches_total", "micro-batches dispatched", **labels
        ).inc(self.batches)
        registry.gauge(
            "serve_throughput_req_per_s", "requests per simulated second",
            **labels,
        ).set(self.throughput)
        hist = registry.histogram(
            "serve_latency_seconds", "end-to-end request latency (simulated)",
            **labels,
        )
        for latency in self.latencies:
            hist.observe(float(latency))
        for phase, seconds in self.phase_seconds.items():
            registry.counter(
                "serve_phase_seconds_total", "simulated seconds by phase",
                phase=phase, **labels,
            ).inc(seconds)
        if self.cache_stats is not None:
            self.cache_stats.publish(registry, **labels)
        if self.update_stats is not None and hasattr(self.update_stats, "publish"):
            self.update_stats.publish(registry, **labels)

    def row(self) -> dict[str, object]:
        """One reporting row for :func:`repro.bench.format_table`."""
        s = self.latency_summary()
        out: dict[str, object] = {
            "requests": self.n_requests,
            "batches": self.batches,
            "mean_batch": round(self.mean_batch_size, 3),
            "p50_ms": s["p50"] * 1e3,
            "p95_ms": s["p95"] * 1e3,
            "p99_ms": s["p99"] * 1e3,
            "req_per_s": self.throughput,
        }
        if self.cache_stats is not None:
            out["embed_hit"] = f"{self.cache_stats.hit_rate:.1%}"
            if self.cache_stats.invalidations:
                out["invalidated"] = self.cache_stats.invalidations
        if self.update_stats is not None:
            out.update(self.update_stats.row())
        return out
