"""Perf-regression gate over committed ``BENCH_*.json`` artifacts.

The artifact layer (:mod:`repro.bench.artifact`) records each benchmark's
headline metrics per PR; this module makes those claims *enforceable*: it
diffs a freshly emitted artifact against the committed baseline and fails
when a metric moved the wrong way by more than a tolerance.

Comparability is strict by design.  Two artifacts are only diffed when
they are the same bench (``bench`` key), the same schema version (the
loader refuses others), and were produced with the same ``params`` —
a throughput measured at 16 clients says nothing about one measured at
128.  A params mismatch is its own failure mode
(:class:`ParamsMismatch`), distinct from a regression, so CI output tells
you whether to fix the invocation or the code.

Metric direction is inferred from the key name (``*_req_per_s`` and
``*speedup*`` are higher-better; ``*_ms``, ``p50/p95/p99``, ``makespan``
are lower-better; anything unrecognized is informational and skipped) —
the same convention every ``benchmarks/bench_*.py`` already follows.
Simulated metrics are deterministic, so the default tolerance is tight;
it exists to absorb intentional-but-small drift, not measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "Regression",
    "ParamsMismatch",
    "EnvMismatch",
    "metric_direction",
    "compare_artifacts",
]

#: Key-name fragments that classify a metric's good direction.  Checked in
#: order; first match wins (so "p99_ms" is lower-better even though a
#: hypothetical "p99_ms_speedup" would be higher-better — list higher-
#: better fragments first to keep ratios meaningful).
_HIGHER_BETTER = (
    "req_per_s", "speedup", "throughput", "hit_rate",
    "fetch_reduction", "overlap_saving", "retention",
)
_LOWER_BETTER = ("_ms", "p50", "p95", "p99", "makespan", "latency", "seconds")


class ParamsMismatch(ValueError):
    """Fresh and baseline artifacts were produced with different params."""


class EnvMismatch(ValueError):
    """Fresh and baseline artifacts carry different environment
    fingerprints (``env`` key) — wall-clock numbers measured on different
    machines prove nothing about each other."""


@dataclass(frozen=True)
class Regression:
    """One metric that moved the wrong way beyond tolerance."""

    metric: str
    baseline: float
    fresh: float
    direction: str  # "higher" or "lower" (the *good* direction)
    tolerance: float

    def __str__(self) -> str:
        verb = "dropped" if self.direction == "higher" else "rose"
        return (
            f"{self.metric}: {verb} from {self.baseline:g} to {self.fresh:g} "
            f"({self.fresh / self.baseline:.3f}x, tolerance "
            f"{self.tolerance:.0%})"
        )


def metric_direction(name: str) -> str | None:
    """``"higher"``, ``"lower"``, or ``None`` for informational metrics."""
    lowered = name.lower()
    for fragment in _HIGHER_BETTER:
        if fragment in lowered:
            return "higher"
    for fragment in _LOWER_BETTER:
        if fragment in lowered:
            return "lower"
    return None


def compare_artifacts(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    tolerance: float = 0.05,
    ignore_params: tuple[str, ...] = (),
) -> list[Regression]:
    """Diff two artifact payloads; returns the list of regressions.

    Raises :class:`ValueError` when the artifacts are for different
    benches, :class:`ParamsMismatch` when their params differ (keys in
    ``ignore_params`` are excused), :class:`EnvMismatch` when either
    carries an environment fingerprint and they disagree, and flags a
    baseline metric that vanished from the fresh run as a
    regression-shaped failure too — silently dropping a gated metric must
    not pass the gate.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if baseline.get("bench") != fresh.get("bench"):
        raise ValueError(
            f"cannot compare different benches: baseline is "
            f"{baseline.get('bench')!r}, fresh is {fresh.get('bench')!r}"
        )
    base_env = baseline.get("env")
    fresh_env = fresh.get("env")
    if base_env != fresh_env:
        keys = sorted(
            k
            for k in set(base_env or {}) | set(fresh_env or {})
            if (base_env or {}).get(k) != (fresh_env or {}).get(k)
        ) or ["env"]
        raise EnvMismatch(
            f"artifacts come from different environments (differ on "
            f"{', '.join(keys)}: baseline "
            f"{ {k: (base_env or {}).get(k) for k in keys} } vs fresh "
            f"{ {k: (fresh_env or {}).get(k) for k in keys} }); "
            f"wall-clock numbers are machine-specific — regenerate the "
            f"baseline on this machine"
        )
    base_params = {
        k: v for k, v in baseline.get("params", {}).items()
        if k not in ignore_params
    }
    fresh_params = {
        k: v for k, v in fresh.get("params", {}).items()
        if k not in ignore_params
    }
    if base_params != fresh_params:
        differing = sorted(
            k
            for k in set(base_params) | set(fresh_params)
            if base_params.get(k) != fresh_params.get(k)
        )
        raise ParamsMismatch(
            f"artifacts are not comparable: params differ on "
            f"{', '.join(differing)} (baseline "
            f"{ {k: base_params.get(k) for k in differing} } vs fresh "
            f"{ {k: fresh_params.get(k) for k in differing} })"
        )
    regressions: list[Regression] = []
    base_metrics = baseline.get("metrics", {})
    fresh_metrics = fresh.get("metrics", {})
    for name, base_value in sorted(base_metrics.items()):
        direction = metric_direction(name)
        if direction is None or not isinstance(base_value, (int, float)):
            continue
        if name not in fresh_metrics:
            regressions.append(
                Regression(
                    metric=f"{name} (missing from fresh artifact)",
                    baseline=float(base_value),
                    fresh=float("nan"),
                    direction=direction,
                    tolerance=tolerance,
                )
            )
            continue
        fresh_value = float(fresh_metrics[name])
        base_value = float(base_value)
        if direction == "higher":
            bad = fresh_value < base_value * (1.0 - tolerance)
        else:
            bad = fresh_value > base_value * (1.0 + tolerance)
        if bad:
            regressions.append(
                Regression(
                    metric=name,
                    baseline=base_value,
                    fresh=fresh_value,
                    direction=direction,
                    tolerance=tolerance,
                )
            )
    return regressions
