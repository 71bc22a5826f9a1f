"""A labeled metrics registry with a Prometheus-style text exporter.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — are created through (and owned by) a
:class:`MetricsRegistry`, keyed by ``(name, sorted label items)`` so
repeated lookups return the same instrument.  The existing stats
dataclasses (:class:`~repro.serve.cache.ServeStats`,
:class:`~repro.partition.cache.CacheStats`,
:class:`~repro.pipeline.stats.EpochStats`,
:class:`~repro.stream.graph.StreamStats`) gain ``publish(registry,
**labels)`` methods that copy their counters in — their public fields are
unchanged, and publishing is pull-based: nothing is recorded unless a
registry is installed (``repro ... --metrics`` or ``set_registry``).

:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value``
samples, ``_bucket``/``_sum``/``_count`` rows for histograms), sorted
deterministically so renders diff cleanly.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets: latency-shaped, in seconds.
DEFAULT_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically meaningful total (``inc``) that stats snapshots may
    also overwrite (``set``) when they already hold the run's total."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)

    def samples(self, name: str, labels) -> Iterator[tuple[str, str, float]]:
        yield name, _format_labels(labels), self.value


class Gauge(Counter):
    """A value that can go either way (fleet size, hit rate, seconds)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # +Inf overflow bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the ``q`` quantile (debugging
        aid; the text format ships raw buckets, not quantiles)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for edge, n in zip(self.buckets, self.counts):
            running += n
            if running >= target:
                return edge
        return math.inf

    def samples(self, name: str, labels) -> Iterator[tuple[str, str, float]]:
        running = 0
        for edge, n in zip(self.buckets + (math.inf,), self.counts):
            running += n
            le = labels + (("le", _format_value(edge)),)
            yield f"{name}_bucket", _format_labels(le), float(running)
        yield f"{name}_sum", _format_labels(labels), self.sum
        yield f"{name}_count", _format_labels(labels), float(self.count)


class MetricsRegistry:
    """Owns every instrument; hands out label-keyed children."""

    def __init__(self) -> None:
        # name -> (kind, help); (name, label items) -> instrument.
        self._families: dict[str, tuple[str, str]] = {}
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get(self, cls, name: str, help: str, labels: dict, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            self._families[name] = (cls.kind, help)
        elif family[0] != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, "
                f"cannot re-register as a {cls.kind}"
            )
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(**kwargs)
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def render(self) -> str:
        """The Prometheus text exposition format, deterministically sorted."""
        lines: list[str] = []
        for name in sorted(self._families):
            kind, help = self._families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            children = sorted(
                (key[1], metric)
                for key, metric in self._metrics.items()
                if key[0] == name
            )
            for labels, metric in children:
                for sample_name, label_text, value in metric.samples(
                    name, labels
                ):
                    lines.append(
                        f"{sample_name}{label_text} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------------ #
# The process-global registry (None = metrics off, the fast path)
# ------------------------------------------------------------------ #
_REGISTRY: MetricsRegistry | None = None


def get_registry() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when metrics are off."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` process-wide; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
