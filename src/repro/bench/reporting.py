"""ASCII reporting helpers for the benchmark harness.

Benchmarks print the same rows/series the paper's tables and figures show;
these helpers render them readably in test output.  A wall-clock report
also carries :func:`env_fingerprint`, the facts that make its numbers
comparable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "format_table",
    "format_stacked_bars",
    "format_series",
    "percentiles",
    "latency_summary",
    "format_latency_summary",
    "env_fingerprint",
]


def format_table(
    rows: Sequence[Mapping[str, object]], *, title: str | None = None
) -> str:
    """Render dict-rows as an aligned ASCII table (column order from row 0)."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    cols = list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_stacked_bars(
    rows: Sequence[Mapping[str, object]],
    label_key: str,
    part_keys: Sequence[str],
    *,
    width: int = 50,
    title: str | None = None,
) -> str:
    """Render stacked horizontal bars (the paper's figure style) in ASCII.

    Each row becomes one bar, split into ``part_keys`` segments scaled so
    the longest bar spans ``width`` characters.
    """
    if not rows:
        return f"{title or 'bars'}: (no rows)"
    totals = [sum(float(r[k]) for k in part_keys) for r in rows]
    peak = max(totals) or 1.0
    glyphs = "#=+*o@%&"
    lines = []
    if title:
        lines.append(title)
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={k}" for i, k in enumerate(part_keys)
    )
    lines.append(f"[{legend}]")
    label_w = max(len(str(r[label_key])) for r in rows)
    for r, total in zip(rows, totals):
        bar = ""
        for i, k in enumerate(part_keys):
            n = int(round(width * float(r[k]) / peak))
            bar += glyphs[i % len(glyphs)] * n
        lines.append(
            f"{str(r[label_key]).ljust(label_w)} |{bar}  ({total:.4g}s)"
        )
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x_values: Sequence[object],
    *,
    title: str | None = None,
    unit: str = "s",
) -> str:
    """Render named series over shared x values (a figure's line plot)."""
    rows = [
        {"x": x, **{name: f"{vals[i]:.5g}{unit}" for name, vals in series.items()}}
        for i, x in enumerate(x_values)
    ]
    return format_table(rows, title=title)


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> dict[float, float]:
    """Nearest-rank percentiles of ``values``: ``{q: value}``.

    Nearest-rank (the value at index ``ceil(q/100 * n) - 1`` of the sorted
    sample) always returns an *observed* value, so latency reports quote
    real request latencies and the result is exactly reproducible — no
    interpolation between samples.
    """
    if len(values) == 0:
        raise ValueError("percentiles need at least one value")
    for q in qs:
        if not 0 < q <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    return {
        q: float(ordered[min(n - 1, max(0, int(np.ceil(q / 100.0 * n)) - 1))])
        for q in qs
    }


def latency_summary(values: Sequence[float]) -> dict[str, float]:
    """The standard latency row: n, mean, p50/p95/p99 and max."""
    if len(values) == 0:
        raise ValueError("latency_summary needs at least one value")
    arr = np.asarray(values, dtype=np.float64)
    pct = percentiles(arr, (50, 95, 99))
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "p50": pct[50],
        "p95": pct[95],
        "p99": pct[99],
        "max": float(arr.max()),
    }


def format_latency_summary(
    values: Sequence[float], *, label: str = "latency", unit: str = "s"
) -> str:
    """One-line p50/p95/p99 summary, e.g. for per-request serving latency."""
    s = latency_summary(values)
    return (
        f"{label}: p50 {s['p50']:.5g}{unit}  p95 {s['p95']:.5g}{unit}  "
        f"p99 {s['p99']:.5g}{unit}  mean {s['mean']:.5g}{unit}  "
        f"max {s['max']:.5g}{unit}  (n={s['n']})"
    )


def env_fingerprint() -> dict[str, object]:
    """The environment facts that make wall-clock numbers comparable: core
    count, interpreter and numpy versions, platform."""
    import os
    import platform

    return {
        "cpu_count": int(os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": str(np.__version__),
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.5g}"
    return str(v)
