"""Human summaries of exported traces (the ``repro trace`` subcommand).

Works off the exported Chrome trace JSON — not live tracer state — so any
trace file (including one produced by an earlier run) can be explained
after the fact.  Three views:

* **top spans by self-time** — per span name, the time spent in that span
  *excluding* nested spans on the same thread, which is what actually
  ranks optimization targets (a parent that merely contains an expensive
  child should not outrank it);
* **per-category breakdown** — total span time by ``cat`` (``serve``,
  ``plan``, ``update``, ...), split by time domain;
* **slowest requests** — the flight recorder's async windows ranked by
  duration, naming the exemplar request ids to go look at.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

__all__ = ["load_trace_file", "summarize_trace", "format_trace_summary"]


def load_trace_file(path: str | Path) -> dict:
    """Load a Chrome trace JSON file."""
    return json.loads(Path(path).read_text())


def _self_times(events: list[dict]) -> dict[str, dict[str, float]]:
    """name -> {total, self, count} over complete ("X") events.

    Self-time subtracts the duration of children, where a child is a
    complete event on the same (pid, tid) fully inside the parent's
    window — the nesting the tracer's span stack produced.
    """
    per_thread: dict[tuple, list[dict]] = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            per_thread[(ev.get("pid"), ev.get("tid"))].append(ev)
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "count": 0}
    )
    for thread in per_thread.values():
        thread.sort(key=lambda e: (e["ts"], -e.get("dur", 0.0)))
        stack: list[tuple[float, dict]] = []  # (end_ts, child_dur_accumulator)
        child_time: dict[int, float] = {}
        for ev in thread:
            start, dur = float(ev["ts"]), float(ev.get("dur", 0.0))
            while stack and start >= stack[-1][0] - 1e-9:
                stack.pop()
            if stack:
                parent = stack[-1][1]
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + dur
            stack.append((start + dur, ev))
        for ev in thread:
            dur = float(ev.get("dur", 0.0))
            entry = stats[ev["name"]]
            entry["total"] += dur
            entry["self"] += max(0.0, dur - child_time.get(id(ev), 0.0))
            entry["count"] += 1
    return dict(stats)


def summarize_trace(payload: dict, *, top: int = 10) -> dict:
    """Structured summary of one Chrome trace payload."""
    events = [e for e in payload.get("traceEvents", []) if isinstance(e, dict)]
    spans = _self_times(events)
    by_self = sorted(
        spans.items(), key=lambda kv: (-kv[1]["self"], kv[0])
    )[:top]

    by_cat: dict[str, float] = defaultdict(float)
    for ev in events:
        if ev.get("ph") == "X":
            by_cat[ev.get("cat", "repro")] += float(ev.get("dur", 0.0))

    begins: dict[object, dict] = {}
    requests: list[dict] = []
    for ev in events:
        if ev.get("ph") == "b":
            begins[(ev.get("cat"), ev.get("id"))] = ev
        elif ev.get("ph") == "e":
            b = begins.pop((ev.get("cat"), ev.get("id")), None)
            if b is not None:
                requests.append({
                    "id": ev.get("id"),
                    "name": b.get("name"),
                    "start_us": float(b["ts"]),
                    "duration_us": float(ev["ts"]) - float(b["ts"]),
                    "args": b.get("args", {}),
                })
    requests.sort(key=lambda r: (-r["duration_us"], r["id"]))

    return {
        "n_events": len(events),
        "top_spans": [
            {
                "name": name,
                "self_us": entry["self"],
                "total_us": entry["total"],
                "count": int(entry["count"]),
            }
            for name, entry in by_self
        ],
        "by_category": dict(sorted(by_cat.items())),
        "slowest_requests": requests[:top],
    }


def _us(v: float) -> str:
    return f"{v / 1e3:.3f} ms" if v >= 1e3 else f"{v:.1f} us"


def format_trace_summary(payload: dict, *, top: int = 10) -> str:
    """Render :func:`summarize_trace` as the CLI's text report."""
    s = summarize_trace(payload, top=top)
    lines = [f"trace: {s['n_events']} events"]
    if s["top_spans"]:
        lines.append("")
        lines.append(f"top spans by self-time (top {top}):")
        width = max(len(e["name"]) for e in s["top_spans"])
        for e in s["top_spans"]:
            lines.append(
                f"  {e['name']:<{width}}  self {_us(e['self_us']):>12}  "
                f"total {_us(e['total_us']):>12}  x{e['count']}"
            )
    if s["by_category"]:
        lines.append("")
        lines.append("per-category span time:")
        width = max(len(c) for c in s["by_category"])
        for cat, us in s["by_category"].items():
            lines.append(f"  {cat:<{width}}  {_us(us)}")
    if s["slowest_requests"]:
        lines.append("")
        lines.append(f"slowest requests (top {top}):")
        for r in s["slowest_requests"]:
            lines.append(
                f"  {r['name']} id={r['id']}  {_us(r['duration_us'])}  "
                f"(from {r['start_us'] / 1e3:.3f} ms)"
            )
    return "\n".join(lines)
