"""Trace exporters: Chrome ``trace_event`` JSON (Perfetto-loadable).

:func:`chrome_trace` turns a tracer's spans into the Chrome trace-event
format ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_
load directly:

* sim-domain spans render under pid 0 (process name ``simulated``) with
  timestamps in microseconds of *simulated* time;
* wall-domain spans render under pid 1 (``wall-clock``), normalized so
  the earliest wall span starts at 0;
* every track becomes a named thread, timed spans are complete ``"X"``
  events, instants are ``"i"`` events, and per-request flight-recorder
  windows are async ``"b"``/``"e"`` pairs keyed by the request id — one
  Perfetto async lane per request, overlapping freely.

Determinism: events are ordered by ``(track, seq)`` and serialized with
sorted keys and fixed separators, so a sim-domain-only export
(``domain="sim"``) of a deterministic run is **byte-identical** from
run to run.

:func:`validate_chrome_trace` is the schema check CI runs on exported
files: shape errors come back as strings instead of exceptions so a
report can show all of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .trace import Span

__all__ = [
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]

_PIDS = {"sim": 0, "wall": 1}
_PROCESS_NAMES = {0: "simulated", 1: "wall-clock"}


def _ordered(spans: Iterable[Span], domain: str | None) -> list[Span]:
    kept = [s for s in spans if domain is None or s.domain == domain]
    return sorted(kept, key=lambda s: (s.domain, s.track, s.seq))


def chrome_trace(
    spans: Iterable[Span], *, domain: str | None = None
) -> dict:
    """Build the Chrome trace-event payload (a plain dict).

    ``domain`` filters to one time domain; ``"sim"`` yields the
    deterministic export, ``None`` includes everything.
    """
    ordered = _ordered(spans, domain)
    wall_zero = min(
        (s.start for s in ordered if s.domain == "wall"), default=0.0
    )
    tracks = sorted({(s.domain, s.track) for s in ordered})
    tids = {key: i for i, key in enumerate(tracks)}
    events: list[dict] = []
    for pid in sorted({_PIDS[d] for d, _ in tracks}):
        events.append({
            "args": {"name": _PROCESS_NAMES[pid]},
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        })
    for (dom, track), tid in tids.items():
        events.append({
            "args": {"name": track},
            "name": "thread_name", "ph": "M", "pid": _PIDS[dom], "tid": tid,
        })
    for sp in ordered:
        zero = wall_zero if sp.domain == "wall" else 0.0
        base = {
            "cat": sp.cat or "repro",
            "name": sp.name,
            "pid": _PIDS[sp.domain],
            "tid": tids[(sp.domain, sp.track)],
            "ts": (sp.start - zero) * 1e6,
        }
        if sp.args:
            base["args"] = sp.args
        if sp.kind == "span":
            events.append({**base, "ph": "X", "dur": sp.duration * 1e6})
        elif sp.kind == "instant":
            events.append({**base, "ph": "i", "s": "t"})
        elif sp.kind == "async":
            events.append({**base, "ph": "b", "id": sp.aid})
            end = dict(base)
            end.pop("args", None)
            end["ts"] = (sp.end - zero) * 1e6
            events.append({**end, "ph": "e", "id": sp.aid})
        else:  # pragma: no cover - Tracer only emits the three kinds
            raise ValueError(f"unknown span kind {sp.kind!r}")
    return {"displayTimeUnit": "ms", "traceEvents": events}


def chrome_trace_json(
    spans: Iterable[Span], *, domain: str | None = None
) -> str:
    """Serialize deterministically: sorted keys, fixed separators."""
    return json.dumps(
        chrome_trace(spans, domain=domain),
        sort_keys=True,
        separators=(",", ":"),
    )


def write_chrome_trace(
    path: str | Path, spans: Iterable[Span], *, domain: str | None = None
) -> Path:
    """Write the trace JSON to ``path``; returns the path."""
    path = Path(path)
    path.write_text(chrome_trace_json(spans, domain=domain) + "\n")
    return path


# ------------------------------------------------------------------ #
# Schema check (CI gate on exported files)
# ------------------------------------------------------------------ #
_PH_KNOWN = {"X", "B", "E", "i", "I", "M", "b", "e", "n", "C"}


def validate_chrome_trace(payload: object) -> list[str]:
    """Shape-check a Chrome trace payload; returns a list of problems
    (empty = valid).  Accepts the dict form or a raw JSON string."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PH_KNOWN:
            errors.append(f"{where}: unknown or missing ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: missing integer {key}")
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric ts")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            errors.append(f"{where}: complete event missing dur")
        if ph in ("b", "e", "n") and "id" not in ev:
            errors.append(f"{where}: async event missing id")
        if ph in ("i", "I") and ev.get("s") not in (None, "t", "p", "g"):
            errors.append(f"{where}: bad instant scope {ev.get('s')!r}")
    return errors


def validate_chrome_trace_file(path: str | Path) -> list[str]:
    """Schema-check a trace file on disk."""
    return validate_chrome_trace(Path(path).read_text())
