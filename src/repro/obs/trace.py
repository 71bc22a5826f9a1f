"""Span-based tracing over simulated or wall clocks.

One :class:`Tracer` collects :class:`Span` records from every layer of the
repo — serving replicas, the fleet router, plan executors, the training
pipeline — onto named *tracks* (one per replica / control plane).  Two
time domains coexist:

* **sim** — the span's start/end are simulated seconds read off a
  :class:`~repro.comm.clock.SimClock` (plus an *offset* that maps the
  clock's run-local time onto the workload timeline).  Sim spans are a
  pure function of the run's seed and config, so their export is
  byte-identical from run to run.
* **wall** — real ``perf_counter`` timestamps, for work the simulated
  clock cannot see (individual plan steps).

Nested ``span()`` calls inherit the enclosing span's track, clock and
offset, so instrumentation deep in the executors needs no plumbing: a
replica opens a sim span for the micro-batch and everything recorded
inside lands on that replica's track and timeline.

Tracing off is a no-op: every instrumentation site starts with a
``get_tracer() is None`` check and touches no RNG either way, so golden
digests are identical with tracing on or off (also pinned in tests).
``REPRO_TRACE=1`` in the environment installs a bounded tracer at import
(a ring of the most recent spans, so a whole test suite can run under it).
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "maybe_span",
    "plan_step_name",
]

#: Span buffer bound when tracing is enabled via the environment
#: (explicitly constructed tracers are unbounded by default).
ENV_RING_SPANS = 200_000


@dataclass
class Span:
    """One recorded event: a timed span, an instant, or an async pair.

    Plain data end to end (picklable, JSON-friendly ``args``) so spans
    cross process boundaries unchanged.  ``seq`` is the span's per-track
    sequence number, assigned when the span *opens* — sorting a track's
    spans by ``seq`` reproduces program order regardless of the order
    spans were recorded or absorbed in.
    """

    name: str
    cat: str
    domain: str  # "sim" | "wall"
    track: str
    start: float
    end: float
    seq: int
    kind: str = "span"  # "span" | "instant" | "async"
    args: dict = field(default_factory=dict)
    #: Async correlation id ("async" spans only): the request's rid, so
    #: every event of one request shares one Perfetto async track.
    aid: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans onto per-track sequences; nestable.

    ``maxlen`` bounds the buffer (oldest spans drop first) — used by the
    ``REPRO_TRACE`` environment mode so an arbitrarily long run cannot
    exhaust memory; programmatic tracers default to unbounded.
    """

    def __init__(self, maxlen: int | None = None) -> None:
        self._spans: deque[Span] = deque(maxlen=maxlen)
        self._seq: dict[str, int] = {}
        # Open-span inheritance stack: (track, clock, offset) per frame.
        self._stack: list[tuple[str, object, float]] = []

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    def _next_seq(self, track: str) -> int:
        seq = self._seq.get(track, 0)
        self._seq[track] = seq + 1
        return seq

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "",
        track: str | None = None,
        clock=None,
        offset: float | None = None,
        domain: str | None = None,
        args: dict | None = None,
    ) -> Iterator[Span]:
        """Record a timed span around the ``with`` body.

        Omitted ``track``/``clock``/``offset`` inherit from the innermost
        open span; with no clock anywhere (or ``domain="wall"``) the span
        times itself with ``perf_counter``.  Yields the :class:`Span` so
        the body can attach result args (cache hits, sizes) before close.
        """
        ctx = self._stack[-1] if self._stack else None
        if domain == "wall":
            clock = None
        elif clock is None and ctx is not None:
            clock = ctx[1]
            if offset is None:
                offset = ctx[2]
        if track is None:
            track = ctx[0] if ctx is not None else "main"
        if offset is None:
            offset = 0.0
        if clock is not None:
            start = offset + clock.elapsed()
            span_domain = "sim"
        else:
            start = time.perf_counter()
            span_domain = "wall"
        sp = Span(
            name=name, cat=cat, domain=span_domain, track=track,
            start=start, end=start, seq=self._next_seq(track),
            args=dict(args) if args else {},
        )
        self._stack.append((track, clock, offset))
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = (
                offset + clock.elapsed()
                if clock is not None
                else time.perf_counter()
            )
            self._spans.append(sp)

    def instant(
        self,
        name: str,
        *,
        t: float,
        cat: str = "",
        track: str = "main",
        domain: str = "sim",
        args: dict | None = None,
    ) -> None:
        """Record a zero-duration event at simulated (or wall) time ``t``."""
        self._spans.append(
            Span(
                name=name, cat=cat, domain=domain, track=track,
                start=float(t), end=float(t), seq=self._next_seq(track),
                kind="instant", args=dict(args) if args else {},
            )
        )

    def async_span(
        self,
        name: str,
        *,
        aid: int,
        start: float,
        end: float,
        cat: str = "request",
        track: str = "main",
        args: dict | None = None,
    ) -> None:
        """Record an async begin/end pair (one request's arrival-to-reply
        window, which may overlap other requests on the same track)."""
        self._spans.append(
            Span(
                name=name, cat=cat, domain="sim", track=track,
                start=float(start), end=float(end),
                seq=self._next_seq(track), kind="async",
                args=dict(args) if args else {}, aid=int(aid),
            )
        )

    # -------------------------------------------------------------- #
    # Readout
    # -------------------------------------------------------------- #
    @property
    def spans(self) -> list[Span]:
        """The recorded spans, in recording order."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


@contextmanager
def maybe_span(name: str, **kwargs) -> Iterator[Span | None]:
    """``tracer.span(...)`` against the installed tracer, or a no-op.

    Yields the open :class:`Span` (so callers can attach result args) or
    ``None`` when tracing is off.  Hot loops that cannot afford even the
    generator frame should branch on :func:`get_tracer` explicitly.
    """
    tracer = get_tracer()
    if tracer is None:
        yield None
    else:
        with tracer.span(name, **kwargs) as sp:
            yield sp


def plan_step_name(step) -> str:
    """Display name of a plan step, from its type: ``PROB``, ``NORM``,
    ``SAMPLE`` or ``EXTRACT``."""
    return type(step).__name__.removesuffix("Step").upper()


# ------------------------------------------------------------------ #
# The process-global tracer
# ------------------------------------------------------------------ #
_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` (the common fast path)."""
    return _TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


if os.environ.get("REPRO_TRACE", "") not in ("", "0"):
    # Force-enabled runs (CI) get a bounded buffer so arbitrarily long
    # processes — a whole test suite — survive with tracing on.
    _TRACER = Tracer(maxlen=ENV_RING_SPANS)
