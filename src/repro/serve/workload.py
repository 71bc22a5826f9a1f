"""Request sources for the server: traces and closed-loop clients.

A *workload* feeds :meth:`~repro.serve.cluster.ServingCluster.process`:

* :class:`TraceWorkload` — open loop: a fixed list of requests with
  pre-assigned arrival times (optionally loaded from / saved to JSON, the
  format the ``repro serve --requests trace.json`` CLI consumes).
* :class:`ClosedLoopWorkload` — a closed-loop load generator: ``clients``
  concurrent callers, each keeping exactly one request in flight and
  issuing its next one ``think_time`` after the previous response.
  Sweeping ``clients`` sweeps the offered load — the axis
  ``benchmarks/bench_serving.py`` plots latency/throughput against.

Both are deterministic: target vertices come from a seeded generator and
new arrivals depend only on simulated completion times.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .request import InferenceRequest, InferenceResult

__all__ = ["TraceWorkload", "ClosedLoopWorkload", "load_trace", "save_trace"]


class TraceWorkload:
    """Open-loop workload: requests arrive per the trace, come what may."""

    #: Open-loop workloads submit everything up front and never react to
    #: completions — the property that lets the parallel fleet run each
    #: replica's timeline in its own process (:mod:`repro.parallel.fleet`).
    open_loop = True

    def __init__(self, requests: Sequence[InferenceRequest]) -> None:
        self.requests = list(requests)

    def initial(self) -> list[InferenceRequest]:
        return list(self.requests)

    def on_complete(self, result: InferenceResult) -> list[InferenceRequest]:
        return []

    @classmethod
    def synthetic(
        cls,
        n_requests: int,
        vertex_pool: np.ndarray,
        *,
        seed: int = 0,
        interarrival: float = 1e-4,
        max_vertices: int = 1,
    ) -> "TraceWorkload":
        """A deterministic synthetic trace: fixed interarrival gap, target
        vertices drawn per-request from ``vertex_pool`` by a seeded rng."""
        if n_requests <= 0:
            raise ValueError("need at least one request")
        if interarrival < 0:
            raise ValueError("interarrival must be non-negative")
        pool = np.asarray(vertex_pool, dtype=np.int64)
        if pool.size == 0:
            raise ValueError("vertex pool is empty")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 211]))
        requests = []
        for i in range(n_requests):
            size = 1 if max_vertices <= 1 else int(rng.integers(1, max_vertices + 1))
            verts = rng.choice(pool, size=min(size, pool.size), replace=False)
            requests.append(
                InferenceRequest(rid=i, vertices=verts, arrival=i * interarrival)
            )
        return cls(requests)


class ClosedLoopWorkload:
    """Closed-loop load generator: one outstanding request per client."""

    #: Closed-loop clients issue requests from completions, coupling the
    #: fleet's replica timelines — the parallel fleet path refuses this.
    open_loop = False

    def __init__(
        self,
        n_requests: int,
        vertex_pool: np.ndarray,
        *,
        clients: int = 8,
        think_time: float = 0.0,
        seed: int = 0,
        max_vertices: int = 1,
    ) -> None:
        if n_requests <= 0:
            raise ValueError("need at least one request")
        if clients <= 0:
            raise ValueError("need at least one client")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.n_requests = n_requests
        self.clients = min(clients, n_requests)
        self.think_time = think_time
        self.max_vertices = max_vertices
        self.pool = np.asarray(vertex_pool, dtype=np.int64)
        if self.pool.size == 0:
            raise ValueError("vertex pool is empty")
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 223]))
        self._issued = 0

    def _make(self, arrival: float) -> InferenceRequest:
        size = (
            1
            if self.max_vertices <= 1
            else int(self._rng.integers(1, self.max_vertices + 1))
        )
        verts = self._rng.choice(
            self.pool, size=min(size, self.pool.size), replace=False
        )
        req = InferenceRequest(rid=self._issued, vertices=verts, arrival=arrival)
        self._issued += 1
        return req

    def initial(self) -> list[InferenceRequest]:
        return [self._make(0.0) for _ in range(self.clients)]

    def on_complete(self, result: InferenceResult) -> list[InferenceRequest]:
        if self._issued >= self.n_requests:
            return []
        return [self._make(result.completed + self.think_time)]


def load_trace(path: str | Path) -> TraceWorkload:
    """Read a JSON trace: a list of ``{"arrival": t, "vertices": [...]}``
    objects (or ``{"requests": [...]}`` wrapping the same list)."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("requests")
    if not isinstance(data, list) or not data:
        raise ValueError(f"trace {path} holds no requests")
    requests = []
    for i, entry in enumerate(data):
        requests.append(
            InferenceRequest(
                rid=int(entry.get("rid", i)),
                vertices=np.asarray(entry["vertices"], dtype=np.int64),
                arrival=float(entry.get("arrival", 0.0)),
            )
        )
    return TraceWorkload(requests)


def save_trace(workload: TraceWorkload, path: str | Path) -> Path:
    """Write a :class:`TraceWorkload` as the JSON the CLI consumes."""
    path = Path(path)
    payload = [
        {
            "rid": req.rid,
            "arrival": req.arrival,
            "vertices": [int(v) for v in req.vertices],
        }
        for req in workload.requests
    ]
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
