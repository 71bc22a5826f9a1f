"""Request routing policies for the serving fleet.

A :class:`Router` decides which replica serves each incoming request.  The
contract is deliberately small — a policy is built over the vertex count
and the fleet's replica ids (``make_router(name, n, live)``; a fleet's
replica set is fixed when it is built) and answers ``route(request) ->
rid`` per request — and deliberately deterministic: policies may keep
internal state (the round-robin cursor, the hash ring) but never consult
wall time or unseeded randomness, so a fleet run is exactly reproducible.

Three built-in policies:

* ``direct`` — everything to the lowest-id replica: the policy of a
  single server (the N=1 fleet), and the default.
* ``round_robin`` — cycle through the replicas in id order.  Best load
  spread, worst cache locality: a hot vertex's penultimate-layer row ends
  up cached on *every* replica.
* ``consistent_hash`` — locality-aware.  The vertex space is cut into
  ``n_partitions`` contiguous ranges (the same
  :func:`~repro.partition.block1d.split_rows` arithmetic the 1.5D grid
  uses) and each partition is mapped onto a blake2b hash ring of replica
  virtual nodes.  Requests for the same vertex range always land on the
  same replica, so its :class:`~repro.serve.cache.EmbeddingCache` hit rate
  compounds instead of being diluted N ways — and a fleet one replica
  larger owns the same partitions except those adjacent to the new
  replica's virtual nodes (the classic consistent-hashing stability
  argument).

Hashes use :func:`hashlib.blake2b`, not Python's builtin ``hash`` — the
builtin is salted per process, which would make ring placement
irreproducible across runs.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol, Sequence

import numpy as np

from ..names import check_name
from ..partition.block1d import split_rows
from .request import InferenceRequest

__all__ = [
    "Router",
    "DirectRouter",
    "RoundRobinRouter",
    "ConsistentHashRouter",
    "ROUTERS",
    "make_router",
]


class Router(Protocol):
    """Picks a replica id for each request."""

    #: ROUTERS name of the policy (what traces and banners print).
    name: str

    def route(self, request: InferenceRequest) -> int:
        """Return the replica id that should serve ``request``."""
        ...


class DirectRouter:
    """Everything to the lowest-id replica (the N=1 identity policy)."""

    name = "direct"

    def __init__(self, n_vertices: int, live: Sequence[int]) -> None:
        self._first = min(live)

    def route(self, request: InferenceRequest) -> int:
        return self._first


class RoundRobinRouter:
    """Cycle through the replicas in id order.

    The cursor is a monotone counter, reduced modulo the replica count at
    route time, so it carries on across runs of one fleet.
    """

    name = "round_robin"

    def __init__(self, n_vertices: int, live: Sequence[int]) -> None:
        self._live = sorted(live)
        self._next = 0

    def route(self, request: InferenceRequest) -> int:
        rid = self._live[self._next % len(self._live)]
        self._next += 1
        return rid


def _stable_hash(token: str) -> int:
    """64-bit blake2b of ``token`` — stable across processes and runs."""
    return int.from_bytes(
        hashlib.blake2b(token.encode(), digest_size=8).digest(), "big"
    )


class ConsistentHashRouter:
    """Locality-aware routing: vertex partition → hash ring → replica.

    ``n_vertices`` fixes the partitioned vertex space; ``n_partitions``
    contiguous ranges (``split_rows`` boundaries) are each owned by the
    first virtual node clockwise on the ring of the ``live`` replicas.  A
    request is routed by the partition of its *first* target vertex —
    requests in this repo are ego-network lookups whose vertices are
    spatially close, and using a single representative keeps routing
    O(log ring) per request.
    """

    name = "consistent_hash"

    def __init__(
        self,
        n_vertices: int,
        live: Sequence[int],
        *,
        n_partitions: int = 64,
        vnodes: int = 16,
    ) -> None:
        if n_vertices <= 0:
            raise ValueError("consistent_hash router needs the vertex count")
        self.n_vertices = int(n_vertices)
        self.n_partitions = min(int(n_partitions), self.n_vertices)
        self.vnodes = int(vnodes)
        self._bounds = split_rows(self.n_vertices, self.n_partitions)
        self._owner = np.zeros(self.n_partitions, dtype=np.int64)
        ring: list[tuple[int, int]] = []
        for rid in sorted(live):
            for v in range(self.vnodes):
                ring.append((_stable_hash(f"replica:{rid}:{v}"), rid))
        ring.sort()
        points = np.array([p for p, _ in ring], dtype=np.uint64)
        owners = np.array([r for _, r in ring], dtype=np.int64)
        for part in range(self.n_partitions):
            h = _stable_hash(f"part:{part}")
            idx = int(np.searchsorted(points, h))
            self._owner[part] = owners[idx % len(owners)]

    def partition_of(self, vertex: int) -> int:
        """The contiguous vertex range ``vertex`` falls into."""
        return int(np.searchsorted(self._bounds, vertex, side="right") - 1)

    def route(self, request: InferenceRequest) -> int:
        return int(self._owner[self.partition_of(int(request.vertices[0]))])


ROUTERS: dict[str, Callable[..., Router]] = {
    "direct": DirectRouter,
    "round_robin": RoundRobinRouter,
    "consistent_hash": ConsistentHashRouter,
}


def make_router(name: str, n_vertices: int, live: Sequence[int]) -> Router:
    """Build a router policy by name over the replica ids ``live``."""
    return ROUTERS[check_name("router", name, ROUTERS)](n_vertices, live)
