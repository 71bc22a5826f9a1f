"""Request routing policies for the serving fleet.

A :class:`Router` decides which replica serves each incoming request.  The
contract is deliberately small — ``rebalance(live)`` whenever the set of
live replica ids changes (startup, autoscaler steps) and
``route(request) -> rid`` per request — and deliberately deterministic:
policies may keep internal state (the round-robin cursor, the hash ring)
but never consult wall time or unseeded randomness, so a fleet run is
exactly reproducible.

Three built-in policies:

* ``direct`` — everything to the lowest-id live replica: the policy of
  a single server (the N=1 fleet), and the default.
* ``round_robin`` — cycle through live replicas in id order.  Best load
  spread, worst cache locality: a hot vertex's penultimate-layer row ends
  up cached on *every* replica.
* ``consistent_hash`` — locality-aware.  The vertex space is cut into
  ``n_partitions`` contiguous ranges (the same
  :func:`~repro.partition.block1d.split_rows` arithmetic the 1.5D grid
  uses) and each partition is mapped onto a blake2b hash ring of replica
  virtual nodes.  Requests for the same vertex range always land on the
  same replica, so its :class:`~repro.serve.cache.EmbeddingCache` hit rate
  compounds instead of being diluted N ways — and when the autoscaler adds
  or removes a replica, only the partitions adjacent to its virtual nodes
  move (the classic consistent-hashing stability argument).

Hashes use :func:`hashlib.blake2b`, not Python's builtin ``hash`` — the
builtin is salted per process, which would make ring placement
irreproducible across runs.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol, Sequence

import numpy as np

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

    #: Registry name of the policy (what traces and banners print).
    name: str

    def rebalance(self, live: Sequence[int]) -> None:
        """Install the new set of live replica ids (sorted, non-empty)."""
        ...

    def route(self, request: InferenceRequest) -> int:
        """Return the live replica id that should serve ``request``."""
        ...


class DirectRouter:
    """Everything to the lowest-id live replica (the N=1 identity policy)."""

    name = "direct"

    def __init__(self, n_vertices: int | None = None) -> None:
        self._live: list[int] = []

    def rebalance(self, live: Sequence[int]) -> None:
        self._live = sorted(live)

    def route(self, request: InferenceRequest) -> int:
        return self._live[0]


class RoundRobinRouter:
    """Cycle through live replicas in id order.

    The cursor survives rebalances (it is a monotone counter, reduced
    modulo the live count at route time), so adding a replica mid-run
    does not restart the cycle.
    """

    name = "round_robin"

    def __init__(self, n_vertices: int | None = None) -> None:
        self._live: list[int] = []
        self._next = 0

    def rebalance(self, live: Sequence[int]) -> None:
        self._live = sorted(live)

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
    first replica virtual node clockwise on the ring.  A request is routed
    by the partition of its *first* target vertex — requests in this repo
    are ego-network lookups whose vertices are spatially close, and using
    a single representative keeps routing O(log ring) per request.
    """

    name = "consistent_hash"

    def __init__(
        self,
        n_vertices: int,
        *,
        n_partitions: int = 64,
        vnodes: int = 16,
    ) -> None:
        if n_vertices <= 0:
            raise ValueError("consistent_hash router needs the vertex count")
        self.n_vertices = int(n_vertices)
        self.n_partitions = min(int(n_partitions), self.n_vertices)
        self.vnodes = int(vnodes)
        # Partition boundaries never move; only ring ownership does.
        self._bounds = split_rows(self.n_vertices, self.n_partitions)
        self._live: list[int] = []
        self._owner = np.zeros(self.n_partitions, dtype=np.int64)

    def rebalance(self, live: Sequence[int]) -> None:
        self._live = sorted(live)
        ring: list[tuple[int, int]] = []
        for rid in self._live:
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


def make_router(name: str, n_vertices: int) -> Router:
    """Build a router policy by registry name."""
    try:
        factory = ROUTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; known: {sorted(ROUTERS)}"
        ) from None
    return factory(n_vertices)
