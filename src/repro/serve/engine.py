"""The online serving engine: micro-batched ego-network inference.

:class:`ServingEngine` turns the repo's *offline* bulk-sampling machinery
into an online service.  Concurrent :class:`~repro.serve.request.InferenceRequest`\\ s
are coalesced by the :class:`~repro.serve.request.MicroBatcher` into one
micro-batch, the micro-batch's (deduplicated) target vertices are sampled
through the existing sampling-plan IR (:mod:`repro.core.plan`, run by the
same :class:`~repro.core.plan.LocalExecutor` training uses), and the
:class:`~repro.gnn.GNNModel` produces one logits row per target.  That is
the paper's bulk-amortization argument replayed at serving time: one
micro-batch costs one plan's worth of kernel launches no matter how many
requests share it.

The compute itself lives in :class:`~repro.serve.replica.Replica` — the
engine is the *control loop* for exactly one replica: it owns the workload
queue, decides dispatch times, and interleaves streaming graph updates.
(The multi-replica control loop over the same Replica core is
:class:`~repro.serve.cluster.ServingCluster`.)

Two serving modes:

* **exact** (default, ``fanout=None``) — every hop keeps the *full*
  neighborhood (a node-wise plan whose SAMPLE count is the graph's max
  in-degree), so the served logits are **bit-identical** to
  :func:`~repro.pipeline.layerwise_inference` for the same vertices.  Both
  paths run the convolutions' row-stable ``infer`` kernels, which is what
  makes the equality exact rather than approximate.  In this mode the
  :class:`~repro.serve.cache.EmbeddingCache` can memoize penultimate-layer
  rows for hot vertices (``embed_budget``) without changing a single bit.
* **sampled** (an explicit ``fanout``) — compiles micro-batches through
  the engine's *configured* sampler at that fanout: approximate logits,
  lower latency, any registered sampler/kernel backend.  The embedding
  cache stays off (sampled representations are not memoizable values).

All time is simulated: service time comes from the machine's roofline
:class:`~repro.comm.cost_model.CostModel` and accumulates on a
:class:`~repro.comm.clock.SimClock` under ``sampling`` / ``propagation`` /
``embedding_cache`` phases, so admission, batching and p50/p95/p99 latency
are exactly reproducible.

**Streaming graphs.**  Built over a
:class:`~repro.stream.StreamingGraph`, the engine also consumes workloads
that interleave :class:`~repro.stream.EdgeBatch` mutations with requests
(:class:`~repro.stream.UpdateStream`).  An update due before the next
micro-batch's dispatch is applied first — delta-log merge, threshold
compaction and the dirty-vertex invalidation of the embedding cache all
charge the same clock under a ``graph_update`` phase — so every request is
served on the graph as of its dispatch time and logits stay bit-identical
to layer-wise inference on the *current* adjacency.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..gnn.model import GNNModel
from ..graphs import Graph
from ..obs.metrics import get_registry
from .cache import ServeStats
from .replica import Replica
from .request import InferenceRequest, InferenceResult, RequestQueue

__all__ = ["ServingEngine", "ServeReport"]


@dataclass
class ServeReport:
    """Everything one :meth:`ServingEngine.process` run produced."""

    results: list[InferenceResult]
    batches: int
    phase_seconds: dict[str, float]
    cache_stats: ServeStats | None = None
    exact: bool = True
    # Streaming runs only: snapshot of the StreamingGraph's counters
    # (update batches, applied/skipped edits, compactions, dirty vertices).
    update_stats: object | None = None
    # Fleet runs only: requests dropped by admission control, replica
    # counts over time ([(sim_time, n_replicas)] autoscaler trace), and
    # per-replica request counts keyed by replica id.
    shed: int = 0
    replica_trace: list[tuple[float, int]] = field(default_factory=list)
    per_replica: dict[int, int] = field(default_factory=dict)

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
        if self.shed:
            registry.counter(
                "serve_shed_total", "inference requests shed by admission",
                **labels,
            ).set(self.shed)
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
        if self.shed:
            out["shed"] = self.shed
        if self.update_stats is not None:
            out.update(self.update_stats.row())
        return out


class ServingEngine:
    """Serve logits for target vertices with micro-batched bulk sampling.

    ``config`` supplies the serving knobs (``serve_batch_size``,
    ``serve_max_wait``, ``embed_budget``), the kernel backend, the machine
    model and the seed.  ``fanout=None`` selects the exact full-neighborhood
    mode; a tuple of per-layer counts selects sampled serving through the
    configured sampler (its length must match the model depth).

    The engine is the single-server control loop over one
    :class:`~repro.serve.replica.Replica`; compute, caches and the phase
    clock live on the replica and are re-exported here for compatibility.
    """

    def __init__(
        self,
        model: GNNModel,
        graph: Graph,
        config,
        *,
        fanout: Sequence[int] | None = None,
        stream=None,
    ) -> None:
        if stream is not None:
            graph = stream.graph
        self.stream = stream
        self.replica = Replica(model, graph, config, fanout=fanout)

    # ------------------------------------------------------------------ #
    # Compatibility surface: the pre-fleet engine exposed its internals
    # directly; tests, benchmarks and examples reach for these.
    # ------------------------------------------------------------------ #
    @property
    def model(self):
        return self.replica.model

    @property
    def graph(self):
        return self.replica.graph

    @property
    def config(self):
        return self.replica.config

    @property
    def clock(self):
        return self.replica.clock

    @property
    def cost(self):
        return self.replica.cost

    @property
    def exact(self) -> bool:
        return self.replica.exact

    @property
    def fanout(self):
        return self.replica.fanout

    @property
    def sampler(self):
        return self.replica.sampler

    @property
    def prob_cache(self):
        return self.replica.prob_cache

    @property
    def cache(self):
        return self.replica.cache

    @property
    def batcher(self):
        return self.replica.batcher

    # ------------------------------------------------------------------ #
    # Graph updates (streaming serving)
    # ------------------------------------------------------------------ #
    def apply_update(self, batch, at: float | None = None) -> float:
        """Apply one :class:`~repro.stream.EdgeBatch`; returns sim seconds.

        Runs the full protocol: absorb the batch into the delta log (and
        maybe compact) — once, on the shared :class:`StreamingGraph` — then
        have the replica absorb the result: refresh the exact-mode fanout,
        drop stale probability matrices, and invalidate reachable cached
        embeddings, all charged to the clock under ``graph_update``.
        ``at`` is the workload time the absorb starts, used only to place
        the replica's trace span on the workload timeline.
        """
        if self.stream is None:
            raise ValueError(
                "this engine serves a frozen graph; build it over a "
                "StreamingGraph (Engine.serving with stream_updates=True) "
                "to apply edge updates"
            )
        result = self.stream.apply(batch)
        return self.replica.absorb_update(result, at=at)

    # ------------------------------------------------------------------ #
    # Serving entry points
    # ------------------------------------------------------------------ #
    def serve(self, vertices: np.ndarray) -> np.ndarray:
        """One-shot serving (no queueing): logits aligned with ``vertices``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.unique(vertices)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 401])
        )
        logits = self.replica.logits_for(targets, rng)
        return logits[np.searchsorted(targets, vertices)]

    def process(self, workload) -> ServeReport:
        """Run a workload to exhaustion under the micro-batching policy.

        ``workload`` provides ``initial() -> [requests]`` and
        ``on_complete(result) -> [requests]`` (see :mod:`repro.serve.workload`).
        A workload may additionally provide ``updates() -> [EdgeBatch]``
        (:class:`~repro.stream.UpdateStream`): an update whose arrival
        precedes the next micro-batch's dispatch time is applied first —
        the server is busy for the update's simulated duration, and the
        dispatch decision is re-taken afterwards (more arrivals may have
        joined the batch).  Deterministic: dispatch times depend only on
        simulated arrivals, the policy, and simulated service times.

        Each call reports only its own run: the phase clock and the cache's
        hit/miss counters reset on entry (cached rows and LFU frequencies
        persist across calls, like the feature cache across epochs).
        """
        rep = self.replica
        rep.clock.reset()
        if rep.cache is not None:
            rep.cache.stats.reset()
        updates = list(workload.updates()) if hasattr(workload, "updates") else []
        if updates and self.stream is None:
            raise ValueError(
                "workload interleaves edge updates but this engine serves "
                "a frozen graph; build it with Engine.serving() under "
                "RunConfig(stream_updates=True) (or pass a StreamingGraph)"
            )
        queue = RequestQueue()
        for req in workload.initial():
            queue.push(req)
        results: list[InferenceResult] = []
        free = 0.0
        batch_index = 0
        next_update = 0
        while True:
            dispatch = rep.batcher.next_dispatch(queue, free)
            if dispatch is None:
                if next_update < len(updates):
                    # Requests drained first: apply the remaining churn.
                    at = max(free, updates[next_update].at)
                    free = at + self.apply_update(updates[next_update], at=at)
                    next_update += 1
                    continue
                break
            t, batch = dispatch
            if next_update < len(updates) and updates[next_update].at <= t:
                # The update is due before this batch would leave: put the
                # batch back (it stays the oldest pending work), apply the
                # update while the server would otherwise idle, and re-take
                # the dispatch decision at the new free time.
                queue.pending = batch + queue.pending
                at = max(free, updates[next_update].at)
                free = at + self.apply_update(updates[next_update], at=at)
                next_update += 1
                continue
            batch_results = rep.serve_batch(batch, t, batch_index)
            free = batch_results[0].completed
            results.extend(batch_results)
            for result in batch_results:
                for req in workload.on_complete(result):
                    queue.push(req)
            batch_index += 1
        results.sort(key=lambda r: r.request.rid)
        report = ServeReport(
            results=results,
            batches=batch_index,
            phase_seconds=rep.clock.breakdown(),
            # Snapshot, so a later process() reset can't mutate this report.
            cache_stats=(
                dataclasses.replace(rep.cache.stats)
                if rep.cache is not None
                else None
            ),
            exact=rep.exact,
            update_stats=(
                dataclasses.replace(self.stream.stats)
                if self.stream is not None and updates
                else None
            ),
        )
        registry = get_registry()
        if registry is not None:
            report.publish(registry)
            rep.prob_cache.publish(registry)
        return report
