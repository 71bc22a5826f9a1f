"""The server: N replicas behind a router, one control loop.

:class:`ServingCluster` turns the repo's *offline* bulk-sampling machinery
into an online service, and it is the only server there is: the paper's
Graph Replicated algorithm replayed at serving time, where every replica
holds the whole topology and samples its micro-batch with one bulk plan
and no communication — so a single server is nothing but the N = 1 fleet
(``replicas=1``, the ``direct`` router), not a second code path.
Concurrent :class:`~repro.serve.request.InferenceRequest`\\ s are
coalesced per replica by a :class:`~repro.serve.request.MicroBatcher`, the
micro-batch's deduplicated targets are sampled through the sampling-plan
IR (:mod:`repro.core.plan`, the same executor training uses), and the
:class:`~repro.gnn.GNNModel` produces one logits row per target: one
micro-batch costs one plan's worth of kernel launches however many
requests share it.  The moving parts:

* a :class:`~repro.serve.router.Router` policy assigns each request to a
  replica at submit time;
* every :class:`~repro.serve.replica.Replica` owns its compute, caches,
  clock, batcher and queue; :meth:`ServingCluster._serve_loop` — the one
  dispatch → update-preempt → serve → ``on_complete`` loop — repeatedly
  picks the earliest dispatch across the replicas, so the fleet timeline
  is a deterministic merge of per-replica timelines;
* streaming updates (a workload with ``updates()``, or
  :meth:`ServingCluster.apply_update` directly) broadcast: the delta-log
  merge happens once on the shared :class:`~repro.stream.StreamingGraph`,
  then *every* replica absorbs it (dirty-vertex EmbeddingCache
  invalidation) on its own clock under ``graph_update``,
  so every request is served on the graph as of its dispatch time.

The replica set is fixed when the cluster is built: ``config.replicas``
replicas with ids ``0 .. replicas - 1``, and the router is built over
those ids once.

**Modes.** *Exact* (default, ``fanout=None``): every hop keeps the full
neighborhood — a row gather of ``A``, which draws nothing and needs no
degree bound — so served logits are **bit-identical** to
:func:`~repro.pipeline.layerwise_inference` and *which* replica serves a
request never changes its bits — routing, the replica count and the
:class:`~repro.serve.cache.EmbeddingCache` (``embed_budget``) only move
latency and throughput.  *Sampled* (an explicit ``fanout``): micro-batches
go through the configured sampler at that fanout — approximate logits,
lower latency, no embedding cache.

All time is simulated (roofline :class:`~repro.comm.cost_model.CostModel`
on per-replica :class:`~repro.comm.clock.SimClock`\\ s), so routing,
batching and p50/p95/p99 latency are exactly reproducible.  The N = 1 loop
is held to the pre-fleet single-server loop, kept as an oracle in
``tests/reference_serving_loop.py``, and to the golden digests.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from ..comm.clock import SimClock
from ..gnn.model import GNNModel
from ..graphs import Graph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .cache import ServeStats
from .replica import Replica
from .report import ServeReport
from .request import InferenceRequest, InferenceResult
from .router import make_router

__all__ = ["ServingCluster"]


class ServingCluster:
    """The server: N replicas behind a router.

    ``config`` (a :class:`~repro.api.RunConfig`) supplies the per-replica
    serving knobs (``serve_batch_size``, ``serve_max_wait``,
    ``embed_budget``, machine model, seed) and the fleet knobs:
    ``replicas`` (fleet size) and ``router`` (policy name).  The
    defaults are a single server.  ``fanout=None`` serves exact logits; a
    per-layer tuple serves sampled ones.  ``stream`` is the
    :class:`~repro.stream.StreamingGraph` to serve over when the graph
    takes edge updates.
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
        self.model = model
        self.graph = graph
        self.stream = stream
        self.config = config
        self._fanout = tuple(int(s) for s in fanout) if fanout is not None else None
        self.replicas: list[Replica] = [
            Replica(model, graph, config, fanout=self._fanout, rid=rid)
            for rid in range(config.replicas)
        ]
        self.router = make_router(
            config.router, graph.n, [rep.rid for rep in self.replicas]
        )

    @property
    def exact(self) -> bool:
        return self._fanout is None

    # ------------------------------------------------------------------ #
    # Request flow
    # ------------------------------------------------------------------ #
    def _submit(self, request: InferenceRequest) -> None:
        rid = self.router.route(request)
        tracer = get_tracer()
        if tracer is not None:
            # The flight recorder's first hop: the routing decision, keyed
            # by the request's rid (the same trace id the replica's async
            # window carries).
            tracer.instant(
                "route", t=request.arrival, cat="router", track="router",
                args={"req": int(request.rid), "replica": int(rid)},
            )
        self.replicas[rid].queue.push(request)

    def apply_update(self, batch, at: float | None = None) -> float:
        """Apply one :class:`~repro.stream.EdgeBatch`; returns sim seconds.

        The structural merge (delta log, maybe a compaction) happens once,
        on the shared :class:`~repro.stream.StreamingGraph`; then every
        replica absorbs the result on its own clock under
        ``graph_update`` — invalidation of the cached embeddings the
        change can reach — starting at ``max(its free time,
        at)`` and busy until done.  ``at`` is the update's arrival on the
        workload timeline (default: the batch's own stamp).  Returns the
        slowest replica's absorb time.
        """
        if self.stream is None:
            raise ValueError(
                "this server serves a frozen graph; build it over a "
                "StreamingGraph (Engine.serving with stream_updates=True) "
                "to apply edge updates"
            )
        result = self.stream.apply(batch)
        arrival = batch.at if at is None else at
        slowest = 0.0
        for rep in self.replicas:
            start = max(rep.free, arrival)
            spent = rep.absorb_update(result, at=start)
            rep.free = start + spent
            slowest = max(slowest, spent)
        return slowest

    def serve(self, vertices: np.ndarray) -> np.ndarray:
        """One-shot serving (no queueing): logits aligned with ``vertices``.

        Served by replica 0 — in exact mode the answer is the same from
        any replica.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.unique(vertices)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 401])
        )
        logits = self.replicas[0].logits_for(targets, rng)
        return logits[np.searchsorted(targets, vertices)]

    # ------------------------------------------------------------------ #
    # Running a workload
    # ------------------------------------------------------------------ #
    def _begin(self, workload) -> list:
        """Start a run: per-run reset (clocks, counters and queues — cached
        rows and LFU frequencies persist, like the feature cache across
        epochs), then route the workload's initial requests.
        Returns the workload's edge updates (``[]`` for a read-only one)."""
        for rep in self.replicas:
            rep.reset()
        updates = list(workload.updates()) if hasattr(workload, "updates") else []
        if updates and self.stream is None:
            raise ValueError(
                "workload interleaves edge updates but this server serves "
                "a frozen graph; build it with Engine.serving() under "
                "RunConfig(stream_updates=True) (or pass a StreamingGraph)"
            )
        for req in workload.initial():
            self._submit(req)
        return updates

    def process(self, workload) -> ServeReport:
        """Run a workload to exhaustion under the micro-batching policy.

        ``workload`` provides ``initial() -> [requests]`` and
        ``on_complete(result) -> [requests]`` (see
        :mod:`repro.serve.workload`), and optionally ``updates() ->
        [EdgeBatch]`` (:class:`~repro.stream.UpdateStream`).  Each call
        reports only its own run.  Deterministic end to end: every decision
        of :meth:`_serve_loop` is a function of simulated times and ids.
        """
        updates = self._begin(workload)
        results, batches = self._serve_loop(workload, updates)
        return self._report(results, batches, updates)

    def _report(self, results, batches, updates) -> ServeReport:
        results.sort(key=lambda r: r.request.rid)
        cache_stats: ServeStats | None = None
        if any(rep.cache is not None for rep in self.replicas):
            # Fleet-wide counters: one ServeStats summing every replica's.
            cache_stats = ServeStats()
            for rep in self.replicas:
                cache_stats.add(rep.stats)
        report = ServeReport(
            results=results,
            batches=batches,
            phase_seconds=SimClock.merged(
                [rep.clock for rep in self.replicas]
            ).breakdown(),
            cache_stats=cache_stats,
            exact=self.exact,
            update_stats=(
                dataclasses.replace(self.stream.stats)
                if self.stream is not None and updates
                else None
            ),
            per_replica={rep.rid: rep.served for rep in self.replicas},
        )
        registry = get_registry()
        if registry is not None:
            report.publish(registry)
            registry.gauge(
                "serve_replicas", "replicas in the fleet",
                router=getattr(self.router, "name", type(self.router).__name__),
            ).set(len(self.replicas))
            for rep in self.replicas:
                rep.stats.publish(registry, replica=rep.rid)
                registry.counter(
                    "serve_replica_requests_total",
                    "requests served per replica", replica=rep.rid,
                ).set(rep.served)
        return report

    def _serve_loop(
        self, workload, updates: Sequence
    ) -> tuple[list[InferenceResult], int]:
        """Drain the replicas' queues: dispatch -> update-preempt -> serve.

        Every replica's batcher proposes its next dispatch; the earliest
        ``(time, rid)`` wins and the other candidates go back to the front of
        their queues (each taken batch is its queue's oldest pending work, so
        push-back preserves order).  An update whose arrival precedes the
        winning dispatch is applied first — the replicas are busy for its
        simulated duration and the decision is re-taken afterwards (more
        arrivals may have joined the batch); once requests drain, the remaining
        updates apply in order.  The winner's batch is served, and
        ``workload.on_complete`` sees each result — the hook through which
        closed-loop clients submit their next request.

        Returns the results in dispatch order and the micro-batch count.
        """
        replicas = self.replicas
        results: list[InferenceResult] = []
        batch_index = 0
        next_update = 0
        while True:
            candidates = []
            for rep in replicas:
                dispatch = rep.batcher.next_dispatch(rep.queue, rep.free)
                if dispatch is not None:
                    candidates.append((dispatch[0], rep, dispatch[1]))
            if not candidates and next_update == len(updates):
                break
            t, rep, batch = min(
                candidates, key=lambda c: (c[0], c[1].rid),
                default=(math.inf, None, None),
            )
            update_due = (
                next_update < len(updates) and updates[next_update].at <= t
            )
            winner = None if update_due else rep
            for _, other, other_batch in candidates:
                if other is not winner:
                    other.queue.pending = other_batch + other.queue.pending
            if update_due:
                self.apply_update(updates[next_update])
                next_update += 1
                continue
            batch_results = rep.serve_batch(batch, t, batch_index)
            rep.free = batch_results[0].completed
            rep.batches += 1
            rep.served += len(batch_results)
            results.extend(batch_results)
            for result in batch_results:
                for req in workload.on_complete(result):
                    self._submit(req)
            batch_index += 1
        return results, batch_index
