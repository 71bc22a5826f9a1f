"""The server: N replicas behind a router, one control loop.

:class:`ServingCluster` turns the repo's *offline* bulk-sampling machinery
into an online service, and it is the only server there is: the paper's
Graph Replicated algorithm replayed at serving time, where every replica
holds the whole topology and samples its micro-batch with one bulk plan
and no communication — so a single server is nothing but the N = 1 fleet
(``replicas=1``, the ``direct`` router, no shedding), not a second code
path.  Concurrent :class:`~repro.serve.request.InferenceRequest`\\ s are
coalesced per replica by a :class:`~repro.serve.request.MicroBatcher`, the
micro-batch's deduplicated targets are sampled through the sampling-plan
IR (:mod:`repro.core.plan`, the same executor training uses), and the
:class:`~repro.gnn.GNNModel` produces one logits row per target: one
micro-batch costs one plan's worth of kernel launches however many
requests share it.  The moving parts:

* a :class:`~repro.serve.router.Router` policy assigns each request to a
  replica at submit time;
* an :class:`~repro.serve.admission.AdmissionController` may shed requests
  (queue-depth at submit, deadline at dispatch) — sheds are counted per
  replica and surfaced in the report;
* every :class:`~repro.serve.replica.Replica` owns its compute, caches,
  clock, batcher and queue; :func:`_serve_loop` — the one dispatch →
  update-preempt → serve → ``on_complete`` loop, also what each worker of
  the parallel path (:mod:`repro.parallel.fleet`) runs over its one
  replica — repeatedly picks the earliest dispatch across live replicas,
  so the fleet timeline is a deterministic merge of per-replica timelines;
* streaming updates (a workload with ``updates()``, or
  :meth:`ServingCluster.apply_update` directly) broadcast: the delta-log
  merge happens once on the shared :class:`~repro.stream.StreamingGraph`,
  then *every* replica absorbs it (dirty-vertex EmbeddingCache
  invalidation) on its own clock under ``graph_update``,
  so every request is served on the graph as of its dispatch time;
* an optional :class:`Autoscaler` (enabled by ``slo_p99 > 0``) evaluates
  the p99 of each fixed interval on the simulated clock and steps the
  live replica count up when the SLO is violated, down (with hysteresis)
  when there is ample headroom — MLSYSIM-style first-principles modeling:
  all of it on simulated time, so scaling decisions replay identically.

**Modes.** *Exact* (default, ``fanout=None``): every hop keeps the full
neighborhood — a row gather of ``A``, which draws nothing and needs no
degree bound — so served logits are **bit-identical** to
:func:`~repro.pipeline.layerwise_inference` and *which* replica serves a
request never changes its bits — routing, shedding, scaling and the
:class:`~repro.serve.cache.EmbeddingCache` (``embed_budget``) only move
latency and throughput.  *Sampled* (an explicit ``fanout``): micro-batches
go through the configured sampler at that fanout — approximate logits,
lower latency, no embedding cache.

All time is simulated (roofline :class:`~repro.comm.cost_model.CostModel`
on per-replica :class:`~repro.comm.clock.SimClock`\\ s), so admission,
batching and p50/p95/p99 latency are exactly reproducible.  The N = 1 loop
is held to the pre-fleet single-server loop, kept as an oracle in
``tests/reference_serving_loop.py``, and to the golden digests.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from ..comm.clock import SimClock
from ..gnn.model import GNNModel
from ..graphs import Graph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .admission import AdmissionController
from .cache import ServeStats
from .replica import Replica
from .report import ServeReport
from .request import InferenceRequest, InferenceResult
from .router import make_router

__all__ = ["ServingCluster", "Autoscaler"]


class Autoscaler:
    """Steps the live replica count from p99-vs-SLO on the simulated clock.

    Every ``interval`` simulated seconds the cluster hands the autoscaler
    the p99 latency of requests completed in that window.  One step per
    evaluation: scale up by one replica when p99 exceeds the SLO, scale
    down by one when p99 is under half the SLO (the hysteresis band keeps
    the fleet from oscillating), always within ``[min_replicas,
    max_replicas]``.  Windows with no completed requests make no decision.
    """

    def __init__(
        self,
        slo_p99: float,
        *,
        min_replicas: int = 1,
        max_replicas: int = 8,
        interval: float = 0.01,
    ) -> None:
        if slo_p99 <= 0:
            raise ValueError("autoscaling needs a positive p99 SLO")
        if not (1 <= min_replicas <= max_replicas):
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{min_replicas}, {max_replicas}]"
            )
        if interval <= 0:
            raise ValueError("autoscale interval must be positive")
        self.slo_p99 = float(slo_p99)
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.interval = float(interval)

    def decide(self, p99: float | None, n_live: int) -> int:
        """Target replica count given the window's p99 (None = no data)."""
        if p99 is None:
            return n_live
        if p99 > self.slo_p99:
            return min(n_live + 1, self.max_replicas)
        if p99 < 0.5 * self.slo_p99:
            return max(n_live - 1, self.min_replicas)
        return n_live


class ServingCluster:
    """The server: N replicas behind a router and admission control.

    ``config`` (a :class:`~repro.api.RunConfig`) supplies the per-replica
    serving knobs (``serve_batch_size``, ``serve_max_wait``,
    ``embed_budget``, machine model, seed) and the fleet knobs:
    ``replicas`` (initial fleet size), ``router`` (policy name),
    ``shed_policy``/``shed_queue_depth``/``shed_deadline``, the autoscaler
    bounds ``slo_p99``/``autoscale_min``/``autoscale_max``/
    ``autoscale_interval`` (``slo_p99=0`` disables autoscaling) and
    ``workers``.  The defaults are a single server.  ``fanout=None``
    serves exact logits; a per-layer tuple serves sampled ones.  ``stream``
    is the :class:`~repro.stream.StreamingGraph` to serve over when the
    graph takes edge updates.
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
            self._new_replica(rid) for rid in range(config.replicas)
        ]
        # Retired replicas keep contributing their clocks and shed counts
        # to the final report even after the autoscaler removes them.
        self.retired: list[Replica] = []
        self.router = make_router(config.router, graph.n)
        self.admission = AdmissionController(
            config.shed_policy,
            queue_depth=config.shed_queue_depth,
            deadline=config.shed_deadline,
        )
        self.autoscaler: Autoscaler | None = None
        if config.slo_p99 > 0:
            self.autoscaler = Autoscaler(
                config.slo_p99,
                min_replicas=config.autoscale_min,
                max_replicas=config.autoscale_max,
                interval=config.autoscale_interval,
            )

    def _new_replica(self, rid: int) -> Replica:
        return Replica(self.model, self.graph, self.config,
                       fanout=self._fanout, rid=rid)

    @property
    def exact(self) -> bool:
        return self._fanout is None

    # ------------------------------------------------------------------ #
    # Request flow
    # ------------------------------------------------------------------ #
    def _submit(self, request: InferenceRequest) -> None:
        rid = self.router.route(request)
        rep = next(rep for rep in self.replicas if rep.rid == rid)
        admitted = self.admission.admit(rep, request)
        tracer = get_tracer()
        if tracer is not None:
            # The flight recorder's first hop: the routing decision, keyed
            # by the request's rid (the same trace id the replica's async
            # window carries).
            tracer.instant(
                "route", t=request.arrival, cat="router", track="router",
                args={
                    "req": int(request.rid),
                    "replica": int(rid),
                    "admitted": bool(admitted),
                },
            )
        if admitted:
            rep.queue.push(request)

    def apply_update(self, batch, at: float | None = None) -> float:
        """Apply one :class:`~repro.stream.EdgeBatch`; returns sim seconds.

        The structural merge (delta log, maybe a compaction) happens once,
        on the shared :class:`~repro.stream.StreamingGraph`; then every
        live replica absorbs the result on its own clock under
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
        return _apply_update(self.stream, self.replicas, batch, at)

    def _autoscale_step(self, window: list[InferenceResult], now: float) -> None:
        """One autoscaler evaluation: maybe add or retire a replica."""
        scaler = self.autoscaler
        p99 = (
            float(np.percentile([r.latency for r in window], 99))
            if window
            else None
        )
        target = scaler.decide(p99, len(self.replicas))
        tracer = get_tracer()
        if tracer is not None and target != len(self.replicas):
            tracer.instant(
                "autoscale", t=now, cat="router", track="router",
                args={"from": len(self.replicas), "to": target},
            )
        if target == len(self.replicas):
            return
        if target > len(self.replicas):
            rid = max(
                [rep.rid for rep in self.replicas + self.retired], default=-1
            ) + 1
            rep = self._new_replica(rid)
            rep.free = now  # joins cold, available from the decision point
            self.replicas.append(rep)
        else:
            # Retire the newest replica; its queued work is re-routed
            # (and re-admitted) across the survivors.
            rep = max(self.replicas, key=lambda r: r.rid)
            self.replicas.remove(rep)
            self.retired.append(rep)
            self.router.rebalance([r.rid for r in self.replicas])
            for req in rep.queue.drain():
                self._submit(req)
            return
        self.router.rebalance([r.rid for r in self.replicas])

    def serve(self, vertices: np.ndarray) -> np.ndarray:
        """One-shot serving (no queueing): logits aligned with ``vertices``.

        Served by the lowest-id live replica — in exact mode the answer is
        the same from any replica.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.unique(vertices)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 401])
        )
        rep = min(self.replicas, key=lambda r: r.rid)
        logits = rep.logits_for(targets, rng)
        return logits[np.searchsorted(targets, vertices)]

    # ------------------------------------------------------------------ #
    # Running a workload
    # ------------------------------------------------------------------ #
    def _begin(self, workload) -> list:
        """Start a run: per-run reset (clocks, counters and queues — cached
        rows and LFU frequencies persist, like the feature cache across
        epochs), then route and admit the workload's initial requests.
        Returns the workload's edge updates (``[]`` for a read-only one)."""
        for rep in self.replicas:
            rep.reset()
        if self.autoscaler is not None and (
            len(self.replicas) < self.autoscaler.min_replicas
        ):
            raise ValueError(
                "initial replica count is below the autoscaler minimum"
            )
        self.router.rebalance([rep.rid for rep in self.replicas])
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
        of :func:`_serve_loop` is a function of simulated times and ids.

        With ``config.workers > 0`` the same run executes on real cores:
        each replica's timeline runs in its own worker process over
        shared-memory graph views (:mod:`repro.parallel.fleet`), with the
        merge order — and therefore every digest — unchanged.
        """
        if self.config.workers > 0:
            from ..parallel.fleet import process_parallel

            return process_parallel(self, workload, self.config.workers)
        updates = self._begin(workload)

        def on_complete(result: InferenceResult) -> None:
            for req in workload.on_complete(result):
                self._submit(req)

        results, batches, trace = _serve_loop(
            self.replicas, self.admission, updates, self.apply_update,
            on_complete,
            interval=self.autoscaler.interval if self.autoscaler else math.inf,
            rescale=self._autoscale_step,
        )
        return self._report(results, batches, updates, trace)

    def _report(self, results, batches, updates, trace) -> ServeReport:
        results.sort(key=lambda r: r.request.rid)
        everyone = self.replicas + self.retired
        cache_stats: ServeStats | None = None
        if any(rep.cache is not None for rep in everyone):
            # Fleet-wide counters: one ServeStats summing every replica's.
            cache_stats = ServeStats()
            for rep in everyone:
                cache_stats.add(rep.stats)
        report = ServeReport(
            results=results,
            batches=batches,
            phase_seconds=SimClock.merged(
                [rep.clock for rep in everyone]
            ).breakdown(),
            cache_stats=cache_stats,
            exact=self.exact,
            update_stats=(
                dataclasses.replace(self.stream.stats)
                if self.stream is not None and updates
                else None
            ),
            shed=sum(rep.stats.shed for rep in everyone),
            replica_trace=trace,
            per_replica={rep.rid: rep.served for rep in everyone},
        )
        registry = get_registry()
        if registry is not None:
            report.publish(registry)
            registry.gauge(
                "serve_replicas", "live replicas at end of run",
                router=getattr(self.router, "name", type(self.router).__name__),
            ).set(len(self.replicas))
            for rep in everyone:
                rep.stats.publish(registry, replica=rep.rid)
                registry.counter(
                    "serve_replica_requests_total",
                    "requests served per replica", replica=rep.rid,
                ).set(rep.served)
        return report


# ---------------------------------------------------------------------- #
# The control loop
# ---------------------------------------------------------------------- #
def _apply_update(stream, replicas, batch, at: float | None = None) -> float:
    """Merge ``batch`` once on the shared graph, absorb it on every replica
    (see :meth:`ServingCluster.apply_update`)."""
    result = stream.apply(batch)
    arrival = batch.at if at is None else at
    slowest = 0.0
    for rep in replicas:
        start = max(rep.free, arrival)
        spent = rep.absorb_update(result, at=start)
        rep.free = start + spent
        slowest = max(slowest, spent)
    return slowest


def _serve_loop(
    replicas: list[Replica],
    admission: AdmissionController,
    updates: Sequence,
    apply_update: Callable[[object], float],
    on_complete: Callable[[InferenceResult], None],
    *,
    interval: float = math.inf,
    rescale: Callable[[list[InferenceResult], float], None] | None = None,
) -> tuple[list[InferenceResult], int, list[tuple[float, int]]]:
    """Drain the replicas' queues: dispatch -> update-preempt -> serve.

    Every live replica's batcher proposes its next dispatch; the earliest
    ``(time, rid)`` wins and the other candidates go back to the front of
    their queues (each taken batch is its queue's oldest pending work, so
    push-back preserves order).  An update whose arrival precedes the
    winning dispatch is applied first — the replicas are busy for its
    simulated duration and the decision is re-taken afterwards (more
    arrivals may have joined the batch); once requests drain, the remaining
    updates apply in order.  Likewise an autoscaler evaluation due by then
    (``rescale(window, now)`` every ``interval`` seconds; it may grow or
    shrink ``replicas`` in place) runs first.  The winner's batch passes
    the deadline filter, is served, and ``on_complete`` sees each result —
    the hook through which closed-loop clients submit their next request.

    Returns the results in dispatch order, the micro-batch count and the
    ``[(sim_time, n_replicas)]`` trace.
    """
    results: list[InferenceResult] = []
    window: list[InferenceResult] = []
    trace = [(0.0, len(replicas))]
    next_eval = interval
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
        update_due = next_update < len(updates) and updates[next_update].at <= t
        rescale_due = not update_due and t >= next_eval
        winner = None if update_due or rescale_due else rep
        for _, other, other_batch in candidates:
            if other is not winner:
                other.queue.pending = other_batch + other.queue.pending
        if update_due:
            apply_update(updates[next_update])
            next_update += 1
            continue
        if rescale_due:
            rescale(window, next_eval)
            trace.append((next_eval, len(replicas)))
            window = []
            next_eval += interval
            continue
        batch = admission.filter_batch(rep, batch, t)
        if not batch:
            continue
        batch_results = rep.serve_batch(batch, t, batch_index)
        rep.free = batch_results[0].completed
        rep.batches += 1
        rep.served += len(batch_results)
        results.extend(batch_results)
        if interval < math.inf:
            window.extend(batch_results)
        for result in batch_results:
            on_complete(result)
        batch_index += 1
    return results, batch_index, trace
