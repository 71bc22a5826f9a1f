"""The serving fleet: N replicas, a router, admission control, autoscaling.

:class:`ServingCluster` is the multi-replica control loop over the same
:class:`~repro.serve.replica.Replica` core the single-server
:class:`~repro.serve.engine.ServingEngine` drives.  The moving parts:

* a :class:`~repro.serve.router.Router` policy assigns each request to a
  replica at submit time;
* an :class:`~repro.serve.admission.AdmissionController` may shed requests
  (queue-depth at submit, deadline at dispatch) — sheds are counted per
  replica and surfaced in the report;
* every replica runs its own :class:`~repro.serve.request.MicroBatcher`
  over its own queue; the cluster repeatedly picks the earliest dispatch
  across live replicas, so the fleet timeline is a deterministic merge of
  per-replica timelines;
* streaming updates broadcast: the delta-log merge happens once on the
  shared :class:`~repro.stream.StreamingGraph`, then *every* replica
  absorbs it (fanout refresh, ProbCache clear, dirty-vertex
  EmbeddingCache invalidation) on its own clock;
* an optional :class:`Autoscaler` (enabled by ``slo_p99 > 0``) evaluates
  the p99 of each fixed interval on the simulated clock and steps the
  live replica count up when the SLO is violated, down (with hysteresis)
  when there is ample headroom — MLSYSIM-style first-principles modeling:
  all of it on simulated time, so scaling decisions replay identically.

**Exactness.** Replicas serve exact logits (``fanout=None``), so *which*
replica serves a request never changes its bits — routing, shedding and
scaling only move latency and throughput.  With ``replicas=1``, the
``direct`` router, and ``shed_policy="none"``, the cluster's dispatch
sequence degenerates to the single-server engine's and the run is
bit-identical to :class:`ServingEngine` (pinned by tests against the
pre-fleet golden digests).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..comm.clock import SimClock
from ..gnn.model import GNNModel
from ..graphs import Graph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .admission import AdmissionController
from .cache import ServeStats
from .engine import ServeReport
from .replica import Replica
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
    """Drive N replicas through a routed, admission-controlled workload.

    ``config`` supplies the fleet knobs on top of the serving knobs:
    ``replicas`` (initial fleet size), ``router`` (policy name),
    ``shed_policy``/``shed_queue_depth``/``shed_deadline``, and the
    autoscaler bounds ``slo_p99``/``autoscale_min``/``autoscale_max``/
    ``autoscale_interval`` (``slo_p99=0`` disables autoscaling).
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
        n_replicas = int(getattr(config, "replicas", 1))
        if n_replicas <= 0:
            raise ValueError(f"need at least one replica, got {n_replicas}")
        self.replicas: list[Replica] = [
            self._new_replica(rid) for rid in range(n_replicas)
        ]
        # Retired replicas keep contributing their clocks and shed counts
        # to the final report even after the autoscaler removes them.
        self.retired: list[Replica] = []
        self.router = make_router(getattr(config, "router", "direct"), graph.n)
        self.admission = AdmissionController(
            getattr(config, "shed_policy", "none"),
            queue_depth=getattr(config, "shed_queue_depth", 64),
            deadline=getattr(config, "shed_deadline", 0.0),
        )
        slo = float(getattr(config, "slo_p99", 0.0))
        self.autoscaler: Autoscaler | None = None
        if slo > 0:
            self.autoscaler = Autoscaler(
                slo,
                min_replicas=int(getattr(config, "autoscale_min", 1)),
                max_replicas=int(getattr(config, "autoscale_max", 8)),
                interval=float(getattr(config, "autoscale_interval", 0.01)),
            )

    def _new_replica(self, rid: int) -> Replica:
        return Replica(self.model, self.graph, self.config,
                       fanout=self._fanout, rid=rid)

    @property
    def exact(self) -> bool:
        return self.replicas[0].exact if self.replicas else self._fanout is None

    # ------------------------------------------------------------------ #
    # Request flow
    # ------------------------------------------------------------------ #
    def _by_rid(self) -> dict[int, Replica]:
        return {rep.rid: rep for rep in self.replicas}

    def _submit(self, request: InferenceRequest) -> None:
        rid = self.router.route(request)
        rep = self._by_rid()[rid]
        admitted = self.admission.admit(rep, request)
        tracer = get_tracer()
        if tracer is not None:
            # The flight recorder's first hop: the routing decision, keyed
            # by the request's rid (the same trace id the replica's async
            # window carries).  Recorded identically by the parallel path's
            # parent-side routing loop (repro.parallel.fleet).
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

    def _broadcast_update(self, batch) -> None:
        """Apply one EdgeBatch to the shared graph, absorb on every replica.

        The structural merge happens once; each replica then pays its own
        absorb cost (and invalidates its own cached rows) and is busy for
        that duration starting no earlier than the update's arrival.
        """
        result = self.stream.apply(batch)
        for rep in self.replicas:
            at = max(rep.free, batch.at)
            rep.free = at + rep.absorb_update(result, at=at)

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
            orphans = sorted(
                rep.queue.pending
                + [r for _, _, r in rep.queue._arrivals],
                key=lambda r: (r.arrival, r.rid),
            )
            self.router.rebalance([r.rid for r in self.replicas])
            for req in orphans:
                self._submit(req)
            return
        self.router.rebalance([r.rid for r in self.replicas])

    def serve(self, vertices: np.ndarray) -> np.ndarray:
        """One-shot serving (no queueing): logits aligned with ``vertices``.

        Served by the lowest-id live replica with the same RNG stream the
        single-server engine uses — in exact mode the answer is the same
        from any replica.
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
    # The fleet event loop
    # ------------------------------------------------------------------ #
    def process(self, workload) -> ServeReport:
        """Run a workload to exhaustion across the fleet.

        The loop repeatedly asks every live replica's batcher for its next
        dispatch, picks the earliest ``(time, rid)``, and pushes the other
        candidates back (each taken batch is its queue's oldest pending
        work, so push-back preserves order).  Streaming updates due before
        the chosen dispatch broadcast first; autoscaler evaluations due
        before it run first.  Deterministic end to end: every decision is
        a function of simulated times and ids.

        With ``config.workers > 0`` the same run executes on real cores:
        each replica's timeline runs in its own worker process over
        shared-memory graph views (:mod:`repro.parallel.fleet`), with the
        merge order — and therefore every digest — unchanged.
        """
        workers = int(getattr(self.config, "workers", 0))
        if workers > 0:
            from ..parallel.fleet import process_parallel

            return process_parallel(self, workload, workers)
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
                "workload interleaves edge updates but this cluster serves "
                "a frozen graph; build it over a StreamingGraph "
                "(RunConfig(stream_updates=True))"
            )
        for req in workload.initial():
            self._submit(req)
        results: list[InferenceResult] = []
        window: list[InferenceResult] = []
        scaler = self.autoscaler
        next_eval = scaler.interval if scaler is not None else None
        trace: list[tuple[float, int]] = [(0.0, len(self.replicas))]
        batch_index = 0
        next_update = 0
        while True:
            # One dispatch candidate per live replica; earliest (t, rid)
            # wins, everyone else's batch goes back to the queue front.
            candidates: list[tuple[float, Replica, list[InferenceRequest]]] = []
            for rep in self.replicas:
                dispatch = rep.batcher.next_dispatch(rep.queue, rep.free)
                if dispatch is not None:
                    candidates.append((dispatch[0], rep, dispatch[1]))
            if not candidates:
                if next_update < len(updates):
                    # Requests drained first: apply the remaining churn.
                    self._broadcast_update(updates[next_update])
                    next_update += 1
                    continue
                break
            t, rep, batch = min(candidates, key=lambda c: (c[0], c[1].rid))

            def push_back() -> None:
                for _, other, other_batch in candidates:
                    other.queue.pending = other_batch + other.queue.pending

            if next_update < len(updates) and updates[next_update].at <= t:
                push_back()
                self._broadcast_update(updates[next_update])
                next_update += 1
                continue
            if next_eval is not None and t >= next_eval:
                push_back()
                self._autoscale_step(window, next_eval)
                trace.append((next_eval, len(self.replicas)))
                window = []
                next_eval += scaler.interval
                continue
            for _, other, other_batch in candidates:
                if other is not rep:
                    other.queue.pending = other_batch + other.queue.pending
            batch = self.admission.filter_batch(rep, batch, t)
            if not batch:
                continue
            batch_results = rep.serve_batch(batch, t, batch_index)
            rep.free = batch_results[0].completed
            rep.batches += 1
            rep.served += len(batch_results)
            results.extend(batch_results)
            if next_eval is not None:
                window.extend(batch_results)
            for result in batch_results:
                for req in workload.on_complete(result):
                    self._submit(req)
            batch_index += 1
        results.sort(key=lambda r: r.request.rid)
        return self._report(results, batch_index, updates, trace)

    def _report(self, results, batches, updates, trace) -> ServeReport:
        everyone = self.replicas + self.retired
        cache_stats: ServeStats | None = None
        if any(rep.cache is not None for rep in everyone):
            # Fleet-wide counters: one ServeStats summing every replica's.
            cache_stats = ServeStats()
            for rep in everyone:
                for f in dataclasses.fields(ServeStats):
                    setattr(
                        cache_stats, f.name,
                        getattr(cache_stats, f.name) + getattr(rep.stats, f.name),
                    )
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
                rep.prob_cache.publish(registry, replica=rep.rid)
        return report
