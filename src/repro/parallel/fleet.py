"""Parallel serving fleet: each replica's timeline in its own process.

The serial :meth:`~repro.serve.cluster.ServingCluster.process` loop is an
earliest-``(t, rid)`` merge of per-replica timelines.  When four
conditions hold, that merge *decomposes exactly* into independent
per-replica runs — each is a coupling the decomposition cannot reproduce,
not a missing feature:

* **No autoscaler** (``slo_p99 == 0``): replica membership is fixed, so
  no global evaluation point couples the timelines.
* **Open-loop workload** (``workload.open_loop``): every request exists
  up front and ``on_complete`` issues nothing, so routing and
  queue-depth admission are a pure function of the submission order —
  they run in the parent, before any serving.
* **Exact mode**: logits consume no randomness and depend only on the
  requested vertices and the graph state at dispatch, so the global
  batch-index RNG key is metadata, not math (sampled logits draw from
  that key, which no worker knows).
* **Fresh replicas**: worker replicas are built cold, so embedding rows
  cached by an earlier run of the same cluster would change hit counts
  and phase seconds (never logits).

Under those conditions each worker runs the cluster's own control loop
(:func:`repro.serve.cluster._serve_loop`) over its one replica — micro-
batch dispatch, deadline shedding, streaming-update absorption at
``max(free, update.at)``, embedding-cache fills — against zero-copy
shared-memory graph/feature views, and returns results, clock and
counters.  The parent reassembles the global order (dispatches sort by
``(t, rid)``, exactly the serial merge order), renumbers batch indices,
replays the updates once on its own stream for final graph state, and
emits the same :class:`~repro.serve.report.ServeReport` the serial loop
would.  Digest bit-identity at every worker count is pinned in
``tests/test_fleet_parallel.py``.

Anything outside the decomposable regime raises an actionable error
pointing at the serial path rather than silently serving different
semantics.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..serve.cluster import ServingCluster
    from ..serve.report import ServeReport

__all__ = ["process_parallel"]


# ---------------------------------------------------------------------- #
# Worker side: one replica's complete timeline
# ---------------------------------------------------------------------- #
def _serve_replica_task(adj, features, payload: dict) -> dict:
    """Run one replica's whole serving timeline in a pool worker.

    ``adj``/``features`` are the worker's shared-memory views; the payload
    carries the replica id, its queue of parent-routed requests, the full
    update stream, the model, the config and the admission controller.
    The timeline is the cluster's own control loop over this one replica —
    no router (the parent routed), no autoscaler (refused).
    """
    from ..graphs import Graph
    from ..serve.cluster import _apply_update, _serve_loop
    from ..serve.replica import Replica
    from ..stream.graph import StreamingGraph

    config = payload["config"]
    graph = Graph(name=payload["graph_name"], adj=adj, features=features)
    updates = payload["updates"]
    stream = (
        StreamingGraph(graph, compaction_threshold=config.compaction_threshold)
        if updates
        else None
    )
    rep = Replica(payload["model"], graph, config, rid=payload["rid"])
    rep.queue = payload["queue"]
    results, _, _ = _serve_loop(
        [rep], payload["admission"], updates,
        partial(_apply_update, stream, [rep]), lambda result: None,
    )
    return {
        "results": results,
        "clock": rep.clock,
        "stats": rep.stats,
        "batches": rep.batches,
        "served": rep.served,
        "free": rep.free,
    }


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"parallel serving (workers > 0) {message}")


def process_parallel(
    cluster: "ServingCluster", workload, workers: int
) -> "ServeReport":
    """The ``workers > 0`` path of :meth:`ServingCluster.process`."""
    from ..serve.request import RequestQueue
    from .pool import WorkerPool
    from .shm import SharedFeatures, SharedGraph

    _require(cluster.exact, "requires exact serving (fanout=None): sampled "
             "serving draws from a global batch-index RNG the per-replica "
             "decomposition cannot reproduce")
    _require(cluster.autoscaler is None, "is incompatible with autoscaling "
             "(slo_p99 > 0): scaling decisions couple replica timelines; "
             "run with workers=0")
    _require(bool(getattr(workload, "open_loop", False)),
             "needs an open-loop workload (a request trace): closed-loop "
             "clients submit based on completions, which couples replica "
             "timelines; run with workers=0")
    _require(not any(rep.batches or rep.served for rep in cluster.replicas),
             "must start from fresh replicas: a reused cluster carries warm "
             "embedding caches the cold worker replicas would diverge from")

    # Routing + queue-depth admission happen here, in submission order —
    # identical to the serial run because an open-loop workload submits
    # everything before any serving starts.  Each worker gets its queue.
    updates = cluster._begin(workload)
    shared_graph = SharedGraph.publish(cluster.graph.adj)
    shared_features = SharedFeatures.publish(cluster.graph.features)
    payloads = [
        {
            "rid": rep.rid,
            "graph_name": cluster.graph.name,
            "queue": rep.queue,
            "updates": updates,
            "model": cluster.model,
            "config": cluster.config,
            "admission": cluster.admission,
        }
        for rep in cluster.replicas
    ]
    pool = WorkerPool(
        min(int(workers), len(cluster.replicas)), shared_graph, shared_features
    )
    try:
        # One outcome per payload, in payload (= replica) order.
        outcomes = list(
            zip(cluster.replicas, pool.run(_serve_replica_task, payloads))
        )
    finally:
        pool.shutdown()
        shared_graph.release()
        shared_features.release()

    # Global dispatch order = the serial merge order: each replica's
    # dispatch times increase, and the serial loop always takes the
    # earliest (t, rid) — a k-way merge of sorted streams.  Workers
    # numbered their batches locally; renumber along that order.
    schedule = sorted({
        (r.dispatched, rep.rid, r.batch_index)
        for rep, outcome in outcomes
        for r in outcome["results"]
    })
    renumber = {
        (rid, local): global_index
        for global_index, (_, rid, local) in enumerate(schedule)
    }
    results = [
        dataclasses.replace(r, batch_index=renumber[(rep.rid, r.batch_index)])
        for rep, outcome in outcomes
        for r in outcome["results"]
    ]

    # Merge worker state back onto the parent replicas so _report (and any
    # later inspection) sees the same fleet the serial loop would leave.
    for rep, outcome in outcomes:
        rep.clock = outcome["clock"]
        rep.stats.add(outcome["stats"])
        rep.batches = outcome["batches"]
        rep.served = outcome["served"]
        rep.free = outcome["free"]
        rep.queue = RequestQueue()

    # Replay the churn once on the parent's stream: final adjacency and
    # StreamStats match the serial run (workers applied updates only to
    # their private copies).
    for update in updates:
        cluster.stream.apply(update)

    trace = [(0.0, len(cluster.replicas))]
    return cluster._report(results, len(schedule), updates, trace)
