"""The five workloads and the round every one of them runs.

A *round* is one life cycle through the public surface only — build an
``Engine``, train, serve the trained model, absorb edge churn — and every
workload runs the same round; a workload is a ``RunConfig`` plus the size of
each phase.  The phase a workload is named after runs at full size and the
others at probe size, so every end-to-end metric is a real, non-zero
measurement on every workload (the benchmark contract requires that) while
the named layers still dominate the round.

Nothing here names a ``kernel``: workloads run whatever ``RunConfig()``
defaults to, so a later change of default shows up as a gain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import Engine, RunConfig
from repro.pipeline import layerwise_inference
from repro.serve import TraceWorkload
from repro.stream import EdgeBatch, UpdateStream

from . import trace

__all__ = ["Spec", "Round", "Checker", "SPECS", "WORKLOADS", "run_round"]

EDGES_PER_UPDATE = 16
INTERARRIVAL = 1e-4  # simulated seconds between phase-B arrivals
WARM_REQUESTS = 4
AUDIT_REQUESTS = 16
PROBE_READS = 4  # reads between the updates of the phase-C churn probe


@dataclass(frozen=True)
class Spec:
    """One workload: a config and the size of each phase of its round."""

    why: str
    config: dict  # RunConfig fields; the seed is set per run
    epochs: int  # measured epochs per round, after the warm-up epoch
    requests: int  # phase A: one-shot server.serve() calls
    trace_requests: int  # phase B: requests through server.process()
    updates: int  # edge batches through apply_update() per round
    serve_fanout: tuple | None = None  # None = exact serving


_PRODUCTS = {"dataset": "products", "p": 4, "c": 2}

#: Full-profile sizes, scaled down from the issue's starting sizes (same
#: graph, fanouts, widths and batch sizes; fewer batches, requests and
#: updates) so one round takes about 4 s on a 2-core box and a run fits
#: three or four.  ``train_split`` is batches * batch_size / vertices.
FULL = {
    "train_sage_replicated": Spec(
        why="3-layer GraphSAGE, Graph Replicated: node-wise sampling "
        "(SpGEMM + bulk sampler) does most of the work",
        config={**_PRODUCTS, "scale": 2.0, "algorithm": "replicated",
                "sampler": "sage", "fanout": (15, 10, 5), "batch_size": 64,
                "hidden": 64, "k": 4, "train_split": 4 * 64 / 8192},
        epochs=2, requests=96, trace_requests=64, updates=32,
        serve_fanout=(15, 10, 5),
    ),
    "train_ladies_wide": Spec(
        why="LADIES, wide layers, hidden 512: propagation does most of the "
        "work, SpGEMM sees many small duplicate-heavy products, fetch goes "
        "through the feature cache",
        config={**_PRODUCTS, "scale": 2.0, "algorithm": "replicated",
                "sampler": "ladies", "fanout": (256, 256, 256),
                "batch_size": 128, "hidden": 512, "cache_budget": 4e5,
                "train_split": 8 * 128 / 8192},
        epochs=2, requests=12, trace_requests=32, updates=32,
        serve_fanout=(256, 256, 256),
    ),
    "train_sage_partitioned": Spec(
        why="2-layer GraphSAGE, Graph Partitioned 1.5D: distributed SpGEMM, "
        "block-row executor, sparse all-reduce; comm_bytes is the paper's "
        "sampling-communication volume here",
        config={**_PRODUCTS, "scale": 2.0, "algorithm": "partitioned",
                "sampler": "sage", "fanout": (10, 5), "batch_size": 128,
                "hidden": 64, "train_split": 8 * 128 / 8192},
        epochs=2, requests=192, trace_requests=512, updates=32,
        serve_fanout=(10, 5),
    ),
    "serve_fleet": Spec(
        why="read-only serving on a 4-replica fleet: router, micro-batcher, "
        "replicas, and an embedding cache smaller than the working set",
        config={**_PRODUCTS, "scale": 2.0, "algorithm": "replicated",
                "sampler": "sage", "fanout": (10, 5), "batch_size": 32,
                "hidden": 64, "replicas": 4, "router": "consistent_hash",
                "embed_budget": 2e6, "train_split": 4 * 32 / 8192},
        epochs=4, requests=64, trace_requests=128, updates=32,
    ),
    "stream_churn": Spec(
        why="writes beside reads on one streaming server: delta-CSR updates, "
        "compactions and cache invalidation between requests",
        config={**_PRODUCTS, "scale": 1.0, "algorithm": "replicated",
                "sampler": "sage", "fanout": (10, 5), "batch_size": 32,
                "hidden": 64, "stream_updates": True, "embed_budget": 2e6,
                "compaction_threshold": 1e-3, "train_split": 4 * 32 / 4096},
        epochs=4, requests=80, trace_requests=80, updates=40,
    ),
}


def _shrunk(spec: Spec) -> Spec:
    """The same round on a 1024-vertex graph: a second or two per round."""
    fanout = tuple(min(s, 32) for s in spec.config["fanout"])
    config = {**spec.config, "scale": 0.25, "batch_size": 16,
              "hidden": min(32, spec.config["hidden"]), "fanout": fanout,
              "train_split": 4 * 16 / 1024}
    for budget in ("embed_budget", "cache_budget"):
        if budget in config:
            config[budget] = 4e4
    return dataclasses.replace(
        spec, config=config, epochs=1, requests=min(12, spec.requests),
        trace_requests=12, updates=min(6, spec.updates),
        serve_fanout=fanout if spec.serve_fanout else None,
    )


SPECS = {"full": FULL, "smoke": {k: _shrunk(v) for k, v in FULL.items()}}
WORKLOADS = tuple(FULL)


@dataclass
class Round:
    """Everything one round measured, counted and hashed."""

    setup_s: float = 0.0
    epoch_s: list = field(default_factory=list)
    comm_bytes: float = 0.0
    serve_ms: list = field(default_factory=list)
    update_ms: list = field(default_factory=list)
    process_s: float = 0.0
    process_requests: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    counts: dict = field(default_factory=dict)  # layer counts from public stats
    sizes: dict = field(default_factory=dict)  # realised sizes, for the manifest
    open_loop: dict = field(default_factory=dict)  # phase-B generator facts

    def timed_calls(self) -> list[float]:
        """Seconds of every timed public call of this round, in order."""
        return [
            *self.epoch_s, self.process_s,
            *(ms / 1e3 for ms in self.serve_ms),
            *(ms / 1e3 for ms in self.update_ms),
        ]


class Checker:
    """Counts serving ops and checks their logits.

    Every served row is hashed into the round digest and must be finite.
    Exact serving must also be bit-identical to ``layerwise_inference`` on
    the graph the request saw; that reference costs seconds (two full-graph
    SpMMs), so rows are only *recorded* against a snapshot of the graph and
    :meth:`verify` runs once per run, after the measured rounds — the other
    rounds are held to the verified round's digest.  Sampled serving has no
    closed-form reference and gets the finite check and the digest.
    """

    def __init__(self, model, exact_check: bool) -> None:
        self.model = model
        self.exact_check = exact_check
        self.attempted = 0
        self.failed = 0
        self._hash = hashlib.sha256()
        self._groups: list[tuple[object, object, list]] = []

    def snapshot(self, engine, server) -> int | None:
        """Freeze the graph the latest requests were served on; ``None``
        when there is no exact check to make.  A streaming graph is rebuilt
        through the independent ``from_coo`` path, so a bad delta merge
        shows."""
        if not (self.exact_check and server.exact):
            return None
        adj = engine.graph.adj  # rebound, never mutated, by a streaming graph
        if not self._groups or self._groups[-1][0] is not adj:
            graph = (
                server.stream.rebuild_from_scratch() if server.stream is not None
                # A later StreamingGraph rebinds graph.adj in place; the copy
                # keeps the adjacency these requests were served on.
                else dataclasses.replace(engine.graph)
            )
            self._groups.append((adj, graph, []))
        return len(self._groups) - 1

    def record(self, vertices, logits, group: int | None) -> None:
        """Count one request; ``logits`` is ``None`` when it raised."""
        self.attempted += 1
        if logits is None:
            self.failed += 1
            return
        self._hash.update(np.ascontiguousarray(logits).tobytes())
        if logits.shape[0] != len(vertices) or not np.isfinite(logits).all():
            self.failed += 1
        elif group is not None:
            self._groups[group][2].append((np.asarray(vertices), logits))

    def fail(self, n: int = 1) -> None:
        self.attempted += n
        self.failed += n

    def verify(self) -> None:
        """Compare every recorded row with layer-wise inference."""
        for _adj, graph, rows in self._groups:
            if rows:
                reference = layerwise_inference(self.model, graph)
                self.failed += sum(
                    not np.array_equal(logits, reference[vertices])
                    for vertices, logits in rows
                )
        self._groups.clear()

    def digest(self) -> str:
        return self._hash.hexdigest()


def _closed_loop(server, vertices, batches, span):
    """One client: serve the vertices one by one, with the edge batches
    spread evenly between the requests; every public call is timed on its
    own, inside a root ``span`` when the round is traced.

    Returns the served ``(vertex, logits or None)`` pairs and the serve and
    update latencies in milliseconds.
    """
    served, serve_ms, update_ms = [], [], []
    for i, v in enumerate(vertices):
        due = (i + 1) * len(batches) // len(vertices)
        for batch in batches[len(update_ms) : due]:
            with span("stream.update"):
                t = time.perf_counter()
                server.apply_update(batch)
                update_ms.append((time.perf_counter() - t) * 1e3)
        logits = None
        try:
            with span("serve.request"):
                t = time.perf_counter()
                logits = server.serve(np.array([v]))
                serve_ms.append((time.perf_counter() - t) * 1e3)
        except Exception:  # a failed request is a failed op; keep serving
            traceback.print_exc(file=sys.stderr)
        served.append((v, logits))
    return served, serve_ms, update_ms


def edge_churn(adj, n_batches: int, rng) -> list[EdgeBatch]:
    """``n_batches`` edge batches of 16 edges, alternately deleting distinct
    existing edges and inserting distinct absent ones.

    The same contract as ``UpdateStream.synthetic``, drawn with numpy:
    that generator builds a Python set of every edge (half a second and
    some 150 MB on the scale-2 graph), which would be the peak RSS this
    benchmark reports.
    """
    n = adj.shape[0]
    rows, cols, _ = adj.to_coo()
    n_insert = n_batches // 2
    n_delete = n_batches - n_insert
    gone = rng.choice(rows.size, n_delete * EDGES_PER_UPDATE, replace=False)
    u = rng.integers(0, n, 8 * n_insert * EDGES_PER_UPDATE)
    v = rng.integers(0, n, u.size)
    absent = (u != v) & ~np.isin(u * n + v, rows * n + cols)
    _, first = np.unique((u * n + v)[absent], return_index=True)
    new = np.flatnonzero(absent)[np.sort(first)][: n_insert * EDGES_PER_UPDATE]
    if new.size < n_insert * EDGES_PER_UPDATE:
        raise RuntimeError("graph too dense to draw distinct absent edges")
    batches = []
    for k in range(n_batches):
        lo = (k // 2) * EDGES_PER_UPDATE
        if k % 2 == 0:
            pick = gone[lo : lo + EDGES_PER_UPDATE]
            batches.append(EdgeBatch(rows[pick], cols[pick], "delete"))
        else:
            pick = new[lo : lo + EDGES_PER_UPDATE]
            batches.append(EdgeBatch(u[pick], v[pick], "insert"))
    return batches


def make_inputs(spec: Spec, graph, seed: int, streams: bool) -> dict:
    """Everything a round feeds the servers, made from the seed and the
    freshly built graph; every round of a run replays the same inputs."""
    pool = graph.test_idx
    rng = np.random.default_rng(np.random.SeedSequence([seed, 991]))
    requests = TraceWorkload.synthetic(
        spec.trace_requests, pool, seed=seed + 2, interarrival=INTERARRIVAL
    )
    inputs = {
        "vertices": rng.choice(pool, spec.requests, replace=True),
        "audit": rng.choice(pool, AUDIT_REQUESTS, replace=False),
        "batches": [],
        "workload": requests,
    }
    if streams:
        # One draw for both phases, so phase B never re-deletes an edge
        # phase A removed.
        n_trace = round(spec.trace_requests * spec.updates / spec.requests)
        churn = edge_churn(graph.adj, spec.updates + n_trace, rng)
        span_s = spec.trace_requests * INTERARRIVAL
        inputs["batches"] = churn[: spec.updates]
        inputs["workload"] = UpdateStream(requests, [
            dataclasses.replace(batch, at=(k + 0.5) * span_s / n_trace)
            for k, batch in enumerate(churn[spec.updates :])
        ])
    else:
        inputs["probe_batches"] = edge_churn(graph.adj, spec.updates, rng)
    return inputs


def run_round(
    spec: Spec, cfg: RunConfig, inputs: dict | None = None, tracer=None
) -> tuple[Round, Checker, dict]:
    """One life cycle of ``cfg`` through the public surface.

    The first round of a run (``inputs=None``) makes the inputs
    (:func:`make_inputs`) and records served rows for the exact check;
    later rounds replay the inputs and are held to the first round's digest.
    With a ``tracer`` the timed calls run under root spans and every layer's
    callables are wrapped (after the warm-ups, removed on exit), so the
    round's digest can be compared bit for bit with an untraced twin.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    rnd = Round()
    hasher = hashlib.sha256()

    # -- set-up: engine, pipeline, warm-up epoch ------------------------- #
    t = time.perf_counter()
    engine = Engine(cfg)
    pipeline = engine.pipeline
    engine.train_epoch(0)
    rnd.setup_s += time.perf_counter() - t
    graph = engine.graph
    checker = Checker(engine.model, exact_check=inputs is None)
    rnd.sizes = {"vertices": graph.n, "nnz": graph.adj.nnz}

    try:
        if tracer is not None:
            trace.instrument_shared(tracer, cfg.kernel)
            trace.instrument_training(tracer, engine)

        # -- train ------------------------------------------------------ #
        for epoch in range(1, spec.epochs + 1):
            with span("pipeline.epoch"):
                t = time.perf_counter()
                stats = engine.train_epoch(epoch)
                rnd.epoch_s.append(time.perf_counter() - t)
            rnd.attempted += stats.n_batches
            if stats.loss is None or not np.isfinite(stats.loss):
                rnd.failed += stats.n_batches
            hasher.update(np.float64(stats.loss).tobytes())
            if epoch == 1:
                ledger = pipeline.comm.ledger
                rnd.comm_bytes = stats.bytes_sent
                rnd.counts.update({
                    "comm.bytes_sent": ledger.sent(),
                    "comm.messages": ledger.messages(),
                    "partition.cache_hit_rate": stats.fetch_hit_rate or 0.0,
                    "partition.cache_bytes_saved": stats.fetch_bytes_saved,
                    "pipeline.sim_epoch_s": stats.epoch_seconds,
                })
        for value in engine.model.parameters().values():
            hasher.update(value.tobytes())
        rnd.sizes["batches"] = stats.n_batches

        # -- set-up: server and serving warm-up --------------------------- #
        t = time.perf_counter()
        server = engine.serving(fanout=spec.serve_fanout)
        for v in graph.test_idx[:WARM_REQUESTS]:
            server.serve(np.array([v]))
        rnd.setup_s += time.perf_counter() - t
        if tracer is not None:
            trace.instrument_server(tracer, server)
        streams = hasattr(server, "apply_update") and server.stream is not None
        if inputs is None:
            inputs = make_inputs(spec, graph, cfg.seed, streams)

        # -- phase A: closed loop, one client, one-shot requests ---------- #
        batches = inputs["batches"]
        served, rnd.serve_ms, rnd.update_ms = _closed_loop(
            server, inputs["vertices"], batches, span
        )
        # Requests served between updates saw graphs that are gone by now:
        # they are hashed and held to the finite check, and the exact check
        # of a streaming server rests on phase B's tail and the audit.
        group = None if batches else checker.snapshot(engine, server)
        for v, logits in served:
            checker.record([v], logits, group)

        # -- phase B: open loop through the micro-batcher ----------------- #
        workload = inputs["workload"]
        arrivals = workload.initial()
        updates = workload.updates() if hasattr(workload, "updates") else []
        last_update = max((b.at for b in updates), default=0.0)
        with span("serve.process"):
            t = time.perf_counter()
            report = server.process(workload)
            rnd.process_s = time.perf_counter() - t
        rnd.process_requests = report.n_requests
        checker.fail(len(arrivals) - report.n_requests)  # shed or lost
        group = checker.snapshot(engine, server)
        for result in report.results:
            # An update due by a batch's dispatch time is applied before it.
            on_final = result.dispatched >= last_update
            checker.record(
                result.request.vertices, result.logits, group if on_final else None
            )
        cache = report.cache_stats
        per_replica = list(report.per_replica.values())
        prob = [
            r.prob_cache for r in trace.replicas_of(server) if r.prob_cache is not None
        ]
        lookups = sum(c.hits + c.misses for c in prob)
        rnd.counts.update({
            "serve.batches": report.batches,
            "serve.mean_batch_size": report.mean_batch_size,
            "serve.embed_hit_rate": cache.hit_rate if cache else 0.0,
            "serve.embed_evictions": cache.evictions if cache else 0,
            "serve.invalidations": cache.invalidations if cache else 0,
            "serve.shed": report.shed,
            "serve.replica_spread": (
                max(per_replica) / max(1, min(per_replica)) if per_replica else 1.0
            ),
            "serve.sim_p99_ms": report.latency_summary()["p99"] * 1e3,
            "serve.prob_cache_hit_rate": (
                sum(c.hits for c in prob) / lookups if lookups else 0.0
            ),
        })
        rnd.sizes.update(
            {"requests": len(rnd.serve_ms), "trace_requests": len(arrivals)}
        )
        last_arrival = max(r.arrival for r in arrivals)
        rnd.open_loop = {
            "interarrival_sim_s": INTERARRIVAL,
            "last_arrival_sim_s": last_arrival,
            # How far the simulated makespan ran past the last arrival: the
            # backlog the open-loop generator left behind.
            "backlog_sim_s": report.makespan - last_arrival,
        }

        # -- phase C: churn probe on a streaming twin ---------------------- #
        # A frozen or fleet server has no apply_update(), so its update
        # metrics come from a single streaming server over the same engine.
        # That server rebinds the engine's adjacency, so it runs last; the
        # exact check of the delta merge is left to stream_churn, where the
        # main server streams.
        writer = server
        if not streams:
            t = time.perf_counter()
            writer = engine.serving(fanout=spec.serve_fanout, fleet=False, stream=True)
            rnd.setup_s += time.perf_counter() - t
            if tracer is not None:
                trace.instrument_server(tracer, writer)
            served, _, rnd.update_ms = _closed_loop(
                writer, inputs["audit"][:PROBE_READS], inputs["probe_batches"], span
            )
            for v, logits in served:
                checker.record([v], logits, None)
        update_stats = writer.stream.stats
        rnd.counts.update({
            "stream.updates": update_stats.batches,
            "stream.compactions": update_stats.compactions,
            "stream.dirty_vertices": update_stats.dirty_vertices,
        })
        rnd.sizes["updates"] = update_stats.batches
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    if streams:
        # Audit, untimed and untraced: re-serve on the final graph, where a
        # stale cached row shows even though most timed requests saw an
        # earlier version of the graph.
        for v in inputs["audit"]:
            checker.record([v], server.serve(np.array([v])), group)
    rnd.attempted += checker.attempted
    hasher.update(checker.digest().encode())
    rnd.digest = hasher.hexdigest()
    return rnd, checker, inputs
