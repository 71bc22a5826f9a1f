"""Persistent spawn-safe worker pool over the shared-memory graph.

Workers are *warm*: each one attaches the published CSR/feature segments
exactly once at startup, builds each sampler the first time its spec
digest appears, and from then on receives only small
``(spec_digest, batch_indices, seed)`` messages per task — no graph
bytes, no sampler state, no plan objects cross the pipe on the hot path.
Results (the sampled minibatches plus their recorded sampling work) come
back the same pipe.

Bit-identity with serial execution is free, not engineered here: every
minibatch draws from its own RNG stream keyed by *global* batch index
(:func:`repro.core.bulk.batch_rng`) and frontier evolution is
batch-local, so the partition of batches over workers — like the
partition over simulated ranks — cannot change the sampled output.

The pool uses the ``spawn`` start method unconditionally: fork would
duplicate the owner's arbitrary state (open files, locks mid-acquire)
and is unsafe under threads; spawn re-imports ``repro`` cleanly.  That
makes worker startup cost ~1s each, which is why the pool is persistent
and why ``workers=0`` (run serial, import nothing from
``multiprocessing``) is the right call for tiny graphs.
"""

from __future__ import annotations

import hashlib
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..core.bulk import assign_round_robin, batch_rng, reassemble_round_robin
from ..distributed.instrument import SamplingWork, record_sampling
from ..obs.trace import Tracer, get_tracer, maybe_span, set_tracer
from .shm import SharedFeatures, SharedGraph, ensure_parallel_support

__all__ = ["SamplerSpec", "WorkerPool", "WorkerError"]


class WorkerError(RuntimeError):
    """A worker raised while executing a task; carries its traceback."""


@dataclass(frozen=True)
class SamplerSpec:
    """Everything a worker needs to rebuild the owner's sampler, as data.

    ``overrides`` are the extra constructor kwargs (sorted item tuple so
    the spec hashes).  The digest keys the worker-side sampler cache and
    doubles as the message identifier — it folds in the emitted sampling
    plan when the sampler has one, so two specs that would execute
    different plans never collide.
    """

    sampler: str
    fanout: tuple[int, ...]
    for_training: bool = True
    overrides: tuple[tuple[str, Any], ...] = ()

    def digest(self) -> str:
        from ..api.registries import SAMPLERS, make_sampler

        h = hashlib.blake2b(digest_size=16)
        h.update(repr((self.sampler, self.fanout, self.for_training,
                       self.overrides)).encode())
        entry = SAMPLERS.spec(self.sampler)
        obj = entry.obj
        if isinstance(obj, type) and not entry.meta("graph_aware", False):
            sampler = make_sampler(
                self.sampler, for_training=self.for_training,
                **dict(self.overrides),
            )
            plan = sampler.plan(tuple(self.fanout))
            if plan is not None:
                h.update(plan.digest().encode())
        return h.hexdigest()

    def build(self, adj=None):
        """Instantiate the sampler in a worker (graph-aware samplers get a
        minimal :class:`~repro.graphs.Graph` over the attached adjacency)."""
        from ..api.registries import SAMPLERS, make_sampler

        graph = None
        if SAMPLERS.spec(self.sampler).meta("graph_aware", False):
            from ..graphs import Graph

            graph = Graph(name="shared", adj=adj)
        return make_sampler(
            self.sampler, graph=graph, for_training=self.for_training,
            **dict(self.overrides),
        )


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
def _worker_main(
    conn, graph_handle, features_handle, worker_index: int = 0,
    trace: bool = False,
) -> None:
    """Entry point of one warm worker (module-level: spawn pickles it by
    qualified name).  Attach once, then serve tasks until shutdown.

    With ``trace`` on (the owner had a tracer installed at pool startup)
    the worker installs its own :class:`~repro.obs.trace.Tracer`, wraps
    each task in a wall span on the ``worker{i}`` track, and ships the
    drained spans back with every reply — the owner absorbs them, so the
    merged trace shows worker-side time without any shared state.
    """
    import signal

    # The owner coordinates interrupts: a ^C in the parent must not also
    # kill workers mid-send, or the parent's cleanup path sees EOFErrors
    # instead of its own KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    if trace and get_tracer() is None:
        # REPRO_TRACE in the environment already installed one at import
        # (spawn re-imports repro); this covers owner-side set_tracer().
        set_tracer(Tracer())
    tracer = get_tracer()
    track = f"worker{worker_index}"

    adj, _keep = graph_handle.attach()
    features = None
    _fkeep = ()
    if features_handle is not None:
        features, _fkeep = features_handle.attach()
    samplers: dict[str, Any] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # owner vanished; shm handles die with the process
        kind, task_id = msg[0], msg[1]
        if kind == "shutdown":
            conn.send(("ok", task_id, None))
            return
        try:
            if kind == "rebind":
                adj, _keep = msg[2].attach()
                result = None
            elif kind == "spec":
                digest, spec = msg[2], msg[3]
                samplers[digest] = spec.build(adj)
                result = None
            elif kind == "sample":
                digest, spec, indices, batches, seed = msg[2:]
                sampler = samplers.get(digest)
                if sampler is None:  # owner never pre-registered; build now
                    sampler = samplers[digest] = spec.build(adj)
                rngs = [batch_rng(seed, int(i)) for i in indices]
                with maybe_span(
                    "sample_bulk", cat="pool", domain="wall", track=track,
                    args={"batches": len(batches)},
                ):
                    result = record_sampling(
                        sampler, adj, batches, spec.fanout, rngs
                    )
            elif kind == "call":
                func, payload = msg[2], msg[3]
                with maybe_span(
                    getattr(func, "__name__", "call"), cat="pool",
                    domain="wall", track=track,
                ):
                    result = func(adj, features, payload)
            else:
                raise ValueError(f"unknown pool message kind {kind!r}")
            spans = tracer.drain() if tracer is not None else []
            conn.send(("ok", task_id, result, spans))
        except BaseException:
            if tracer is not None:
                tracer.drain()  # never let a failed task's spans pile up
            conn.send(("error", task_id, traceback.format_exc(), []))


# ---------------------------------------------------------------------- #
# Owner side
# ---------------------------------------------------------------------- #
@dataclass
class _Worker:
    process: Any
    conn: Any
    graph_version: int
    specs: set = field(default_factory=set)


class WorkerPool:
    """Owner-side handle on ``n`` warm worker processes.

    Retains the shared publications for its lifetime (refcounted — the
    caller may release its own reference immediately after construction).
    ``shutdown`` is idempotent and also runs via ``weakref.finalize`` so
    an abandoned pool does not strand processes or segment refs.
    """

    def __init__(
        self,
        workers: int,
        shared_graph: SharedGraph,
        shared_features: SharedFeatures | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"WorkerPool needs workers >= 1, got {workers}")
        ensure_parallel_support()
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        self.graph = shared_graph.retain()
        self.features = shared_features.retain() if shared_features else None
        self._workers: list[_Worker] = []
        self._task_seq = 0
        try:
            for index in range(workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        shared_graph.handle,
                        self.features.handle if self.features else None,
                        index,
                        get_tracer() is not None,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._workers.append(
                    _Worker(proc, parent_conn, shared_graph.handle.version)
                )
        except BaseException:
            self.shutdown()
            raise
        self._finalizer = weakref.finalize(
            self, WorkerPool._shutdown_impl,
            list(self._workers), self.graph, self.features,
        )

    def __len__(self) -> int:
        return len(self._workers)

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #
    def _next_id(self) -> int:
        self._task_seq += 1
        return self._task_seq

    def _recv(self, worker: _Worker, task_id):
        while not worker.conn.poll(0.2):
            if not worker.process.is_alive():
                raise WorkerError(
                    f"pool worker pid={worker.process.pid} died with exit "
                    f"code {worker.process.exitcode} before replying"
                )
        reply = worker.conn.recv()
        status, got_id, payload = reply[0], reply[1], reply[2]
        # Shipped worker spans ride every reply (4th element); absorb them
        # before any error handling so a raising task still reports time.
        if len(reply) > 3 and reply[3]:
            tracer = get_tracer()
            if tracer is not None:
                tracer.absorb(reply[3])
        if status == "error":
            raise WorkerError(
                f"pool worker pid={worker.process.pid} raised:\n{payload}"
            )
        if got_id != task_id:
            raise WorkerError(
                f"pool protocol error: expected reply {task_id}, got {got_id}"
            )
        return payload

    def _sync_graph(self) -> None:
        """Rebind workers to a republished graph (streaming compaction)."""
        handle = self.graph.handle
        for worker in self._workers:
            if worker.graph_version != handle.version:
                tid = self._next_id()
                worker.conn.send(("rebind", tid, handle))
                self._recv(worker, tid)
                worker.graph_version = handle.version

    def register(self, spec: SamplerSpec) -> str:
        """Pre-build ``spec``'s sampler on every worker; returns its digest
        (idempotent — the hot path then sends only the digest)."""
        digest = spec.digest()
        for worker in self._workers:
            if digest not in worker.specs:
                tid = self._next_id()
                worker.conn.send(("spec", tid, digest, spec))
                self._recv(worker, tid)
                worker.specs.add(digest)
        return digest

    # ------------------------------------------------------------------ #
    # Tasks
    # ------------------------------------------------------------------ #
    def sample_bulk(
        self,
        spec: SamplerSpec,
        batches: Sequence[np.ndarray],
        global_indices: Sequence[int],
        seed: int,
    ):
        """Execute one bulk batch-parallel; returns ``(samples, work)``
        with ``samples`` in input batch order (bit-identical to serial)
        and ``work`` the workers'
        :class:`~repro.distributed.instrument.SamplingWork`, summed."""
        if len(batches) != len(global_indices):
            raise ValueError("need one global index per batch")
        self._sync_graph()
        digest = self.register(spec)
        active = min(len(self._workers), len(batches))
        owners = assign_round_robin(len(batches), active)
        inflight: list[tuple[_Worker, int]] = []
        for rank, idxs in enumerate(owners):
            worker = self._workers[rank]
            tid = self._next_id()
            worker.conn.send((
                "sample", tid, digest, spec,
                [int(global_indices[i]) for i in idxs],
                [batches[i] for i in idxs],
                int(seed),
            ))
            inflight.append((worker, tid))
        per_owner: list[list] = []
        work = SamplingWork()
        for worker, tid in inflight:
            samples, mine = self._recv(worker, tid)
            per_owner.append(samples)
            work += mine
        return reassemble_round_robin(per_owner, len(batches)), work

    def run(self, func: Callable, payloads: Sequence[Any]) -> list[Any]:
        """Fan ``func(adj, features, payload)`` out over the pool, one call
        per payload (``func`` must be a module-level function).  Returns
        results in payload order; used by the serving fleet."""
        self._sync_graph()
        results: list[Any] = [None] * len(payloads)
        pending = list(enumerate(payloads))
        inflight: list[tuple[_Worker, int, int]] = []
        for worker in self._workers[: len(pending)]:
            index, payload = pending.pop(0)
            tid = self._next_id()
            worker.conn.send(("call", tid, func, payload))
            inflight.append((worker, tid, index))
        while inflight:
            worker, tid, index = inflight.pop(0)
            results[index] = self._recv(worker, tid)
            if pending:
                nxt_index, payload = pending.pop(0)
                nxt_tid = self._next_id()
                worker.conn.send(("call", nxt_tid, func, payload))
                inflight.append((worker, nxt_tid, nxt_index))
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @staticmethod
    def _shutdown_impl(workers, graph, features) -> None:
        for worker in workers:
            try:
                if worker.process.is_alive():
                    worker.conn.send(("shutdown", 0, None))
            except (OSError, ValueError):
                pass
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()
        graph.release()
        if features is not None:
            features.release()

    def shutdown(self) -> None:
        """Stop workers and drop the pool's publication references."""
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None and finalizer.alive:
            finalizer()  # runs _shutdown_impl exactly once
        else:
            WorkerPool._shutdown_impl(self._workers, self.graph, self.features)
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
