"""Outside-in tracer for the end-to-end benchmark.

The benchmark measures the program through its public surface with tracing
off; one extra *traced* round wraps the public callables of each layer from
here, so nothing under ``src/`` has to know it is being measured.  A span is
a ``perf_counter`` interval with a parent (the span that was open when it
started); a span's *self time* is its duration minus the part its child
spans cover, so the self times of one round add up to the time its root
spans took and a layer is charged only for work no deeper layer claims.

``Tracer.wrap`` replaces one attribute — on an instance, a class or a
module, whichever the caller resolves at call time — with a function that
opens a span around the original; ``Tracer.unwrap_all`` puts every original
object back (``is``-identical), which ``run.py --selftest`` checks.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # One record per span: [name, parent index or -1, start, end,
        # seconds covered by direct children].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, self.clock(), None, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = self.clock()
        span = self.spans[index]
        span[3] = end
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += end - span[2]

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``count(tracer, args, result)`` (optional) runs after a successful
        call, outside the span, to record work counts at the same boundary.
        """
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._traced(raw.__func__, name, count))
        else:
            patched = self._traced(getattr(owner, attr), name, count)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def _traced(self, fn, name: str, count):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def unwrap_all(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # Readout
    # ------------------------------------------------------------------ #
    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and *entry*
        seconds — the total of those of its spans that sit directly under a
        root span, i.e. that the harness's public call went into first."""
        out: dict[str, dict[str, float]] = {}
        for name, parent, start, end, child_s in self.spans:
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "entry_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_s
            if parent >= 0 and self.spans[parent][1] < 0:
                row["entry_s"] += end - start
        return out

    def root_seconds(self) -> tuple[float, float]:
        """(total, self) seconds summed over the spans that have no parent."""
        total = self_s = 0.0
        for _name, parent, start, end, child_s in self.spans:
            if parent < 0:
                total += end - start
                self_s += (end - start) - child_s
        return total, self_s


# ---------------------------------------------------------------------- #
# What gets wrapped
# ---------------------------------------------------------------------- #
# Span names are ``<layer>.<callable>`` with layer = package under
# ``src/repro/``; the harness itself opens the root spans
# (``pipeline.epoch``, ``serve.request``, ``serve.process``,
# ``stream.update``) around the public calls it times.

_COLLECTIVES = (
    "bcast", "allreduce", "gather", "allgather", "alltoallv", "scatterv", "p2p",
)


def _count_spgemm(tracer, args, result) -> None:
    tracer.count("sparse.spgemm_out_nnz", result.nnz)


def _count_sampled(tracer, args, result) -> None:
    tracer.count(
        "core.sampled_edges",
        sum(mb.total_edges() for per_rank in result for mb in per_rank),
    )


def _count_fetch(tracer, args, result) -> None:
    tracer.count("partition.fetch_rows", sum(len(ids) for ids in args[1]))


def _count_collective(tracer, args, result) -> None:
    tracer.count("comm.collective_calls")


def instrument_shared(tracer: Tracer, kernel: str) -> None:
    """Patch the class- and module-level callables every phase shares."""
    import repro.core.sampler_base as sampler_base
    import repro.distributed.partitioned as partitioned
    import repro.gnn.layers as gnn_layers
    from repro.sparse import CSRMatrix, get_kernel

    tracer.wrap(type(get_kernel(kernel)), "spgemm", "sparse.spgemm", _count_spgemm)
    tracer.wrap(CSRMatrix, "from_coo", "sparse.from_coo")
    tracer.wrap(gnn_layers, "spmm", "sparse.spmm")
    tracer.wrap(sampler_base, "its_sample_rows", "core.its")
    tracer.wrap(sampler_base, "its_select_mask", "core.its")
    tracer.wrap(partitioned, "spgemm_15d", "distributed.spgemm_15d")


def instrument_training(tracer: Tracer, engine) -> None:
    """Patch the instances one engine's training pipeline calls into."""
    pipeline = engine.pipeline
    tracer.wrap(pipeline.backend, "sample_bulk", "core.sample_bulk", _count_sampled)
    tracer.wrap(pipeline.store, "fetch", "partition.fetch", _count_fetch)
    if hasattr(pipeline.store, "refresh"):
        tracer.wrap(pipeline.store, "refresh", "partition.refresh")
    tracer.wrap(pipeline.model, "forward", "gnn.forward")
    tracer.wrap(pipeline.model, "backward", "gnn.backward")
    tracer.wrap(pipeline.optimizer, "step", "gnn.optimizer")
    for op in _COLLECTIVES:
        tracer.wrap(pipeline.comm, op, f"comm.{op}", _count_collective)


def replicas_of(server) -> list:
    """A fleet's replicas, or the one replica of a single-server engine."""
    return server.replicas if hasattr(server, "replicas") else [server.replica]


def instrument_server(tracer: Tracer, server) -> None:
    """Patch one server: its replicas, router and streaming graph."""
    for replica in replicas_of(server):
        tracer.wrap(replica, "serve_batch", "serve.serve_batch")
        tracer.wrap(replica, "logits_for", "serve.logits_for")
        tracer.wrap(replica, "absorb_update", "serve.absorb_update")
    if hasattr(server, "router"):
        tracer.wrap(server.router, "route", "serve.route")
    if server.stream is not None:
        tracer.wrap(server.stream, "apply", "stream.apply")
        tracer.wrap(server.stream.delta, "compact", "stream.compact")
