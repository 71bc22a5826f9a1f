"""Replica: one serving unit's compute core, caches, and clock.

A :class:`Replica` is everything *one* server owns in a serving fleet: the
sampler, the :class:`~repro.serve.cache.EmbeddingCache`, a private
:class:`~repro.comm.clock.SimClock` / :class:`~repro.comm.cost_model.CostModel`
pair for phase accounting, and the :class:`~repro.serve.request.MicroBatcher`
plus :class:`~repro.serve.request.RequestQueue` the dispatch policy runs on.
What it deliberately does **not** own is the control loop: the
:class:`~repro.serve.cluster.ServingCluster` drives its one or many
replicas through three verbs —

* :meth:`serve_batch` — compute logits for one dispatched micro-batch,
  charging the replica's own clock;
* :meth:`logits_for` — the underlying cached/exact/sampled forward path;
* :meth:`absorb_update` — react to an applied graph update: charge the
  absorb and invalidate the dirty vertices' cached embeddings (each
  replica invalidates *its own* cache contents, which is what makes
  fleet-wide update broadcast cheap).

Exactness is a per-replica property: in exact mode (``fanout=None``) a
replica samples nothing — it gathers each hop's whole neighbourhood
(:func:`neighborhood_sample`: a row gather of ``A`` plus a column
compaction) — so the logits it serves are bit-identical to layer-wise
inference whatever the graph's degrees become under updates, and do not
depend on which replica served the request — any router policy in front of
a fleet of replicas preserves the repo's signature contract.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..comm.clock import SimClock
from ..comm.cost_model import CostModel, payload_nbytes
from ..core.frontier import MinibatchSample
from ..core.plan import (
    ExtractStep,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    compact_layer_from_mask,
)
from ..gnn.model import GNNModel
from ..graphs import Graph
from ..obs.trace import get_tracer, maybe_span
from ..sparse import CSRMatrix, spmm_flops
from .cache import EmbeddingCache, ServeStats
from .request import InferenceRequest, InferenceResult, MicroBatcher, RequestQueue

__all__ = ["Replica", "kernel_launches"]


def kernel_launches(plan: SamplingPlan) -> int:
    """Kernel launches the serving cost model charges for one run of
    ``plan``: one per pass over a probability matrix.

    * a PROB launches its product; a NORM right after it normalizes that
      product in place, in the same pass;
    * a SAMPLE launches its draw; an EXTRACT right after it reads the
      selection mask, in the same pass;
    * every other step is a launch of its own: a NORM that does not follow
      a PROB and an EXTRACT that does not follow a SAMPLE.

    That is 2 per layer for the built-in samplers.
    """
    launches, prev = 0, None
    for step in plan.steps:
        rides = (isinstance(step, NormStep) and isinstance(prev, ProbStep)) or (
            isinstance(step, ExtractStep) and isinstance(prev, SampleStep)
        )
        if not rides:
            launches += 1
        prev = step
    return launches


def neighborhood_sample(
    adj: CSRMatrix, targets: np.ndarray, n_layers: int
) -> MinibatchSample:
    """The whole ``n_layers``-hop neighbourhood of ``targets``, as layers.

    Each hop gathers its destinations' rows of ``adj`` and compacts their
    positive entries' columns, with the destinations themselves joined to
    the source frontier: ``A[dst][:, unique(neighbours ∪ dst)]`` as a
    unit-weight pattern, the frontier of the next hop.  Stored ``0.0`` /
    ``-0.0`` weights are not edges.  This is what SAMPLE selects at any
    count at or above the largest row's positive entries, so it is bitwise
    the node-wise plan at that count (``tests/test_keep_all.py``) without a
    draw or a product.  A target outside ``adj`` or a negative weight on a
    gathered row is a ``ValueError``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n = adj.shape[0]
    if targets.min() < 0 or targets.max() >= n:
        raise ValueError(f"batch vertex out of range [0, {n})")
    col_rank = np.empty(adj.shape[1], dtype=np.int64)
    layers, dst = [], targets
    for _ in range(n_layers):
        rows = adj.extract_rows(dst)
        if np.any(rows.data < 0):
            raise ValueError("A must be non-negative to be served exactly")
        layer = compact_layer_from_mask(
            rows, rows.data > 0, 0, dst.size, dst,
            include_dst=True, col_rank=col_rank,
        )
        layers.append(layer)
        dst = layer.src_ids
    return MinibatchSample(targets, layers[::-1])


def _conv_in_dim(conv) -> int:
    for key in ("W", "W_neigh"):
        if key in conv.params:
            return conv.params[key].shape[0]
    raise TypeError(f"cannot infer input width of {type(conv).__name__}")


def _conv_out_dim(conv) -> int:
    for key in ("W", "W_neigh"):
        if key in conv.params:
            return conv.params[key].shape[1]
    raise TypeError(f"cannot infer output width of {type(conv).__name__}")


class Replica:
    """One serving unit: neighbourhood gather or sampler + caches + clock,
    no control loop.

    ``config`` supplies the serving knobs (``serve_batch_size``,
    ``serve_max_wait``, ``embed_budget``), the machine model and the seed.
    ``fanout=None`` selects the exact full-neighborhood mode, which holds
    no sampler and no fanout (:func:`neighborhood_sample`); a tuple of
    per-layer counts selects sampled serving through the configured sampler
    (its length must match the model depth).  ``rid``
    names the replica inside a fleet (0 for a single server).
    """

    def __init__(
        self,
        model: GNNModel,
        graph: Graph,
        config,
        *,
        fanout: Sequence[int] | None = None,
        rid: int = 0,
    ) -> None:
        if graph.features is None:
            raise ValueError("serving needs node features")
        self.rid = rid
        self.model = model
        self.graph = graph
        self.config = config
        self.clock = SimClock(1)
        self.cost = CostModel(config.machine)
        self.exact = fanout is None
        n_layers = model.n_layers
        self._dims = [_conv_in_dim(c) for c in model.convs] + [
            _conv_out_dim(model.convs[-1])
        ]
        # The width activations come out in (numpy's propagation over the
        # features and the parameters): float32 for the library's models.
        self._width = np.result_type(graph.features.dtype, model.dtype)
        if self.exact:
            self.fanout = self.sampler = None
        else:
            fanout = tuple(int(s) for s in fanout)
            if len(fanout) != n_layers:
                raise ValueError(
                    f"serving fanout {fanout} has {len(fanout)} entries for "
                    f"a {n_layers}-layer model"
                )
            self.fanout = fanout
            from ..api.registries import make_sampler

            self.sampler = make_sampler(
                config.sampler, graph=graph, for_training=True,
            )
        # benchmarks/e2e reads this attribute off every replica (and
        # filters None); nothing else does.
        self.prob_cache = None
        self.cache: EmbeddingCache | None = None
        if self.exact and n_layers > 1 and config.embed_budget > 0:
            self.cache = EmbeddingCache(
                graph.n, self._dims[-2], budget_bytes=config.embed_budget,
                dtype=self._width,
            )
        # Shed/hit counters: share the cache's ServeStats when there is a
        # cache (one counter object per replica), otherwise a private one.
        self.stats: ServeStats = (
            self.cache.stats if self.cache is not None else ServeStats()
        )
        self.batcher = MicroBatcher(config.serve_batch_size, config.serve_max_wait)
        # Fleet scheduling state, owned here so a cluster stays stateless
        # about the per-replica timeline.
        self.queue = RequestQueue()
        self.free = 0.0
        self.batches = 0
        self.served = 0

    def reset(self) -> None:
        """Per-run reset: clock, counters and scheduling state — cached
        rows and LFU frequencies persist (like the feature cache across
        epochs)."""
        self.clock.reset()
        self.stats.reset()
        self.queue = RequestQueue()
        self.free = 0.0
        self.batches = 0
        self.served = 0

    # ------------------------------------------------------------------ #
    # Graph updates
    # ------------------------------------------------------------------ #
    def absorb_update(self, result, at: float | None = None) -> float:
        """React to an applied :class:`~repro.stream.delta.UpdateResult`.

        The streaming graph itself is shared (the delta-log merge happened
        once, upstream); each replica then pays for absorbing the change
        into its own materialized view and invalidates every cached
        embedding row the change can reach (``dirty_closure`` at depth
        ``L - 2`` on the post-update adjacency).  All of it is charged to
        *this replica's* clock under the ``graph_update`` phase; returns
        the simulated seconds spent.  ``at`` is the workload time the
        absorb starts at, used only to place the trace span.
        """
        from ..stream.graph import dirty_closure

        before = self.clock.time(0)
        with maybe_span(
            "graph_update",
            cat="update",
            track=f"replica{self.rid}",
            clock=self.clock,
            offset=(at if at is not None else 0.0) - before,
            args={
                "replica": self.rid,
                "dirty": int(result.dirty_rows.size),
                "compacted": bool(result.compacted),
            },
        ), self.clock.phase("graph_update"):
            cost = result.sim_cost
            # Log absorb + dirty-row re-merge: hash/searchsorted per edge,
            # then a splice that rewrites the merged rows (16B/entry, r+w).
            self.clock.advance(
                0,
                self.cost.compute(
                    flops=64.0 * cost.get("batch_edges", 0.0),
                    nbytes=24.0 * cost.get("batch_edges", 0.0)
                    + 32.0 * cost.get("merged_nnz", 0.0),
                    kernels=2,
                ),
                "compute",
            )
            if result.compacted:
                # Compaction re-canonicalizes the full matrix: a global
                # sort (n log n flops) plus one read+write of every entry.
                nnz = cost.get("compacted_nnz", 0.0)
                self.clock.advance(
                    0,
                    self.cost.compute(
                        flops=8.0 * nnz * max(1.0, np.log2(max(nnz, 2.0))),
                        nbytes=32.0 * nnz,
                        kernels=4,
                    ),
                    "compute",
                )
            if self.cache is not None and result.dirty_rows.size:
                stale = dirty_closure(
                    self.graph.adj, result.dirty_rows, self.model.n_layers - 2
                )
                dropped = self.cache.invalidate(stale)
                if dropped:
                    self.clock.advance(
                        0,
                        self.cost.compute(
                            nbytes=self.cache.row_bytes * dropped, kernels=1
                        ),
                        "compute",
                    )
        return self.clock.time(0) - before

    # ------------------------------------------------------------------ #
    # Cost accounting helpers
    # ------------------------------------------------------------------ #
    def _charge_sampling(self, layers) -> None:
        """One neighbourhood build: fixed kernel launches + size-scaled work.

        Exact mode launches 2 kernels per hop (the row gather and the
        column compaction); sampled mode launches :func:`kernel_launches`
        of the emitted plan.
        Either count is *not* the number of coalesced requests: that
        independence is the micro-batching amortization.
        """
        if self.exact:
            kernels = 2 * len(layers)
        else:
            kernels = kernel_launches(
                self.sampler.emitted_plan(self.fanout[: len(layers)])
            )
        edges = sum(layer.adj.nnz for layer in layers)
        nbytes = 2.0 * payload_nbytes([layer.adj for layer in layers])
        self.clock.advance(
            0, self.cost.compute(flops=6.0 * edges, nbytes=nbytes, kernels=kernels),
            "compute",
        )

    def _charge_forward(self, layers, dims) -> None:
        """Forward pass roofline: SpMM + dense transform per layer."""
        flops = 0.0
        nbytes = 0.0
        for layer, f_in, f_out in zip(layers, dims[:-1], dims[1:]):
            flops += spmm_flops(layer.adj, f_in)
            flops += 2.0 * layer.n_dst * f_in * f_out
            nbytes += self._width.itemsize * (
                layer.n_src * f_in + layer.n_dst * f_out
            )
        self.clock.advance(
            0,
            self.cost.compute(flops=flops, nbytes=nbytes, kernels=2 * len(layers)),
            "compute",
        )

    # ------------------------------------------------------------------ #
    # The forward computation
    # ------------------------------------------------------------------ #
    def _infer_chain(self, layers, h: np.ndarray, first_conv: int) -> np.ndarray:
        """Run ``layers`` through convs[first_conv:...] with activations."""
        model = self.model
        for offset, layer in enumerate(layers):
            i = first_conv + offset
            h = model.convs[i].infer(layer, h)
            if i < model.n_layers - 1:
                h = model.acts[i].apply(h)
        return h

    def logits_for(self, targets: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Logits rows for (sorted, unique) ``targets``, with cost charging."""
        model, graph = self.model, self.graph
        n_layers = model.n_layers
        if self.cache is None:
            with maybe_span("sampling", cat="serve"), self.clock.phase("sampling"):
                if self.exact:
                    sample = neighborhood_sample(graph.adj, targets, n_layers)
                else:
                    sample = self.sampler.sample_bulk(
                        graph.adj, [targets], self.fanout, rng
                    )[0]
                self._charge_sampling(sample.layers)
            with maybe_span("propagation", cat="serve"), self.clock.phase(
                "propagation"
            ):
                h = graph.features[sample.input_frontier]
                logits = self._infer_chain(sample.layers, h, 0)
                self._charge_forward(sample.layers, self._dims)
            return logits
        # Cached (always exact) path: the final hop is gathered for the whole
        # frontier, but the deep (L-1)-layer expansion only runs for cache
        # *misses*.
        with maybe_span("sampling", cat="serve"), self.clock.phase("sampling"):
            outer = neighborhood_sample(graph.adj, targets, 1)
            self._charge_sampling(outer.layers)
        layer_last = outer.layers[0]
        frontier = layer_last.src_ids
        with maybe_span("embedding_cache", cat="serve") as cache_sp, \
                self.clock.phase("embedding_cache"):
            mask, hit_rows = self.cache.lookup(frontier)
            n_hits = int(mask.sum())
            if cache_sp is not None:
                cache_sp.args["hits"] = n_hits
                cache_sp.args["misses"] = int(frontier.size) - n_hits
            if n_hits:
                self.clock.advance(
                    0,
                    self.cost.compute(
                        nbytes=2.0 * self.cache.row_bytes * n_hits, kernels=1
                    ),
                    "compute",
                )
        h_frontier = np.empty((frontier.size, self._dims[-2]), self._width)
        misses = frontier[~mask]
        if misses.size:
            with maybe_span("sampling", cat="serve"), self.clock.phase("sampling"):
                inner = neighborhood_sample(graph.adj, misses, n_layers - 1)
                self._charge_sampling(inner.layers)
            with maybe_span("propagation", cat="serve"), self.clock.phase(
                "propagation"
            ):
                h = graph.features[inner.input_frontier]
                h_miss = self._infer_chain(inner.layers, h, 0)
                self._charge_forward(inner.layers, self._dims[:-1])
            h_frontier[~mask] = h_miss
            self.cache.insert(misses, h_miss)
        if n_hits:
            h_frontier[mask] = hit_rows
        with maybe_span("propagation", cat="serve"), self.clock.phase(
            "propagation"
        ):
            logits = model.convs[-1].infer(layer_last, h_frontier)
            self._charge_forward([layer_last], self._dims[-2:])
        return logits

    def serve_batch(
        self,
        batch: list[InferenceRequest],
        dispatched: float,
        batch_index: int,
    ) -> list[InferenceResult]:
        """Serve one micro-batch; returns one result per member request.

        The per-batch RNG stream is keyed by ``(seed, batch_index)`` only —
        not the replica id — so sampled logits depend on the global
        dispatch order alone.  In exact mode nothing is sampled and the
        stream is never drawn from, so replicas sharing it cannot
        correlate.
        """
        targets = np.unique(np.concatenate([r.vertices for r in batch]))
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 401, batch_index])
        )
        before = self.clock.time(0)
        tracer = get_tracer()
        if tracer is None:
            logits = self.logits_for(targets, rng)
        else:
            # The batch span (and every phase span nested in logits_for)
            # lives on this replica's track, with the replica-local clock
            # mapped onto the workload timeline at the dispatch instant.
            # Args hold request rids only — nothing batch-index-local — so
            # a request's spans do not depend on how it was batched.
            track = f"replica{self.rid}"
            with tracer.span(
                "serve_batch",
                cat="serve",
                track=track,
                clock=self.clock,
                offset=dispatched - before,
                args={
                    "requests": [int(r.rid) for r in batch],
                    "batch_size": len(batch),
                    "targets": int(targets.size),
                },
            ):
                logits = self.logits_for(targets, rng)
        service = self.clock.time(0) - before
        completed = dispatched + service
        if tracer is not None:
            # Flight recorder: one async window per request, keyed by the
            # rid (the trace id the router instants carry too), spanning
            # arrival -> reply on this replica's track.
            for req in batch:
                tracer.async_span(
                    "request",
                    aid=req.rid,
                    start=req.arrival,
                    end=completed,
                    track=f"replica{self.rid}",
                    args={"req": int(req.rid), "replica": self.rid},
                )
        return [
            InferenceResult(
                request=req,
                logits=logits[np.searchsorted(targets, req.vertices)],
                dispatched=dispatched,
                completed=completed,
                batch_index=batch_index,
                batch_size=len(batch),
            )
            for req in batch
        ]
