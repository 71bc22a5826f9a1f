"""Engine: the single entry point tying graph + config + backend together.

An :class:`Engine` owns one graph, one :class:`~repro.api.config.RunConfig`
and the execution backend the config's ``algorithm`` key resolves to, and
exposes the four things callers do::

    engine = Engine(RunConfig(dataset="products", scale=0.25, p=4))
    samples = engine.sample()          # bulk-sample minibatches
    stats   = engine.train()           # epochs of pipeline training
    acc     = engine.evaluate("test")  # full-neighbor accuracy
    for bulk in engine.stream_bulks(): # iterate bulks, don't materialize
        ...

``stream_bulks`` is a generator over one epoch's minibatch bulks — sampling
runs lazily per bulk, so callers can interleave their own work (logging,
early stopping, custom training) without an epoch's worth of samples in
memory; after exhaustion ``engine.epoch_stats`` holds the same
:class:`~repro.pipeline.stats.EpochStats` a ``train_epoch`` call returns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from ..core import MinibatchSample
from ..graphs import Graph, load_dataset
from ..pipeline.stats import BulkStats, EpochStats
from ..pipeline.trainer import TrainingPipeline
from .config import RunConfig
from .registries import make_sampler

__all__ = ["Engine"]


class Engine:
    """Facade over graph loading, sampling, training and evaluation.

    ``graph`` may be passed directly (any :class:`~repro.graphs.Graph`);
    otherwise ``config.dataset`` names a paper dataset to load, scaled
    by ``config.scale`` and seeded by ``config.seed``.  A non-``None``
    ``config.train_split`` re-splits the graph in place: that fraction of
    vertices becomes the training split and val/test are re-drawn from the
    remainder (deterministically from ``config.seed``), so the three splits
    stay disjoint and test accuracy is never measured on trained vertices.

    The training pipeline is built lazily on first use of a training verb
    (``train``/``evaluate``/``stream_bulks``/``backend``/``model``), so
    :meth:`sample` builds no model.
    """

    def __init__(self, config: RunConfig | dict, graph: Graph | None = None) -> None:
        if isinstance(config, dict):
            config = RunConfig.from_dict(config)
        self.config = config
        if graph is None:
            if config.dataset is None:
                raise ValueError(
                    "Engine needs a graph: pass one explicitly or set "
                    "RunConfig.dataset to a dataset name"
                )
            kwargs: dict[str, Any] = {"with_labels": True}
            kwargs.update(config.dataset_kwargs)
            graph = load_dataset(
                config.dataset, scale=config.scale, seed=config.seed, **kwargs
            )
        if config.train_split is not None:
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 7919])
            )
            perm = rng.permutation(graph.n)
            n_train = max(1, int(round(config.train_split * graph.n)))
            rest = perm[n_train:]
            n_val = min(rest.size, graph.n // 10)
            graph.train_idx = np.sort(perm[:n_train])
            graph.val_idx = np.sort(rest[:n_val])
            graph.test_idx = np.sort(rest[n_val:])
        self.graph = graph
        self._pipeline: TrainingPipeline | None = None
        self._sampler = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_json(cls, source: str | Path, graph: Graph | None = None) -> "Engine":
        """Build an engine from a JSON RunConfig (path or JSON string)."""
        return cls(RunConfig.from_json(source), graph=graph)

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def pipeline(self) -> TrainingPipeline:
        """The training pipeline, built on first access."""
        if self._pipeline is None:
            self._pipeline = TrainingPipeline(self.graph, self.config)
        return self._pipeline

    @property
    def sampler(self):
        """The sampler instance :meth:`sample` uses (built by
        :func:`~repro.api.registries.make_sampler`)."""
        if self._sampler is None:
            self._sampler = make_sampler(
                self.config.sampler, graph=self.graph, for_training=True,
            )
        return self._sampler

    @property
    def backend(self):
        """The execution backend (the ``ALGORITHMS`` entry of
        ``config.algorithm``)."""
        return self.pipeline.backend

    @property
    def model(self):
        """The GNN model being trained."""
        return self.pipeline.model

    @property
    def epoch_stats(self) -> EpochStats | None:
        """Stats of the most recently completed epoch (train_epoch or a
        fully-consumed stream_bulks)."""
        if self._pipeline is None:
            return None
        return self._pipeline.last_epoch_stats

    @property
    def cache_stats(self):
        """Live hit/miss counters of the feature cache
        (:class:`~repro.partition.CacheStats`), or ``None`` when
        ``config.cache_budget`` is 0 or no pipeline exists yet."""
        if self._pipeline is None:
            return None
        return getattr(self._pipeline.store, "stats", None)

    # ------------------------------------------------------------------ #
    # The four verbs
    # ------------------------------------------------------------------ #
    def sample(
        self,
        batches: Sequence[np.ndarray] | None = None,
        *,
        seed: int | None = None,
    ) -> list[MinibatchSample]:
        """Bulk-sample minibatches with the configured sampler (local, no
        distribution).  Without ``batches``, one epoch's worth is drawn from
        the training split at ``config.batch_size``."""
        rng = np.random.default_rng(
            self.config.seed if seed is None else seed
        )
        if batches is None:
            batches = self.graph.make_batches(self.config.batch_size, rng)
        return self.sampler.sample_bulk(
            self.graph.adj, list(batches), self.config.fanout, rng
        )

    def train(self, epochs: int | None = None) -> list[EpochStats]:
        """Train for ``epochs`` (default ``config.epochs``); returns the
        per-epoch stats."""
        n = self.config.epochs if epochs is None else epochs
        return [self.pipeline.train_epoch(epoch) for epoch in range(n)]

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """Run a single epoch."""
        return self.pipeline.train_epoch(epoch)

    def evaluate(self, split: str = "test") -> float:
        """Full-neighbor accuracy on a split."""
        return self.pipeline.evaluate(split)

    def stream_bulks(self, epoch: int = 0) -> Iterator[BulkStats]:
        """Generator over one epoch's minibatch bulks (lazy sampling +
        training per bulk).  After exhaustion, :attr:`epoch_stats` matches
        what ``train_epoch(epoch)`` would have returned."""
        return self.pipeline.stream_bulks(epoch)

    # ------------------------------------------------------------------ #
    # Online serving
    # ------------------------------------------------------------------ #
    def serving(
        self,
        *,
        fanout: Sequence[int] | None = None,
        stream: bool | None = None,
        fleet: bool | None = None,
    ):
        """Build a server over this engine's graph and (current) weights.

        Returns a :class:`~repro.serve.ServingCluster` shaped by the
        config's fleet knobs (``replicas``, ``router``); the defaults
        describe a single server — one ``direct`` replica.
        ``fleet=False`` forces exactly that whatever the config says;
        ``True``/``None`` mean "as configured".

        ``fanout=None`` (default) serves exact full-neighborhood logits —
        bit-identical to :func:`~repro.pipeline.layerwise_inference` — and
        honors ``config.embed_budget``; an explicit per-layer fanout serves
        approximate logits through the configured sampler.  Serving knobs
        (``serve_batch_size``, ``serve_max_wait``, ``embed_budget``) come
        from :attr:`config`.  The returned server snapshots nothing: it
        reads the live model, so serve after training (or clear every
        replica's ``cache`` if weights change under one).

        ``stream`` (default ``config.stream_updates``) wraps the graph in
        a :class:`~repro.stream.StreamingGraph` so the server accepts
        :class:`~repro.stream.UpdateStream` workloads — edge churn applied
        between micro-batches (broadcast to every replica in a fleet),
        delta-log compaction at ``config.compaction_threshold``, and
        dirty-vertex invalidation of the embedding cache.  Note the
        StreamingGraph mutates this engine's ``graph.adj`` in place as
        updates land (serving tracks the *current* graph by design).
        """
        from ..serve import ServingCluster

        cfg = self.config
        if fleet is False:
            cfg = cfg.replace(replicas=1, router="direct")
        if stream is None:
            stream = cfg.stream_updates
        streaming_graph = None
        if stream:
            from ..stream import StreamingGraph

            streaming_graph = StreamingGraph(
                self.graph,
                compaction_threshold=cfg.compaction_threshold,
            )
        return ServingCluster(
            self.model, self.graph, cfg, fanout=fanout,
            stream=streaming_graph,
        )
