"""The end-to-end distributed training pipeline (paper section 6, Figure 3).

Bulk-synchronous loop per epoch:

1. **Sampling step** — ``k`` minibatches sampled at once by the execution
   backend the config's ``algorithm`` key resolves to (single-device,
   Graph Replicated or Graph Partitioned); each rank ends up owning its
   share of the sampled minibatches.
2. **Feature fetching** — per training round, every rank all-to-allv's with
   its process column to collect the feature rows of its minibatch's input
   frontier from the 1.5D-partitioned feature matrix.
3. **Propagation** — forward/backward on the minibatch, then a gradient
   all-reduce across all ranks (data parallelism) and an optimizer step.

Samplers and execution algorithms are resolved through
:mod:`repro.api.registries` — this module holds no name tables of its own.
Simulated time is attributed to the three phases Figure 4 stacks; real
numpy training (loss, accuracy) can be switched off for performance-only
sweeps (``train_model=False``) while all costs are still charged.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..api.config import RunConfig
from ..api.registries import ALGORITHMS, make_sampler
from ..comm import Communicator, ProcessGrid, Unscaled
from ..core import MinibatchSample, chunk_bulks
from ..gnn import (
    GNNModel,
    accuracy,
    Adam,
    full_graph_sample,
    propagation_flops,
    softmax_cross_entropy,
)
from ..graphs import Graph
from ..obs.metrics import get_registry
from ..obs.trace import maybe_span
from ..partition import CachedFeatureStore, FeatureStore
from .schedule import overlapped_makespan
from .stats import BulkStats, EpochStats

__all__ = ["TrainingPipeline"]

_SAMPLING_PHASES = ("sampling", "probability", "extraction")


class TrainingPipeline:
    """A simulated multi-GPU training run over one graph."""

    def __init__(self, graph: Graph, config: RunConfig) -> None:
        if graph.features is None:
            raise ValueError("pipeline needs node features")
        self.graph = graph
        self.config = config
        self.comm = Communicator(
            config.p, config.machine, work_scale=config.work_scale
        )
        self.grid = ProcessGrid(config.p, config.c)
        self.store: FeatureStore | CachedFeatureStore = FeatureStore(
            graph.features, self.grid
        )
        if config.cache_budget > 0:
            # Hot vertices are the frequent aggregation *sources*, i.e. the
            # vertices frontiers keep landing on: rank by in-degree (how
            # many adjacency rows reference each column).
            in_degree = np.bincount(
                graph.adj.indices, minlength=graph.n
            ).astype(np.float64)
            self.store = CachedFeatureStore(
                self.store,
                budget_bytes=config.cache_budget,
                policy=config.cache_policy,
                scores=in_degree,
            )
        self.sampler = make_sampler(
            config.sampler, graph=graph, for_training=True,
        )
        self.backend = ALGORITHMS[config.algorithm]()
        self.backend.setup(self)
        self.last_epoch_stats: EpochStats | None = None
        self._rng = np.random.default_rng(config.seed)
        n_classes = max(2, graph.n_classes)
        self.model = GNNModel(
            graph.n_features,
            config.hidden,
            n_classes,
            len(config.fanout),
            np.random.default_rng(config.seed + 1),
            conv=config.resolved_conv(),
            activation=config.activation,
        )
        self.optimizer = Adam(lr=config.lr)
        self._dims = (
            [graph.n_features]
            + [config.hidden] * (len(config.fanout) - 1)
            + [n_classes]
        )
        self._param_bytes = float(
            sum(v.nbytes for v in self.model.parameters().values())
        )

    # ------------------------------------------------------------------ #
    # Sampling step
    # ------------------------------------------------------------------ #
    def _sample_bulk(
        self, bulk: list[np.ndarray], seed: int
    ) -> list[list[MinibatchSample]]:
        """Run one bulk sampling step; returns per-rank minibatch lists."""
        return self.backend.sample_bulk(self, bulk, seed)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def stream_bulks(self, epoch: int = 0) -> Iterator[BulkStats]:
        """Generator over one epoch's bulks: sample, fetch, propagate one
        bulk at a time, yielding a :class:`BulkStats` after each.

        Sampling is lazy — bulk ``i+1`` is not sampled until the caller
        advances past bulk ``i`` — so an epoch never needs all its samples
        resident at once.  After exhaustion, :attr:`last_epoch_stats`
        carries the epoch totals ``train_epoch`` would have returned.
        """
        cfg = self.config
        self.comm.clock.reset()
        self.comm.ledger.reset()
        if isinstance(self.store, CachedFeatureStore):
            self.store.stats.reset()  # per-epoch counters (LFU counts persist)
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 17, epoch])
        )
        batches = self.graph.make_batches(cfg.batch_size, rng)
        k = cfg.k or len(batches)
        losses: list[float] = []
        preps: list[float] = []
        trains: list[float] = []
        prev_prep, prev_train = self._stage_seconds()
        for bulk_idx, bulk in enumerate(chunk_bulks(batches, k)):
            # The bulk span closes before the yield: a suspended generator
            # must not hold a span open across whatever the caller does.
            with maybe_span(
                "bulk", cat="train", track="train", clock=self.comm.clock,
                args={"bulk": bulk_idx, "n_batches": len(bulk)},
            ):
                with maybe_span("sample_bulk", cat="train"):
                    per_rank = self._sample_bulk(
                        bulk, seed=cfg.seed + 31 * bulk_idx + epoch
                    )
                bulk_losses: list[float] = []
                rounds = max(len(s) for s in per_rank)
                with maybe_span(
                    "fetch+train", cat="train", args={"rounds": rounds}
                ):
                    for t in range(rounds):
                        current = [
                            s[t] if t < len(s) else None for s in per_rank
                        ]
                        fetched = self._fetch_features(current)
                        loss = self._propagate(current, fetched)
                        if loss is not None:
                            bulk_losses.append(loss)
                losses.extend(bulk_losses)
                if isinstance(self.store, CachedFeatureStore):
                    # LFU re-ranks at bulk boundaries; rows newly entering
                    # the replica are charged as replication-fill traffic,
                    # kept in its own phase so the on-demand fetch volume
                    # stays separately measurable (the Figure-6 quantity).
                    # Runs before the stage snapshot so the fill lands in
                    # this bulk's prep window and the overlap makespan sees
                    # every charged second.
                    with maybe_span("cache_fill", cat="train"), self.comm.phase(
                        "cache_fill"
                    ):
                        self.store.refresh(self.comm)
            cur_prep, cur_train = self._stage_seconds()
            preps.append(cur_prep - prev_prep)
            trains.append(cur_train - prev_train)
            prev_prep, prev_train = cur_prep, cur_train
            yield BulkStats(
                index=bulk_idx,
                n_batches=len(bulk),
                rounds=rounds,
                loss=float(np.mean(bulk_losses)) if bulk_losses else None,
                prep_s=preps[-1],
                train_s=trains[-1],
            )
        self.last_epoch_stats = self._epoch_stats(
            len(batches), losses, preps, trains
        )

    def _stage_seconds(self) -> tuple[float, float]:
        """Cumulative (sampling+fetch+fill, propagation) seconds so far —
        the two stages the double-buffered scheduler may overlap."""
        sub = self.comm.clock.breakdown()
        prep = sum(sub.get(ph, 0.0) for ph in _SAMPLING_PHASES)
        prep += sub.get("feature_fetch", 0.0) + sub.get("cache_fill", 0.0)
        return prep, sub.get("propagation", 0.0)

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        """One epoch: sample all batches in bulks of k, fetch, propagate."""
        for _ in self.stream_bulks(epoch):
            pass
        assert self.last_epoch_stats is not None
        return self.last_epoch_stats

    def _fetch_features(
        self, current: list[MinibatchSample | None]
    ) -> list[np.ndarray | None]:
        needed = [
            mb.input_frontier if mb is not None else np.empty(0, dtype=np.int64)
            for mb in current
        ]
        with self.comm.phase("feature_fetch"):
            fetched = self.store.fetch(self.comm, needed)
        return [
            fetched[r] if current[r] is not None else None
            for r in range(self.config.p)
        ]

    def _propagate(
        self,
        current: list[MinibatchSample | None],
        fetched: list[np.ndarray | None],
    ) -> float | None:
        cfg = self.config
        active = [r for r, mb in enumerate(current) if mb is not None]
        if not active:
            return None
        loss_sum = 0.0
        with self.comm.phase("propagation"):
            for r in active:
                mb = current[r]
                self.comm.compute(
                    r,
                    flops=propagation_flops(mb, self._dims),
                    nbytes=32.0 * mb.total_edges(),
                    kernels=6 * len(mb.layers),
                )
            if cfg.train_model:
                self.model.zero_grad()
                for r in active:
                    mb, x = current[r], fetched[r]
                    logits = self.model.forward(mb, x)
                    loss, dlogits = softmax_cross_entropy(
                        logits, self.graph.labels[mb.batch]
                    )
                    # Scale so the summed gradients average over ranks.
                    self.model.backward(dlogits / len(active))
                    loss_sum += loss
            # Data-parallel gradient all-reduce across all ranks.
            # Gradients are model-sized (not graph-sized): unscaled wire.
            grad_payload = Unscaled(np.empty(int(self._param_bytes // 8)))
            self.comm.allreduce(
                [grad_payload] * cfg.p, list(range(cfg.p)),
                op=lambda vals: vals[0],
            )
            if cfg.train_model:
                self.optimizer.step(
                    self.model.parameters(), self.model.gradients()
                )
        return loss_sum / len(active) if cfg.train_model else None

    def _epoch_stats(
        self,
        n_batches: int,
        losses: list[float],
        preps: list[float],
        trains: list[float],
    ) -> EpochStats:
        clock = self.comm.clock
        sub = clock.breakdown()
        by_kind = clock.breakdown_by_kind()
        sampling = sum(sub.get(ph, 0.0) for ph in _SAMPLING_PHASES)
        cache = (
            self.store.stats
            if isinstance(self.store, CachedFeatureStore)
            else None
        )
        stats = EpochStats(
            sampling=sampling,
            # Replication fill (LFU refresh traffic) is feature time too;
            # its volume stays separately attributed under "cache_fill".
            feature_fetch=sub.get("feature_fetch", 0.0)
            + sub.get("cache_fill", 0.0),
            propagation=sub.get("propagation", 0.0),
            sub_phases={
                ph: sub.get(ph, 0.0)
                for ph in _SAMPLING_PHASES
                if ph in sub
            },
            comm_seconds=sum(
                v for (ph, kind), v in by_kind.items() if kind == "comm"
            ),
            comp_seconds=sum(
                v for (ph, kind), v in by_kind.items() if kind == "compute"
            ),
            bytes_sent=self.comm.ledger.sent(),
            loss=float(np.mean(losses)) if losses else None,
            n_batches=n_batches,
            overlap=self.config.overlap,
            pipelined_total=(
                overlapped_makespan(preps, trains)
                if self.config.overlap
                else None
            ),
            fetch_hits=cache.hits if cache else 0,
            fetch_misses=cache.misses if cache else 0,
            fetch_hit_rate=cache.hit_rate if cache else None,
            fetch_bytes_saved=cache.hit_bytes if cache else 0.0,
        )
        registry = get_registry()
        if registry is not None:
            stats.publish(registry)
            if cache is not None:
                cache.publish(registry)
        return stats

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, split: str = "test") -> float:
        """Full-neighbor accuracy on a split (no sampling noise)."""
        idx = getattr(self.graph, f"{split}_idx")
        full = full_graph_sample(self.graph.adj, len(self.config.fanout))
        logits = self.model.forward(full, self.graph.features)
        return accuracy(logits[idx], self.graph.labels[idx])
