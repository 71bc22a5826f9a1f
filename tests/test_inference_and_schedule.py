"""Additional pipeline coverage: epoch scheduling edge cases, stats rows,
and failure-injection behaviour of the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunConfig
from repro.gnn import SAGEConv
from repro.pipeline import EpochStats, TrainingPipeline


class TestEpochScheduling:
    def test_k_larger_than_epoch_is_one_bulk(self, labeled_graph):
        cfg = RunConfig(
            p=2, c=1, fanout=(4,), batch_size=32, hidden=8, k=10**6,
            train_model=False,
        )
        stats = TrainingPipeline(labeled_graph, cfg).train_epoch()
        assert stats.n_batches == labeled_graph.num_batches(32)

    def test_k_one_equals_per_batch_schedule(self, labeled_graph):
        """k=1 degenerates into the per-batch pipeline and costs more
        sampling time than the full bulk."""
        times = {}
        for k in (1, None):
            cfg = RunConfig(
                p=2, c=1, fanout=(4,), batch_size=32, hidden=8, k=k,
                train_model=False,
            )
            times[k] = TrainingPipeline(labeled_graph, cfg).train_epoch().sampling
        assert times[1] > times[None]

    def test_more_ranks_than_batches(self, labeled_graph):
        """Ranks without a batch in a round must idle gracefully."""
        p = 8
        batch_size = 128
        assert p > labeled_graph.num_batches(batch_size)  # idle ranks exist
        cfg = RunConfig(
            p=p, c=2, fanout=(4,), batch_size=batch_size, hidden=8,
            train_model=False,
        )
        stats = TrainingPipeline(labeled_graph, cfg).train_epoch()
        assert stats.total > 0

    def test_single_rank_world(self, labeled_graph):
        cfg = RunConfig(
            p=1, c=1, fanout=(4,), batch_size=32, hidden=8, lr=0.01
        )
        pipe = TrainingPipeline(labeled_graph, cfg)
        stats = pipe.train_epoch()
        assert stats.loss is not None
        assert stats.feature_fetch >= 0  # degenerate fetch is free-ish


class TestTrainerRobustness:
    def test_deterministic_same_seed(self, labeled_graph):
        losses = []
        for _ in range(2):
            cfg = RunConfig(
                p=2, c=1, fanout=(4, 3), batch_size=32, hidden=8, lr=0.01,
                seed=42,
            )
            pipe = TrainingPipeline(labeled_graph, cfg)
            losses.append(pipe.train_epoch(0).loss)
        assert losses[0] == pytest.approx(losses[1])

    def test_different_seeds_differ(self, labeled_graph):
        losses = []
        for seed in (0, 1):
            cfg = RunConfig(
                p=2, c=1, fanout=(4, 3), batch_size=32, hidden=8, lr=0.01,
                seed=seed,
            )
            losses.append(TrainingPipeline(labeled_graph, cfg).train_epoch(0).loss)
        assert losses[0] != losses[1]

    def test_conv_override(self, labeled_graph):
        """An explicit ``conv`` beats the sampler's registry default (GCN
        for LADIES)."""
        cfg = RunConfig(
            p=2, c=1, sampler="ladies", fanout=(16,), batch_size=32,
            hidden=8, conv="sage", lr=0.01,
        )
        pipe = TrainingPipeline(labeled_graph, cfg)
        assert all(isinstance(c, SAGEConv) for c in pipe.model.convs)
        assert pipe.train_epoch().loss is not None

    def test_stats_row_roundtrip(self):
        s = EpochStats(
            sampling=1.0, feature_fetch=0.5, propagation=0.25, loss=0.1,
            n_batches=7,
        )
        row = s.row()
        assert row["total_s"] == pytest.approx(1.75)
        assert row["loss"] == 0.1
        assert row["batches"] == 7
