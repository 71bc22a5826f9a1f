"""End-to-end pipeline: training, accuracy parity, phase accounting, memory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunConfig
from repro.machine import SAGE_ARCH
from repro.graphs.datasets import PAPER_DATASETS
from repro.pipeline import (
    EpochStats,
    MemoryModel,
    TrainingPipeline,
    choose_c_k,
    quiver_fits,
)


class TestConfigValidation:
    def test_rejects_bad_combinations(self):
        with pytest.raises(ValueError):
            RunConfig(p=4, algorithm="magic")
        with pytest.raises(ValueError):
            RunConfig(p=4, sampler="magic")
        with pytest.raises(ValueError):
            RunConfig(p=4, c=3)
        with pytest.raises(ValueError):
            RunConfig(p=4, k=0)

    def test_requires_features(self, small_adj):
        from repro.graphs import Graph

        g = Graph("bare", small_adj, train_idx=np.arange(10))
        with pytest.raises(ValueError):
            TrainingPipeline(g, RunConfig(p=2, fanout=(3,)))


class TestTraining:
    def test_loss_decreases(self, labeled_graph):
        cfg = RunConfig(
            p=2, c=1, fanout=(5, 3), batch_size=32, hidden=16, lr=0.01
        )
        pipe = TrainingPipeline(labeled_graph, cfg)
        first = pipe.train_epoch(0).loss
        for e in range(1, 5):
            last = pipe.train_epoch(e).loss
        assert last < first

    def test_learns_planted_labels(self, labeled_graph):
        cfg = RunConfig(
            p=2, c=1, fanout=(5, 3), batch_size=32, hidden=32, lr=0.01
        )
        pipe = TrainingPipeline(labeled_graph, cfg)
        for e in range(6):
            pipe.train_epoch(e)
        assert pipe.evaluate("test") > 0.8

    def test_accuracy_parity_bulk_vs_small_bulk(self, labeled_graph):
        """Section 8.1.3: bulk sampling must not change final accuracy."""
        accs = {}
        for k in (None, 2):  # all-at-once vs tiny bulks
            cfg = RunConfig(
                p=2, c=1, fanout=(5, 3), batch_size=32, hidden=32,
                lr=0.01, k=k, seed=0,
            )
            pipe = TrainingPipeline(labeled_graph, cfg)
            for e in range(6):
                pipe.train_epoch(e)
            accs[k] = pipe.evaluate("test")
        assert abs(accs[None] - accs[2]) < 0.05

    def test_accuracy_parity_replicated_vs_partitioned(self, labeled_graph):
        accs = {}
        for algo in ("replicated", "partitioned"):
            cfg = RunConfig(
                p=4, c=2, algorithm=algo, fanout=(5, 3), batch_size=32,
                hidden=32, lr=0.01, seed=0,
            )
            pipe = TrainingPipeline(labeled_graph, cfg)
            for e in range(6):
                pipe.train_epoch(e)
            accs[algo] = pipe.evaluate("test")
        assert abs(accs["replicated"] - accs["partitioned"]) < 0.05

    def test_ladies_pipeline_trains(self, labeled_graph):
        cfg = RunConfig(
            p=2, c=1, sampler="ladies", fanout=(64,), batch_size=32,
            hidden=32, lr=0.01,
        )
        pipe = TrainingPipeline(labeled_graph, cfg)
        first = pipe.train_epoch(0).loss
        for e in range(1, 6):
            last = pipe.train_epoch(e).loss
        assert last < first

    def test_fastgcn_pipeline_runs(self, labeled_graph):
        cfg = RunConfig(
            p=2, c=1, sampler="fastgcn", fanout=(64,), batch_size=32,
            hidden=16,
        )
        stats = TrainingPipeline(labeled_graph, cfg).train_epoch()
        assert stats.loss is not None


class TestPhaseAccounting:
    def test_stats_have_all_phases(self, perf_graph):
        cfg = RunConfig(
            p=4, c=2, fanout=(5, 3), batch_size=64, train_model=False
        )
        stats = TrainingPipeline(perf_graph, cfg).train_epoch()
        assert stats.sampling > 0
        assert stats.feature_fetch > 0
        assert stats.propagation > 0
        assert stats.total == pytest.approx(
            stats.sampling + stats.feature_fetch + stats.propagation
        )
        assert stats.loss is None  # perf-only mode
        row = stats.row()
        assert "loss" not in row and row["batches"] == stats.n_batches

    def test_partitioned_sub_phases(self, perf_graph):
        cfg = RunConfig(
            p=4, c=2, algorithm="partitioned", fanout=(5, 3), batch_size=64,
            train_model=False,
        )
        stats = TrainingPipeline(perf_graph, cfg).train_epoch()
        assert {"probability", "sampling", "extraction"} <= set(stats.sub_phases)

    def test_comm_comp_split_covers_phases(self, perf_graph):
        cfg = RunConfig(
            p=4, c=2, algorithm="partitioned", fanout=(5, 3), batch_size=64,
            train_model=False,
        )
        stats = TrainingPipeline(perf_graph, cfg).train_epoch()
        assert stats.comm_seconds > 0 and stats.comp_seconds > 0

    def test_epoch_stats_reset_between_epochs(self, perf_graph):
        cfg = RunConfig(
            p=2, c=1, fanout=(5,), batch_size=64, train_model=False
        )
        pipe = TrainingPipeline(perf_graph, cfg)
        a = pipe.train_epoch(0)
        b = pipe.train_epoch(1)
        # Same workload, same costs: stats must not accumulate.
        assert b.total == pytest.approx(a.total, rel=0.2)

    def test_replication_reduces_fetch_time(self, perf_graph):
        """Figure 6: no replication (c=1) pays more feature-fetch time."""
        times = {}
        for c in (1, 4):
            cfg = RunConfig(
                p=8, c=c, fanout=(5, 3), batch_size=64, train_model=False,
                work_scale=1e4,
            )
            times[c] = TrainingPipeline(perf_graph, cfg).train_epoch().feature_fetch
        assert times[4] < times[1]


class TestMemoryModel:
    def test_graph_bytes_scale(self):
        m = MemoryModel(PAPER_DATASETS["papers"], SAGE_ARCH)
        # Papers CSR is over 19 GB; a 128-way c=1 partition is ~150 MB.
        assert m.graph_bytes() > 15e9
        assert m.graph_partition_bytes(128, 1) < 0.5e9

    def test_feature_bytes_scale_with_c(self):
        m = MemoryModel(PAPER_DATASETS["products"], SAGE_ARCH)
        assert m.feature_bytes(16, 4) == pytest.approx(
            4 * m.feature_bytes(16, 1)
        )

    def test_choose_c_k_monotone_in_p(self):
        """More GPUs buy more aggregate memory: c and k never shrink."""
        spec = PAPER_DATASETS["papers"]
        prev_c, prev_k = 0, 0
        for p in (4, 8, 16, 32, 64, 128):
            c, k = choose_c_k(spec, SAGE_ARCH, p)
            assert c >= prev_c and k >= prev_k
            prev_c, prev_k = c, k

    def test_choose_c_k_small_p_limited(self):
        """At p=4 dense datasets cannot afford full replication or full k —
        the paper's Figure 4 annotations (e.g. Products: c=1, k=81)."""
        c4, k4 = choose_c_k(PAPER_DATASETS["protein"], SAGE_ARCH, 4)
        c128, k128 = choose_c_k(PAPER_DATASETS["protein"], SAGE_ARCH, 128)
        assert c4 <= 2
        assert k128 == PAPER_DATASETS["protein"].batches  # "k=all"
        assert c128 >= 4

    def test_quiver_oom_on_papers_only(self):
        """The paper's missing datapoint: Quiver preprocessing OOMs on
        Papers but not on Products/Protein."""
        assert not quiver_fits(PAPER_DATASETS["papers"])
        assert quiver_fits(PAPER_DATASETS["products"])

    def test_epoch_stats_total(self):
        s = EpochStats(sampling=1.0, feature_fetch=2.0, propagation=3.0)
        assert s.total == 6.0
