"""Graph container, generators and the paper-dataset stand-ins."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    PAPER_DATASETS,
    chung_lu,
    dataset_names,
    erdos_renyi,
    load_dataset,
    planted_partition,
    rmat,
    summarize,
    table3_rows,
)
from repro.graphs.stats import degree_histogram
from repro.sparse import CSRMatrix

from reference_spgemm import transpose


class TestGenerators:
    def test_rmat_shape_and_validity(self, rng):
        adj = rmat(8, 4, rng)
        assert adj.shape == (256, 256)
        adj.check()
        assert np.all(adj.data == 1.0)  # binary
        # no self loops
        rows, cols, _ = adj.to_coo()
        assert np.all(rows != cols)

    def test_rmat_skewed_degrees(self, rng):
        adj = rmat(10, 8, rng)
        degs = adj.nnz_per_row()
        # R-MAT with Graph500 parameters is heavy-tailed: the max degree
        # should far exceed the mean.
        assert degs.max() > 5 * degs.mean()

    def test_rmat_undirected_is_symmetric(self, rng):
        adj = rmat(7, 4, rng, make_undirected=True)
        assert adj.equal(transpose(adj))

    def test_rmat_validation(self, rng):
        with pytest.raises(ValueError):
            rmat(0, 4, rng)
        with pytest.raises(ValueError):
            rmat(5, 4, rng, a=0.9, b=0.2, c=0.2)

    def test_erdos_renyi_flat_degrees(self, rng):
        adj = erdos_renyi(2000, 10, rng)
        degs = adj.nnz_per_row()
        # Poisson-ish: max degree within a small multiple of the mean.
        assert degs.max() < 5 * max(1.0, degs.mean())

    def test_erdos_renyi_validation(self, rng):
        with pytest.raises(ValueError):
            erdos_renyi(0, 5, rng)

    def test_chung_lu_power_law(self, rng):
        adj = chung_lu(2000, 8, rng, exponent=2.2)
        in_degree = np.bincount(adj.indices, minlength=adj.shape[0])
        degs = np.sort(adj.nnz_per_row() + in_degree)[::-1]
        assert degs[0] > 10 * max(1, degs[len(degs) // 2])  # heavy head

    def test_chung_lu_validation(self, rng):
        with pytest.raises(ValueError):
            chung_lu(100, 5, rng, exponent=1.0)

    def test_planted_partition_homophily(self, rng):
        adj, labels = planted_partition(1000, 4, 20, rng, intra_fraction=0.9)
        rows, cols, _ = adj.to_coo()
        same = (labels[rows] == labels[cols]).mean()
        # Expect clearly more intra-class edges than the 1/4 random rate.
        assert same > 0.6

    def test_planted_partition_validation(self, rng):
        with pytest.raises(ValueError):
            planted_partition(10, 4, 5, rng, intra_fraction=1.5)
        with pytest.raises(ValueError):
            planted_partition(2, 4, 5, rng)


class TestGraphContainer:
    def _toy(self) -> Graph:
        adj = CSRMatrix.from_dense(np.eye(6)[::-1])
        return Graph(
            name="toy",
            adj=adj,
            features=np.ones((6, 3)),
            labels=np.arange(6) % 2,
            train_idx=np.arange(4),
        )

    def test_basic_properties(self):
        g = self._toy()
        assert g.n == 6 and g.m == 6
        assert g.n_features == 3 and g.n_classes == 2
        assert g.avg_degree() == 1.0

    def test_validation(self):
        adj = CSRMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            Graph("bad", CSRMatrix.zeros((3, 4)))
        with pytest.raises(ValueError):
            Graph("bad", adj, features=np.ones((3, 2)))
        with pytest.raises(ValueError):
            Graph("bad", adj, train_idx=np.array([9]))

    def test_rejects_unsorted_columns(self):
        unsorted = CSRMatrix(
            np.array([0, 2, 2]), np.array([1, 0]), np.ones(2), (2, 2)
        )
        with pytest.raises(ValueError, match="from_coo"):
            Graph("bad", unsorted)

    def test_rejects_duplicate_columns(self):
        dup = CSRMatrix(
            np.array([0, 2, 2]), np.array([0, 0]), np.ones(2), (2, 2)
        )
        with pytest.raises(ValueError, match="canonical CSR"):
            Graph("bad", dup)

    def test_canonical_from_coo_accepted(self):
        adj = CSRMatrix.from_coo(
            np.array([1, 0, 1]), np.array([0, 1, 0]), np.ones(3), (2, 2)
        )
        assert Graph("ok", adj).m == 2  # duplicates merged by from_coo

    def test_make_batches(self):
        g = self._toy()
        bs = g.make_batches(2)
        assert len(bs) == 2 and all(len(b) == 2 for b in bs)
        assert g.num_batches(2) == 2
        with pytest.raises(ValueError):
            g.make_batches(10)
        with pytest.raises(ValueError):
            g.num_batches(0)

    def test_make_batches_shuffles_with_rng(self):
        g = self._toy()
        a = g.make_batches(2, np.random.default_rng(0))
        b = g.make_batches(2, np.random.default_rng(1))
        joined_a = np.sort(np.concatenate(a))
        joined_b = np.sort(np.concatenate(b))
        assert np.array_equal(joined_a, joined_b)  # same vertices overall


class TestDatasets:
    def test_names_and_specs(self):
        assert dataset_names() == ["papers", "products", "protein"]
        spec = PAPER_DATASETS["products"]
        assert spec.vertices == 2_449_029
        assert 50 < spec.avg_degree < 55

    def test_density_ordering_matches_paper(self):
        d = {k: v.avg_degree for k, v in PAPER_DATASETS.items()}
        assert d["protein"] > d["products"] > d["papers"]

    def test_load_dataset_properties(self):
        g = load_dataset("products", scale=0.25, seed=0)
        assert g.n_features == 100
        assert g.labels is not None
        assert g.train_idx.size > 0
        # splits are disjoint
        assert not set(g.train_idx) & set(g.val_idx)
        assert not set(g.train_idx) & set(g.test_idx)

    def test_load_dataset_with_labels_learnable_structure(self):
        g = load_dataset("products", scale=0.1, seed=1, with_labels=True, n_classes=4)
        rows, cols, _ = g.adj.to_coo()
        same = (g.labels[rows] == g.labels[cols]).mean()
        assert same > 0.5  # homophilous

    def test_load_dataset_determinism(self):
        a = load_dataset("papers", scale=0.05, seed=9)
        b = load_dataset("papers", scale=0.05, seed=9)
        assert a.adj.equal(b.adj)
        assert np.allclose(a.features, b.features)

    def test_load_dataset_validation(self):
        with pytest.raises(KeyError):
            load_dataset("citeseer")
        with pytest.raises(ValueError):
            load_dataset("products", scale=-1)


class TestStats:
    def test_summarize(self):
        g = load_dataset("products", scale=0.1, seed=0)
        s = summarize(g)
        assert s.vertices == g.n and s.edges == g.m
        row = s.row()
        assert row["features"] == 100

    def test_table3_rows(self):
        rows = table3_rows()
        assert len(rows) == 3
        papers = next(r for r in rows if r["name"] == "papers")
        assert papers["vertices"] == 111_059_956

    def test_degree_histogram(self):
        g = load_dataset("products", scale=0.1, seed=0)
        counts, edges = degree_histogram(g)
        assert counts.sum() == (g.out_degrees() > 0).sum()
