"""Partitioning: 1D block rows and the 1.5D feature store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import Communicator, ProcessGrid
from repro.partition import BlockRows, FeatureStore, split_rows
from repro.sparse import sprand, vstack


class TestSplitRows:
    def test_even(self):
        assert np.array_equal(split_rows(12, 4), [0, 3, 6, 9, 12])

    def test_remainder_to_leading_blocks(self):
        assert np.array_equal(split_rows(10, 4), [0, 3, 6, 8, 10])

    def test_more_blocks_than_rows(self):
        bounds = split_rows(2, 4)
        assert bounds[-1] == 2 and len(bounds) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            split_rows(5, 0)
        with pytest.raises(ValueError):
            split_rows(-1, 2)


class TestBlockRows:
    def test_partition_roundtrip(self, rng):
        m = sprand(37, 20, 0.2, rng)
        br = BlockRows.partition(m, 5)
        assert br.n_blocks == 5
        assert vstack(br.blocks).equal(m)

    def test_blocks_have_local_rows_global_cols(self, rng):
        m = sprand(12, 9, 0.3, rng)
        br = BlockRows.partition(m, 3)
        for i, blk in enumerate(br.blocks):
            lo, hi = br.starts[i], br.starts[i + 1]
            assert np.allclose(blk.to_dense(), m.to_dense()[lo:hi])


class TestFeatureStore:
    def _setup(self, p, c, n=64, f=8, seed=0):
        rng = np.random.default_rng(seed)
        comm = Communicator(p)
        grid = ProcessGrid(p, c)
        feats = rng.standard_normal((n, f))
        return comm, grid, feats, FeatureStore(feats, grid)

    @pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (8, 2), (8, 4)])
    def test_fetch_returns_exact_rows(self, p, c, rng):
        comm, grid, feats, store = self._setup(p, c)
        needed = [rng.choice(64, 12, replace=False) for _ in range(p)]
        got = store.fetch(comm, needed)
        for r in range(p):
            assert np.allclose(got[r], feats[needed[r]])

    def test_fetch_handles_duplicates_and_empty(self, rng):
        comm, grid, feats, store = self._setup(4, 2)
        needed = [
            np.array([5, 5, 3]),
            np.empty(0, dtype=np.int64),
            np.array([63]),
            np.arange(10),
        ]
        got = store.fetch(comm, needed)
        assert np.allclose(got[0], feats[[5, 5, 3]])
        assert got[1].shape == (0, 8)
        assert np.allclose(got[2], feats[[63]])
        assert np.allclose(got[3], feats[:10])

    def test_fetch_all_remote_rows(self, rng):
        """A rank whose whole request is owned by *other* process rows."""
        comm, grid, feats, store = self._setup(4, 2)  # 2 block rows of 32
        needed = [
            np.arange(40, 50),        # rank 0 (process row 0): all remote
            np.arange(0, 8),          # rank 1 (process row 0): all local
            np.arange(10, 14),        # rank 2 (process row 1): all remote
            np.arange(50, 54),        # rank 3 (process row 1): all local
        ]
        got = store.fetch(comm, needed)
        for r in range(4):
            assert np.allclose(got[r], feats[needed[r]])

    def test_fetch_preserves_store_dtype(self, rng):
        """Regression: the output block must follow the stored dtype, not
        silently upcast fp32 features to float64."""
        comm = Communicator(4)
        grid = ProcessGrid(4, 2)
        feats = rng.standard_normal((64, 8)).astype(np.float32)
        store = FeatureStore(feats, grid)
        needed = [
            rng.choice(64, 6, replace=False),
            np.empty(0, dtype=np.int64),  # hits the empty-chunk fallback
            np.arange(40, 50),
            np.arange(4),
        ]
        got = store.fetch(comm, needed)
        for r in range(4):
            assert got[r].dtype == np.float32
            assert np.array_equal(got[r], feats[needed[r]])

    def test_fetch_volume_decreases_with_c(self, rng):
        """The paper's Figure 6 mechanism: feature-fetch time scales with c."""
        times = {}
        for c in (1, 2, 4):
            comm, grid, feats, store = self._setup(8, c, n=512, f=64)
            needed = [rng.choice(512, 128, replace=False) for _ in range(8)]
            with comm.phase("feature_fetch"):
                store.fetch(comm, needed)
            times[c] = comm.clock.phase_seconds("feature_fetch")
        assert times[4] < times[2] < times[1]

    def test_owner_row(self):
        comm, grid, feats, store = self._setup(4, 2)  # 2 block rows of 32
        assert store.owner_row(np.array([0, 31, 32, 63])).tolist() == [0, 0, 1, 1]

    def test_wire_bytes_uses_fp32(self):
        """Wire bytes are the rows' real ``nbytes``: 4 per value for the
        float32 features the library builds, 8 for a float64 store."""
        comm, grid, feats, _ = self._setup(4, 2)
        store = FeatureStore(feats.astype(np.float32), grid)
        assert store.wire_bytes(10) == 10 * 8 * 4 == store.features[:10].nbytes
        assert FeatureStore(feats, grid).wire_bytes(10) == 10 * 8 * 8
        got = store.fetch(comm, [np.arange(5)] * 4)
        assert all(g.dtype == np.float32 for g in got)

    def test_validation(self, rng):
        comm = Communicator(4)
        grid = ProcessGrid(4, 2)
        with pytest.raises(ValueError):
            FeatureStore(np.ones(5), grid)
        store = FeatureStore(np.ones((10, 2)), grid)
        with pytest.raises(ValueError):
            store.fetch(comm, [np.arange(2)])  # wrong number of requests
