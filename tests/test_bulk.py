"""Bulk sampling: stacking bookkeeping and bulk-vs-single equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    LadiesSampler,
    SageSampler,
    assign_round_robin,
    batch_rng,
    chunk_bulks,
    reassemble_round_robin,
)


class TestBookkeeping:
    def test_chunk_bulks(self):
        bs = list(range(10))
        bulks = chunk_bulks(bs, 4)
        assert [len(b) for b in bulks] == [4, 4, 2]
        assert bulks[2] == [8, 9]
        with pytest.raises(ValueError):
            chunk_bulks(bs, 0)

    def test_chunk_bulks_exact_division(self):
        assert [len(b) for b in chunk_bulks(list(range(8)), 4)] == [4, 4]

    def test_assign_round_robin(self):
        owners = assign_round_robin(10, 4)
        assert owners[0] == [0, 4, 8]
        assert owners[3] == [3, 7]
        assert sorted(sum(owners, [])) == list(range(10))
        # balance within one item
        sizes = [len(o) for o in owners]
        assert max(sizes) - min(sizes) <= 1
        with pytest.raises(ValueError):
            assign_round_robin(4, 0)

    def test_reassemble_inverts_assignment(self):
        """The shared helper both distributed drivers use: ownership
        round-trips for every (n_items, n_owners) shape."""
        for n_items in (0, 1, 5, 10, 16):
            for n_owners in (1, 2, 3, 4, 7):
                owners = assign_round_robin(n_items, n_owners)
                per_owner = [[f"item{i}" for i in idxs] for idxs in owners]
                out = reassemble_round_robin(per_owner, n_items)
                assert out == [f"item{i}" for i in range(n_items)]

    def test_reassemble_validates_counts(self):
        with pytest.raises(ValueError, match="3 items"):
            reassemble_round_robin([[1, 2], [3]], 4)
        with pytest.raises(ValueError):
            reassemble_round_robin([], 2)

    def test_reassemble_rejects_lopsided_owners(self):
        # Right total, wrong shape: owner 1 cannot hold 3 of 4 items.
        with pytest.raises(ValueError):
            reassemble_round_robin([[1], [2, 3, 4]], 4)

    def test_batch_rng_streams_are_independent_and_stable(self):
        a = batch_rng(3, 5).integers(0, 1 << 30, 8)
        b = batch_rng(3, 5).integers(0, 1 << 30, 8)
        c = batch_rng(3, 6).integers(0, 1 << 30, 8)
        d = batch_rng(4, 5).integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestBulkEquivalence:
    """Bulk sampling must be distribution-identical to per-batch sampling.

    The outputs for a batch cannot be bitwise-equal across bulk sizes (the
    RNG stream differs), so we compare *statistics*: marginal frequencies of
    sampled vertices for a fixed batch under bulk vs solo sampling.
    """

    def _marginals(self, adj, batch, runs, sample_fn):
        counts = np.zeros(adj.shape[0])
        for seed in range(runs):
            mb = sample_fn(batch, seed)
            counts[mb.layers[0].src_ids] += 1
        return counts / runs

    def test_sage_bulk_marginals_match_solo(self, small_adj):
        sampler = SageSampler(include_dst=False)
        batch = np.arange(16)
        other = np.arange(16, 32)
        runs = 300

        solo = self._marginals(
            small_adj, batch, runs,
            lambda b, s: sampler.sample_bulk(
                small_adj, [b], (3,), np.random.default_rng(s)
            )[0],
        )
        bulk = self._marginals(
            small_adj, batch, runs,
            lambda b, s: sampler.sample_bulk(
                small_adj, [b, other], (3,), np.random.default_rng(10_000 + s)
            )[0],
        )
        # Compare only vertices with non-trivial probability.
        active = (solo > 0.02) | (bulk > 0.02)
        assert np.max(np.abs(solo[active] - bulk[active])) < 0.15

    def test_ladies_bulk_marginals_match_solo(self, small_adj):
        sampler = LadiesSampler()
        batch = np.arange(16)
        other = np.arange(16, 32)
        runs = 300

        solo = self._marginals(
            small_adj, batch, runs,
            lambda b, s: sampler.sample_bulk(
                small_adj, [b], (8,), np.random.default_rng(s)
            )[0],
        )
        bulk = self._marginals(
            small_adj, batch, runs,
            lambda b, s: sampler.sample_bulk(
                small_adj, [b, other], (8,), np.random.default_rng(10_000 + s)
            )[0],
        )
        active = (solo > 0.02) | (bulk > 0.02)
        assert np.max(np.abs(solo[active] - bulk[active])) < 0.15

    def test_bulk_output_order_matches_input(self, small_adj, rng):
        batches = [rng.choice(small_adj.shape[0], 8, replace=False) for _ in range(5)]
        out = SageSampler().sample_bulk(small_adj, batches, (3,), rng)
        for mb, batch in zip(out, batches):
            assert np.array_equal(mb.batch, batch)

    def test_bulk_handles_heterogeneous_batch_sizes(self, small_adj, rng):
        batches = [np.arange(4), np.arange(10, 40), np.arange(50, 51)]
        out = SageSampler().sample_bulk(small_adj, batches, (3, 2), rng)
        assert [len(mb.batch) for mb in out] == [4, 30, 1]
