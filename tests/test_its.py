"""Inverse transform sampling: correctness, the distribution contract, edge
cases.

SAMPLE's contract (``repro.core.its``) is a distribution: per row, the
selected set follows successive sampling without replacement.
:func:`subset_probabilities` enumerates that law exactly for one short row;
``TestStatistics`` draws ``DRAWS`` seeded copies of a row in one call and
holds every subset's count to it within an exact binomial bound.  ITS and
the one-pass Gumbel top-``s`` (``reference_its.gumbel_select_mask``) answer
to the same oracle, and a sampler with the wrong law must fail it.
"""

from __future__ import annotations

import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from repro.core import SageSampler, its, its_flops, its_sample_rows
from repro.core.its import _mask_to_csr, its_select_mask
from repro.sparse import CSRMatrix, row_normalize, sprand

import reference_its
from reference_its import gumbel_select_mask


def gumbel_topk_rows(p, s, rng):
    """Gumbel top-``s`` as the binary sampled ``Q^{l-1}``."""
    return _mask_to_csr(p, gumbel_select_mask(p, s, rng))


class TestBasics:
    def test_exact_counts_without_replacement(self, rng):
        p = row_normalize(sprand(50, 40, 0.3, rng))
        q = its_sample_rows(p, 5, rng)
        counts = q.nnz_per_row()
        avail = np.minimum(5, p.nnz_per_row())
        assert np.array_equal(counts, avail)
        q.check()

    def test_samples_are_support_subset(self, rng):
        p = row_normalize(sprand(30, 30, 0.2, rng))
        q = its_sample_rows(p, 4, rng)
        dense_p = p.to_dense()
        rows, cols, _ = q.to_coo()
        assert np.all(dense_p[rows, cols] > 0)

    def test_binary_values(self, rng):
        p = row_normalize(sprand(10, 10, 0.5, rng))
        q = its_sample_rows(p, 3, rng)
        assert np.all(q.data == 1.0)

    def test_row_short_of_s_takes_all(self, rng):
        p = CSRMatrix.from_dense([[0.2, 0.8, 0.0], [0.0, 0.0, 0.0]])
        q = its_sample_rows(p, 5, rng)
        assert q.nnz_per_row()[0] == 2
        assert q.nnz_per_row()[1] == 0

    def test_empty_matrix(self, rng):
        q = its_sample_rows(CSRMatrix.zeros((3, 4)), 2, rng)
        assert q.nnz == 0 and q.shape == (3, 4)

    def test_zero_weight_entries_never_selected(self, rng):
        p = CSRMatrix.from_coo([0, 0, 0], [0, 1, 2], [0.0, 1.0, 0.0], (1, 3))
        for _ in range(20):
            q = its_sample_rows(p, 1, rng)
            assert np.array_equal(q.row(0)[0], [1])

    def test_validation(self, rng):
        p = sprand(3, 3, 0.5, rng)
        with pytest.raises(ValueError):
            its_sample_rows(p, 0, rng)
        neg = CSRMatrix.from_dense([[-1.0]])
        with pytest.raises(ValueError):
            its_sample_rows(neg, 1, rng)

    def test_flops_positive_and_monotone(self, rng):
        p = sprand(10, 10, 0.3, rng)
        assert its_flops(p, 2) > 0
        assert its_flops(p, 8) > its_flops(p, 2)


# ---------------------------------------------------------------------- #
# The distribution contract, against an exact oracle
# ---------------------------------------------------------------------- #
#: Seeded copies of a row drawn per comparison.
DRAWS = 20_000
#: Family-wise false-alarm rate of one comparison (all the subsets of one
#: row and count): a correct sampler fails a fresh seed this rarely.  The
#: bound is Bonferroni over the subsets, two-sided, with exact binomial
#: tails; with ~30 comparisons in this file the whole suite false-alarms
#: with probability below 1e-4 per change of seed.
FALSE_ALARM = 1e-6

#: Rows of at most 6 entries: uniform, skewed, with stored zeros, heavy
#: against light, and shorter than the largest count.
ROWS = {
    "uniform": [1.0] * 6,
    "weighted": [0.1, 0.2, 0.3, 0.4],
    "halves": [0.5, 0.25, 0.25],
    "skewed": [0.6, 0.3, 0.1],
    "zeros": [0.0, 2.0, 1.0, 0.0, 5.0, 0.5],
    "heavy": [50.0, 1.0, 1.0, 2.0, 1.0],
    "digits": [3.0, 1.0, 4.0, 1.0, 5.0, 9.0],
    "short": [2.0, 1.0],
    "even": [0.5] * 5,
    "single": [2.0],
}
COUNTS = (1, 2, 3)
#: A heavy entry beside light ones: certain to reach the zeroing path.
HEAVY = [1e6] + [1e-3] * 5
#: One entry holding ``1 - ε`` of the mass.
DOMINANT = [1.0 - 4e-12, 1e-12, 2e-12, 1e-12]


def subset_probabilities(weights, s: int) -> np.ndarray:
    """The exact law of one row's selected set, indexed by subset bitmask
    (bit ``i`` = entry ``i``): the sum, over every order the set can be
    drawn in, of successive sampling's ``prod w_i / (W - drawn so far)``.
    Zero-weight entries are never drawn; a row with at most ``s`` positive
    entries keeps all of them with probability 1."""
    w = np.asarray(weights, dtype=np.float64)
    positive = np.flatnonzero(w > 0)
    probs = np.zeros(2**w.size)
    for order in itertools.permutations(positive, min(s, positive.size)):
        pr, left = 1.0, w.sum()
        for i in order:
            pr *= w[i] / left
            left -= w[i]
        probs[sum(1 << int(i) for i in order)] += pr
    return probs


def _tiled(rows: list, copies: int) -> CSRMatrix:
    """``rows`` repeated ``copies`` times, as one CSR matrix whose stored
    entries (zeros included) are every weight of every copy, in order."""
    data = np.tile(np.concatenate([np.asarray(r, float) for r in rows]), copies)
    lengths = np.tile([len(r) for r in rows], copies)
    indices = np.concatenate([np.arange(n) for n in lengths])
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    width = max(len(r) for r in rows)
    return CSRMatrix(indptr, indices, data, (lengths.size, width))


def _codes(mask: np.ndarray, width: int) -> np.ndarray:
    """Per row of a tiled single-row draw: its selected set as a bitmask."""
    return mask.reshape(-1, width) @ (1 << np.arange(width))


def _outside_bound(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Cells whose count falls outside the two-sided exact binomial bound
    at :data:`FALSE_ALARM`, Bonferroni-split over the cells."""
    n = int(counts.sum())
    tail = np.minimum(binom.cdf(counts, n, probs), binom.sf(counts - 1, n, probs))
    return np.flatnonzero(2 * tail < FALSE_ALARM / probs.size)


def off_law(select, weights, s: int, seed: int) -> np.ndarray:
    """Subsets whose seeded frequency under ``select`` contradicts the
    exact law (empty when the sampler keeps the contract)."""
    p = _tiled([weights], DRAWS)
    mask = select(p, s, np.random.default_rng(seed))
    probs = subset_probabilities(weights, s)
    counts = np.bincount(_codes(mask, len(weights)), minlength=probs.size)
    return _outside_bound(counts, probs)


@contextlib.contextmanager
def _paths():
    """What :func:`its._uniform_rows` answers inside the block, one answer
    per SAMPLE call that asked: ``True`` is the uniform path."""
    seen = []
    check = its._uniform_rows

    def spy(*args):
        seen.append(check(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(its, "_uniform_rows", spy)
        yield seen


@contextlib.contextmanager
def _stragglers():
    """How many rows each call of step 4 finishes, inside the block."""
    seen = []
    zeroing = its._zeroing_rounds

    def spy(data, selected, lo, hi, need, rng):
        seen.append(lo.size)
        zeroing(data, selected, lo, hi, need, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(its, "_zeroing_rounds", spy)
        yield seen


def _pair_off_law(a, b, s: int, seed: int) -> np.ndarray:
    """Cells where rows ``a`` and ``b``, drawn interleaved in one call,
    contradict the product of their exact laws (empty when they keep it)."""
    p = _tiled([a, b], DRAWS)
    mask = its_select_mask(p, s, np.random.default_rng(seed))
    pairs = mask.reshape(DRAWS, len(a) + len(b))
    joint = (_codes(pairs[:, : len(a)], len(a)) << len(b)) + _codes(
        pairs[:, len(a) :], len(b)
    )
    probs = np.outer(subset_probabilities(a, s), subset_probabilities(b, s)).ravel()
    return _outside_bound(np.bincount(joint, minlength=probs.size), probs)


def _weight_proportional_keys(p, s, rng):
    """A plausible wrong SAMPLE: top-``s`` of ``w * U`` keys (``U^(1/w)``
    would be right).  Exists so the oracle is shown to reject something."""
    keys = p.data * rng.random(p.nnz)
    rows = p.row_ids()
    order = np.lexsort((-keys, rows))
    ranks = np.empty(p.nnz, dtype=np.int64)
    ranks[order] = np.arange(p.nnz) - np.repeat(p.indptr[:-1], np.diff(p.indptr))
    return (ranks < s) & (p.data > 0)


class TestStatistics:
    def test_oracle_is_a_law_and_matches_the_closed_form(self):
        for w in ROWS.values():
            for s in COUNTS:
                probs = subset_probabilities(w, s)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # s = 2: P({i, j}) = p_i p_j (1 / (1 - p_i) + 1 / (1 - p_j)).
        p = np.array(ROWS["weighted"])
        probs = subset_probabilities(p, 2)
        for i, j in itertools.combinations(range(p.size), 2):
            want = p[i] * p[j] * (1 / (1 - p[i]) + 1 / (1 - p[j]))
            assert probs[(1 << i) | (1 << j)] == pytest.approx(want, rel=1e-12)

    def test_uniform_row_frequencies(self):
        """Every s-subset of a uniform row is equally likely."""
        with _paths() as seen:
            for s in COUNTS:
                assert off_law(its_select_mask, ROWS["uniform"], s, seed=s).size == 0
        assert seen == [True] * len(COUNTS)

    def test_even_rows_reach_the_zeroing_path_and_keep_the_law(self):
        """``s`` one or two short of an even row's width: the uniform path's
        rejection rounds leave rows short, and step 4 finishes them under
        the same law."""
        with _paths() as seen, _stragglers() as stragglers:
            for s in (4, 5):
                stragglers.clear()
                off = off_law(its_select_mask, ROWS["uniform"], s, seed=80 + s)
                assert off.size == 0, (s, off)
                assert stragglers and stragglers[0] > 0
        assert seen == [True, True]

    def test_even_rows_of_different_weights_in_one_pass(self):
        """Even rows of different widths and weights drawn in one call, on
        the uniform path, follow the product of their laws."""
        with _paths() as seen:
            assert _pair_off_law(ROWS["even"], [1 / 3] * 4, 2, seed=90).size == 0
        assert seen == [True]

    def test_weighted_frequencies(self):
        """Every subset of a weighted row, at every count, follows
        successive sampling without replacement."""
        for row, s in itertools.product(sorted(set(ROWS) - {"uniform"}), COUNTS):
            off = off_law(its_select_mask, ROWS[row], s, seed=10 + s)
            assert off.size == 0, (row, s, off)

    def test_many_rows_single_pass_matches_marginals(self):
        """Rows drawn in one call are independent: two different rows
        interleaved in one ``P`` follow the product of their laws."""
        for s in COUNTS:
            off = _pair_off_law(ROWS["skewed"], ROWS["digits"], s, seed=20 + s)
            assert off.size == 0

    def test_gumbel_matches_its_marginals(self):
        """Gumbel top-``s`` — a second implementation sharing no step with
        ITS — answers to the same oracle."""
        for row, s in itertools.product(sorted(ROWS), COUNTS):
            off = off_law(gumbel_select_mask, ROWS[row], s, seed=30 + s)
            assert off.size == 0, (row, s, off)

    def test_the_oracle_rejects_the_wrong_law(self):
        """Top-``s`` by ``w * U`` keeps zero weights out and draws the right
        set sizes, but not the right law: the bound must see it."""
        assert off_law(
            _weight_proportional_keys, ROWS["weighted"], 2, seed=40
        ).size > 0

    def test_without_replacement_distinctness(self, rng):
        p = row_normalize(sprand(100, 50, 0.4, rng))
        q = its_sample_rows(p, 10, rng)
        for i in range(100):
            cols, _ = q.row(i)
            assert len(np.unique(cols)) == len(cols)

    def test_rows_that_reach_the_zeroing_path(self):
        """One heavy entry beside light ones: every redraw of the heavy entry
        is a repeat, so the rows are still short after the rejection rounds
        and finish on the zeroing path, which answers to the same oracle."""
        with _stragglers() as stragglers:
            for s in (2, 3, 5):
                stragglers.clear()
                off = off_law(its_select_mask, HEAVY, s, seed=50 + s)
                assert off.size == 0, (s, off)
                assert stragglers and stragglers[0] > 0.99 * DRAWS

    def test_a_dominant_entry_terminates_and_obeys_the_law(self):
        """A row holding ``1 - ε`` of its mass, ``s ≥ 2``: rejection alone
        would redraw the dominant entry ~``1/ε`` times per light pick."""
        for s in (2, 3):
            off = off_law(its_select_mask, DOMINANT, s, seed=60 + s)
            assert off.size == 0, (s, off)

    def test_rows_within_s_keep_their_positive_entries(self):
        """A row with exactly ``s`` positive entries and one with fewer, zeros
        interleaved, keep exactly their positive entries; the row drawing
        beside them keeps its law."""
        exact, fewer = [0.5, 0.0, 2.0, 1.0], [0.0, 2.0, 0.0, 1.0, 0.0]
        drawing = ROWS["digits"]
        s = 3
        p = _tiled([exact, fewer, drawing], DRAWS)
        mask = its_select_mask(p, s, np.random.default_rng(70)).reshape(DRAWS, -1)
        kept = np.array(exact + fewer) > 0
        assert np.array_equal(mask[:, : kept.size], np.tile(kept, (DRAWS, 1)))
        codes = _codes(mask[:, kept.size :], len(drawing))
        probs = subset_probabilities(drawing, s)
        assert _outside_bound(np.bincount(codes, minlength=probs.size), probs).size == 0


class TestGumbel:
    def test_exact_counts(self, rng):
        p = row_normalize(sprand(40, 30, 0.3, rng))
        q = gumbel_topk_rows(p, 5, rng)
        assert np.array_equal(q.nnz_per_row(), np.minimum(5, p.nnz_per_row()))
        q.check()

    def test_zero_weights_excluded(self, rng):
        p = CSRMatrix.from_coo([0, 0], [0, 1], [0.0, 1.0], (1, 2))
        q = gumbel_topk_rows(p, 2, rng)
        assert np.array_equal(q.row(0)[0], [1])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            gumbel_topk_rows(sprand(2, 2, 0.5, rng), 0, rng)

    def test_empty(self, rng):
        q = gumbel_topk_rows(CSRMatrix.zeros((2, 2)), 1, rng)
        assert q.nnz == 0


@given(st.integers(1, 20), st.integers(1, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_property_counts_and_support(n_rows, s, seed):
    """For any random P, ITS returns min(s, support) distinct in-support picks."""
    rng = np.random.default_rng(seed)
    p = sprand(n_rows, 16, 0.3, rng)
    q = its_sample_rows(p, s, rng)
    q.check()
    support = p.to_dense() > 0
    rows, cols, _ = q.to_coo()
    assert np.all(support[rows, cols])
    per_row_support = support.sum(axis=1)
    assert np.array_equal(q.nnz_per_row(), np.minimum(s, per_row_support))


# ---------------------------------------------------------------------- #
# The one-prefix-sum kernel against the zeroing body it replaced
# ---------------------------------------------------------------------- #
#: Weights that make rounds and duplicates: exact zeros, a heavy entry
#: beside tiny ones (the heavy one is drawn again and again), equal weights.
_WEIGHTS = st.sampled_from([0.0, 0.0, 1e-9, 0.25, 1.0, 1.0, 3.0, 1e6]) | st.floats(
    0, 10, allow_nan=False, allow_infinity=False
)
_POSITIVE = st.sampled_from([1e-9, 0.25, 1.0, 1.0, 3.0, 1e6]) | st.floats(1e-3, 10)


@st.composite
def sampling_inputs(draw, max_rows: int = 10, max_cols: int = 14):
    """A non-negative ``P`` with explicit ``0.0`` entries and empty rows."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    indptr, indices, data = [0], [], []
    for _ in range(n_rows):
        cols = sorted(
            draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=n_cols))
        )
        indices += cols
        data += draw(st.lists(_WEIGHTS, min_size=len(cols), max_size=len(cols)))
        indptr.append(len(indices))
    p = CSRMatrix(np.array(indptr), np.array(indices), np.array(data), (n_rows, n_cols))
    p.check()
    # s from 1 to past the longest row: near the degree means many rounds.
    s = draw(st.integers(1, n_cols + 2))
    return p, s


@st.composite
def drawing_inputs(draw, max_rows: int = 8):
    """``(P, s)`` where every row has more than ``s`` positive entries (and
    up to two stored zeros among them): no row is taken whole."""
    s = draw(st.integers(1, 4))
    n_cols = s + 12
    indptr, indices, data = [0], [], []
    for _ in range(draw(st.integers(1, max_rows))):
        weights = draw(st.lists(_POSITIVE, min_size=s + 1, max_size=n_cols - 2))
        weights = draw(st.permutations(weights + [0.0] * draw(st.integers(0, 2))))
        cols = st.lists(
            st.integers(0, n_cols - 1), unique=True,
            min_size=len(weights), max_size=len(weights),
        )
        indices += sorted(draw(cols))
        data += weights
        indptr.append(len(indices))
    shape = (len(indptr) - 1, n_cols)
    p = CSRMatrix(np.array(indptr), np.array(indices), np.array(data), shape)
    p.check()
    return p, s


def _run(select, p, s, seed):
    """(mask bytes or the error's type, the generator state afterwards)."""
    rng = np.random.default_rng(seed)
    try:
        out = select(p, s, rng).tobytes()
    except RuntimeError as err:  # no progress: both must give up alike
        out = type(err)
    return out, rng.bit_generator.state


def _row_counts(mask: bytes, p: CSRMatrix) -> np.ndarray:
    return np.diff(np.r_[0, np.cumsum(np.frombuffer(mask, dtype=bool))][p.indptr])


def _keeps_min_s_positive(mask: bytes, p: CSRMatrix, s: int) -> None:
    """Checked against ``P`` itself: only positive entries are selected,
    ``min(s, positive entries)`` of them per row."""
    chosen = np.frombuffer(mask, dtype=bool)
    positive = p.data > 0
    assert not np.any(chosen & ~positive)
    want = np.minimum(s, _row_counts(positive.tobytes(), p))
    assert np.array_equal(_row_counts(mask, p), want)


def _holds_to_the_zeroing_body(p, s, seed):
    """What still holds against the zeroing body, whose bits differ by
    design: the same seed gives the same mask and generator state; the body
    never fails where the zeroing body selects, and then selects the same
    count per row.  (Where the zeroing body fails — its one global sum can
    round a light row's entries away behind heavy rows — the new body may
    still select; see ``test_the_zeroing_path_sums_the_short_rows_alone``.)
    Whatever either body does, a mask the new body returns on finite
    weights keeps ``min(s, positive)`` positive entries per row.  Returns
    the body's outcome."""
    got = _run(its_select_mask, p, s, seed)
    assert _run(its_select_mask, p, s, seed) == got
    want, _ = _run(reference_its.zeroing_select_mask, p, s, seed)
    if want is not RuntimeError:
        assert got[0] is not RuntimeError
        assert np.array_equal(_row_counts(got[0], p), _row_counts(want, p))
    if got[0] is not RuntimeError and np.all(np.isfinite(p.data)):
        _keeps_min_s_positive(got[0], p, s)
    return got


@given(sampling_inputs(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_carried_state_matches_the_retired_body(args, seed):
    """The counts and outcomes of the zeroing body
    (:func:`_holds_to_the_zeroing_body`), on a ``P`` that is read and never
    written."""
    p, s = args
    before = p.data.copy()
    p.data.flags.writeable = False  # P is read, never written (shm operands)
    _holds_to_the_zeroing_body(p, s, seed)
    assert p.data.tobytes() == before.tobytes()


@given(drawing_inputs(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_the_zeroing_path_is_the_retired_body(args, seed):
    """With the rejection rounds switched off and every row drawing, every
    row finishes on the zeroing path over the whole of ``P``: that is the
    zeroing body, so the mask and the generator state are its own, bitwise
    (failures included)."""
    p, s = args
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(its, "_REJECT_ROUNDS", 0)
        got = _run(its_select_mask, p, s, seed)
    assert got == _run(reference_its.zeroing_select_mask, p, s, seed)


def _block_seeds(p, data):
    """Row-block bounds of ``p`` and one seed per block."""
    cuts = sorted(data.draw(st.lists(st.integers(0, p.shape[0]), max_size=3)))
    bounds = np.array([0, *cuts, p.shape[0]])
    seeds = data.draw(
        st.lists(
            st.integers(0, 2**32 - 1),
            min_size=len(bounds) - 1, max_size=len(bounds) - 1,
        )
    )
    return bounds, seeds


@given(sampling_inputs(), st.data())
@settings(max_examples=150, deadline=None)
def test_per_batch_blocks_match_the_retired_body(args, data):
    """``sample_stacked_mask`` with one generator per row block: each block
    is a separate call on that block, under its own stream, and holds to
    the zeroing body on that block."""
    p, s = args
    bounds, seeds = _block_seeds(p, data)
    blocks = [
        p.row_block(int(bounds[i]), int(bounds[i + 1]))
        for i in range(len(seeds))
    ]
    want = [_holds_to_the_zeroing_body(b, s, x) for b, x in zip(blocks, seeds)]
    rngs = [np.random.default_rng(x) for x in seeds]
    if any(mask is RuntimeError for mask, _ in want):
        with pytest.raises(RuntimeError):
            SageSampler().sample_stacked_mask(p, s, rngs, bounds)
        return
    got = SageSampler().sample_stacked_mask(p, s, rngs, bounds)
    assert got.tobytes() == b"".join(mask for mask, _ in want)
    assert [g.bit_generator.state for g in rngs] == [state for _, state in want]


def test_duplicate_heavy_rows_take_many_rounds():
    """One heavy entry beside tiny ones: the rejection rounds redraw it
    again and again, and the rows must still land on exactly ``s`` each."""
    w = np.array([[1e6] + [1e-3] * 9] * 4)
    p = CSRMatrix.from_dense(w)
    for seed in range(5):
        mask, _ = _holds_to_the_zeroing_body(p, 9, seed)
        assert np.array_equal(_row_counts(mask, p), [9] * 4)


def test_a_light_row_behind_a_heavy_one_skips_its_stored_zero():
    """The last row's mass is rounded onto its boundary in the global sum,
    where the clamp lands on its leading ``0.0``: that pick is dropped, in
    the rejection rounds and on the zeroing path alike."""
    p = CSRMatrix(
        np.array([0, 2, 4, 7]),
        np.array([0, 1, 0, 1, 0, 1, 2]),
        np.array([1e-9, 1e-9, 1e-9, 1e6, 0.0, 1e-9, 2.2e-309]),
        (3, 3),
    )
    for seed in range(20):
        mask, _ = _holds_to_the_zeroing_body(p, 1, seed)
        _keeps_min_s_positive(mask, p, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(its, "_REJECT_ROUNDS", 0)
            mask, _ = _run(its_select_mask, p, 1, seed)
        _keeps_min_s_positive(mask, p, 1)


def test_rows_the_stragglers_sum_rounds_away_still_draw():
    """On the zeroing path a row whose live mass vanishes behind heavier
    stragglers (``2.2e-16`` behind a weight of ``3.0``, ``6.1e-35`` behind
    ``1e-9``) is drawn from once every row is scaled to a largest weight of
    1: ``min(s, positive)`` positive entries per row, on every seed."""
    cases = [
        (_tiled([[3.0, 1.0, 1.0, 7.0], [1e-9] * 4, [1e-9] * 3 + [1.0],
                 [1e-9, 1e-9, 2.2e-16, 5e-324]], 4), 3),
        (_tiled([[1e-9] * 4 + [0.25], [0.0] + [1e-9] * 3 + [6.1e-35, 4.0e-168]], 6), 4),
    ]
    for p, s in cases:
        for seed in range(40):
            mask, _ = _holds_to_the_zeroing_body(p, s, seed)
            assert mask is not RuntimeError
            _keeps_min_s_positive(mask, p, s)


def test_subnormal_even_rows_keep_the_prefix_path():
    """Equal subnormal weights pass the share test, yet the prefix sum
    cannot resolve them: such rows draw as the zeroing body does, bitwise."""
    p = CSRMatrix(np.array([0, 2]), np.array([0, 1]), np.array([5e-324] * 2), (1, 2))
    for seed in range(20):
        got = _run(its_select_mask, p, 1, seed)
        assert got == _run(reference_its.zeroing_select_mask, p, 1, seed)


def test_rows_within_s_draw_nothing():
    """Rows with at most ``s`` positive entries keep them with no draws: a
    ``P`` made only of such rows leaves the generator untouched."""
    p = _tiled([[0.5, 0.0, 2.0, 1.0], [0.0, 2.0, 0.0, 1.0, 0.0], [0.0]], 3)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert its_select_mask(p, 3, rng).tobytes() == (p.data > 0).tobytes()
    assert rng.bit_generator.state == state


def test_the_zeroing_path_sums_the_short_rows_alone():
    """Behind eight entries of weight 1, the zeroing body's global sum
    rounds ``5e-324`` away, so once row 1's weight-1 entry is taken the row
    has no mass left to draw from and the body gives up.  The new body
    finishes row 1 on a sum of the short rows' entries alone."""
    p = CSRMatrix(
        np.array([0, 8, 11]),
        np.r_[np.arange(8), [0, 1, 2]],
        np.r_[[1.0] * 8, [1.0, 5e-324, 5e-324]],
        (2, 8),
    )
    for seed in range(3):
        assert _run(reference_its.zeroing_select_mask, p, 2, seed)[0] is RuntimeError
        mask, _ = _run(its_select_mask, p, 2, seed)
        assert np.array_equal(_row_counts(mask, p), [2, 2])


@np.errstate(invalid="ignore")
def test_picks_stay_in_their_rows_behind_an_infinite_weight():
    """Behind an infinite weight a row's prefix sums are ``inf`` and its mass
    is ``inf - inf``: its draws search for NaN, which lands past the end of
    ``P``.  Every pick is clamped into its own row, so each row still
    selects ``s`` of its own entries."""
    p = CSRMatrix(
        np.array([0, 2, 5]), np.array([0, 1, 0, 1, 2]),
        np.array([1.0, np.inf, 1.0, 1.0, 1.0]), (2, 3),
    )
    for seed in range(3):
        mask = its_select_mask(p, 1, np.random.default_rng(seed))
        assert np.array_equal(_row_counts(mask.tobytes(), p), [1, 1])


# ---------------------------------------------------------------------- #
# The uniform path against the one-prefix-sum body
# ---------------------------------------------------------------------- #
#: One row's weight on an even row: unit, NORM of a row of weight 0.5 or of
#: degree 3 or 7, and a weight above one.
_EVEN = st.sampled_from([1.0, 0.5, 0.25, 1 / 3, 1 / 7, 3.0])


@st.composite
def even_inputs(draw, max_rows: int = 10, max_cols: int = 14):
    """A ``P`` whose every row holds one weight of its own, with empty rows,
    single-entry rows and rows at or below ``s``."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    indptr, indices, data = [0], [], []
    for _ in range(n_rows):
        cols = sorted(
            draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=n_cols))
        )
        indices += cols
        data += [draw(_EVEN)] * len(cols)
        indptr.append(len(indices))
    p = CSRMatrix(np.array(indptr), np.array(indices, dtype=np.int64),
                  np.array(data, dtype=np.float64), (n_rows, n_cols))
    p.check()
    return p, draw(st.integers(1, n_cols + 2))


@given(even_inputs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_the_uniform_path_is_the_prefix_body(args, seed):
    """On even rows, drawing an index is the prefix-sum body's binary
    search: the same mask and generator state, bitwise."""
    p, s = args
    p.data.flags.writeable = False
    with _paths() as seen:
        got = _run(its_select_mask, p, s, seed)
    assert all(seen)
    assert got == _run(reference_its.prefix_select_mask, p, s, seed)


@given(even_inputs(), st.data())
@settings(max_examples=50, deadline=None)
def test_uniform_blocks_are_the_prefix_body(args, data):
    """``sample_stacked_mask`` with one generator per row block: each block
    of even rows draws what the prefix-sum body draws on that block."""
    p, s = args
    bounds, seeds = _block_seeds(p, data)
    want = [
        _run(reference_its.prefix_select_mask, p.row_block(int(a), int(b)), s, x)
        for a, b, x in zip(bounds[:-1], bounds[1:], seeds)
    ]
    rngs = [np.random.default_rng(x) for x in seeds]
    with _paths() as seen:
        got = SageSampler().sample_stacked_mask(p, s, rngs, bounds)
    assert all(seen)
    assert got.tobytes() == b"".join(mask for mask, _ in want)
    assert [g.bit_generator.state for g in rngs] == [state for _, state in want]


def _with_row(p: CSRMatrix, at: int, values) -> CSRMatrix:
    """``p`` with a row of ``values`` (in columns ``0, 1, ...``) inserted
    before row ``at``."""
    rows = [p.row(i) for i in range(p.shape[0])]
    rows.insert(at, (np.arange(len(values)), np.asarray(values, dtype=np.float64)))
    lengths = [len(cols) for cols, _ in rows]
    return CSRMatrix(
        np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        np.concatenate([cols for cols, _ in rows]).astype(np.int64),
        np.concatenate([vals for _, vals in rows]).astype(np.float64),
        (len(rows), max(p.shape[1], len(values))),
    )


@given(even_inputs(), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_one_uneven_row_keeps_the_prefix_path(args, data, seed):
    """Even rows plus one drawing row that holds a second weight: the
    check turns the ``P`` away and the prefix-sum body runs, bitwise."""
    p, s = args
    weight = data.draw(_EVEN)
    values = [weight] * (s + 1)
    values[data.draw(st.integers(0, s))] = 2 * weight
    p = _with_row(p, data.draw(st.integers(0, p.shape[0])), values)
    with _paths() as seen:
        got = _run(its_select_mask, p, s, seed)
    assert seen == [False]
    assert got == _run(reference_its.prefix_select_mask, p, s, seed)


def test_rows_too_light_for_the_sums_keep_the_prefix_path():
    """An even row whose weight the one prefix sum rounds away behind a
    heavier row: there the prefix path always draws the row's first entry,
    and the uniform path would not, so the check says no and the bits stay
    the prefix body's."""
    p = _tiled([[1e-9], [1.175494351e-38] * 2], 1)
    for seed in range(3):
        with _paths() as seen:
            got = _run(its_select_mask, p, 1, seed)
        assert seen == [False]
        assert got == _run(reference_its.prefix_select_mask, p, 1, seed)


def test_even_rows_on_the_zeroing_path_are_the_prefix_body():
    """``s`` one short of the widths: rows still short after the rejection
    rounds finish on step 4, as the prefix-sum body finishes them."""
    p = _tiled([[0.5] * 6, [1 / 7] * 7], 300)
    for seed in range(3):
        with _paths() as seen, _stragglers() as stragglers:
            got = _run(its_select_mask, p, 5, seed)
        assert seen == [True] and stragglers[0] > 0
        assert got == _run(reference_its.prefix_select_mask, p, 5, seed)


def test_the_uniform_path_allocates_nothing_the_size_of_p():
    """Even rows take no prefix sum: SAMPLE allocates less than one float64
    array of ``P``'s size, which the ``cumsum`` of a weighted ``P`` of the
    same shape alone reaches."""
    rng = np.random.default_rng(0)
    widths = rng.integers(50, 150, 2000)
    indptr = np.concatenate(([0], np.cumsum(widths)))
    indices = np.concatenate([np.arange(w) for w in widths])
    even = CSRMatrix(indptr, indices, np.repeat(1.0 / widths, widths), (2000, 150))
    weighted = CSRMatrix(indptr, indices, rng.uniform(0.5, 1.5, indptr[-1]), (2000, 150))

    def peak(p):
        tracemalloc.start()
        try:
            its_select_mask(p, 3, np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(even) < 8 * even.nnz <= peak(weighted)
