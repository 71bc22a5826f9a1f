"""Unit tests for how a plan runs (:mod:`repro.core.plan`): as emitted,
four step types, NORM in place, SAMPLE's selection as a mask.

Covered here: the dead-step analysis that keeps every shipped plan free of
dead steps (the retired pass, kept as an oracle in
``reference_interpreter.py``); the serving launch rule, where ``PROB,
NORM`` and ``SAMPLE, EXTRACT`` share a launch (the fusions the plan no
longer spells out, pinned to the fused programs' step counts); the
``describe()`` rendering; the in-place NORM — bit-equal to the copying one,
never a copy, safe wherever a plan puts it; the unit-selector row gather
inside the SpGEMM; and named plans (two EXTRACTs off one SAMPLE, a PROB
between SAMPLE and EXTRACT, NORMs that do not follow a PROB) against the
oracle.  The fuzzed surface lives in the golden suites and
``test_compile_differential.py``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import Communicator, ProcessGrid
from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
    batch_rng,
)
from repro.core.plan import (
    ExtractStep,
    LocalExecutor,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    compact_layer_from_mask,
    step_phase,
)
from repro.distributed.partitioned import (
    PartitionedExecutor,
    partitioned_bulk_sampling,
)
from repro.graphs import rmat
from repro.partition import BlockRows
from repro.serve.replica import kernel_launches
from repro.sparse import CSRMatrix, spgemm

from examples.custom_sampler import DegreeBiasedSampler
from reference_interpreter import (
    PlanSampler,
    ReferenceInterpreter,
    eliminate_dead_steps,
    reference_sample_bulk,
    sample,
)
from reference_spgemm import spgemm_esc, spgemm_hash, spgemm_sequential

# ``repro.sparse.spgemm`` the attribute is the function; this is the module.
spgemm_module = importlib.import_module("repro.sparse.spgemm")


def _graph(seed=0, scale=8, deg=6):
    return rmat(scale, deg, np.random.default_rng(seed))


def _batches(adj, k=3, size=12, seed=1):
    rng = np.random.default_rng(seed)
    return [
        rng.choice(adj.shape[0], size, replace=False) for _ in range(k)
    ]


def _layers_equal(a, b):
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.batch, mb.batch)
        assert len(ma.layers) == len(mb.layers)
        for la, lb in zip(ma.layers, mb.layers):
            assert la.adj.shape == lb.adj.shape
            assert np.array_equal(la.adj.indptr, lb.adj.indptr)
            assert np.array_equal(la.adj.indices, lb.adj.indices)
            assert np.array_equal(la.adj.data, lb.adj.data)
            assert np.array_equal(la.src_ids, lb.src_ids)
            assert np.array_equal(la.dst_ids, lb.dst_ids)


# --------------------------------------------------------------------- #
# Config surface: "compiled" is not a kernel any more (nor is anything
# but "esc")
# --------------------------------------------------------------------- #
def test_compiled_is_an_unknown_kernel_everywhere(tmp_path, capsys):
    """No special case: the retired name fails like any stale kernel, each
    path naming the one that exists."""
    from repro.api.config import RunConfig
    from repro.cli import main
    from repro.sparse import get_kernel

    with pytest.raises(ValueError, match="'esc' is the only"):
        get_kernel("compiled")
    with pytest.raises(ValueError, match="unknown kernel 'compiled'.*esc"):
        RunConfig(kernel="compiled")
    with pytest.raises(SystemExit) as exc:
        main(["train", "products", "--kernel", "compiled"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err
    path = tmp_path / "run.json"
    path.write_text(
        RunConfig(dataset="products").to_json().replace('"esc"', '"compiled"')
    )
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown kernel 'compiled'" in err and "'esc'" in err


# --------------------------------------------------------------------- #
# PROB, NORM: two steps, one launch
# --------------------------------------------------------------------- #
def test_fuse_prob_norm_on_sage_plan():
    """The plan spells out NORM; the launch rule charges it with the
    product it normalizes in place."""
    plan = SageSampler().plan((5, 3))
    assert [type(s) for s in plan.steps] == [
        ProbStep, NormStep, SampleStep, ExtractStep,
    ] * 2
    assert step_phase(plan.steps[0]) == "probability"
    assert kernel_launches(plan) == 4  # PROB+NORM, SAMPLE+EXTRACT per layer
    no_norm = SamplingPlan(
        tuple(s for s in plan.steps if type(s) is not NormStep)
    )
    assert kernel_launches(no_norm) == kernel_launches(plan)


def test_fuse_prob_norm_skips_non_adjacent():
    """Only a NORM right after its PROB shares the product's launch."""
    plan = SamplingPlan(
        (ProbStep("frontier"), SampleStep(4), ExtractStep("compact"))
    )
    assert kernel_launches(plan) == 2
    late_norm = SamplingPlan(
        (
            ProbStep("indicator"), SampleStep(4), NormStep(),
            ExtractStep("bipartite", debias=True),
        )
    )
    # NORM after SAMPLE is its own pass, and the EXTRACT no longer
    # follows the SAMPLE whose mask it reads.
    assert kernel_launches(late_norm) == 4


# --------------------------------------------------------------------- #
# SAMPLE, EXTRACT: two steps, one launch
# --------------------------------------------------------------------- #
def test_fuse_sample_extract_on_ladies_plan():
    plan = LadiesSampler().plan((16,))
    sample_step, extract = plan.steps[2:]
    assert sample_step.count == 16 and extract.kind == "bipartite"
    assert step_phase(sample_step) == "sampling"
    assert step_phase(extract) == "extraction"
    assert kernel_launches(plan) == 2


def test_fuse_sample_extract_rejects_subgraph():
    """A subgraph EXTRACT reads the walk history, not the sample: it is a
    launch of its own even right after a SAMPLE."""
    right_after = SamplingPlan(
        (
            ProbStep("frontier"),
            SampleStep(1),
            ExtractStep("subgraph", n_layers=2),
        )
    )
    assert kernel_launches(right_after) == 3
    after_walk = SamplingPlan(
        (
            ProbStep("frontier"),
            SampleStep(1),
            ExtractStep("walk"),
            ExtractStep("subgraph", n_layers=2),
        )
    )
    assert kernel_launches(after_walk) == 3


def test_fuse_sample_extract_fuses_first_of_two_extracts():
    # Two EXTRACTs share one SAMPLE: the first rides its launch, the second
    # reads the (P, mask) pair left behind in a launch of its own (executed
    # against the oracle in test_double_extract_after_one_sample).
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            NormStep(),
            SampleStep(4),
            ExtractStep("compact"),
            ExtractStep("compact"),
        )
    )
    assert kernel_launches(plan) == 3


def test_fuse_sample_extract_allows_q_rewrite_between():
    # Two SAMPLE, EXTRACT pairs in a row each share a launch.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            SampleStep(4),
            ExtractStep("compact"),
            ProbStep("frontier"),
            SampleStep(2),
            ExtractStep("compact"),
        )
    )
    assert kernel_launches(plan) == 4


def test_fastgcn_plan_has_no_norm_to_fuse():
    plan = FastGCNSampler().plan((8,))
    assert [type(s) for s in plan.steps] == [ProbStep, SampleStep, ExtractStep]
    assert kernel_launches(plan) == 2


#: Launches per (sampler, fanout) serving runs: the step counts of the
#: programs the retired PROB+NORM / SAMPLE+EXTRACT fusions made of these
#: plans at commit ``dcb2fd6``.  The serving clock charges these, so a
#: moved count moves every simulated serving latency.
FUSED_STEP_COUNTS = {
    ("sage", (None,)): 2,
    ("sage", (None, None)): 4,
    ("sage", (None, None, None)): 6,
    ("sage", (4, 3)): 4,
    ("sage", (5, 3)): 4,
    ("sage", (10, 5)): 4,
    ("sage", (15, 10, 5)): 6,
    ("ladies", (32,)): 2,
    ("ladies", (4, 3)): 4,
    ("ladies", (64, 64, 64)): 6,
    ("ladies-debias", (16, 16)): 4,
    ("fastgcn", (32,)): 2,
    ("fastgcn", (4, 3)): 4,
    ("saint-1", (3, 3)): 3,
    ("saint", (4, 3)): 7,
    ("saint", (4,)): 7,
    ("degree-biased", (10, 5)): 4,
}

_LAUNCH_SAMPLERS = {
    "sage": lambda: SageSampler(include_dst=True),
    "ladies": lambda: LadiesSampler(include_dst=True),
    "ladies-debias": lambda: LadiesSampler(debias=True),
    "fastgcn": lambda: FastGCNSampler(include_dst=True),
    "saint-1": lambda: GraphSaintRWSampler(walk_length=1),
    "saint": lambda: GraphSaintRWSampler(walk_length=3),
    "degree-biased": lambda: DegreeBiasedSampler(np.ones(8)),
}


@pytest.mark.parametrize(
    "name,fanout", list(FUSED_STEP_COUNTS), ids=lambda v: str(v)
)
def test_launch_count_is_pinned(name, fanout):
    plan = _LAUNCH_SAMPLERS[name]().emitted_plan(fanout)
    assert kernel_launches(plan) == FUSED_STEP_COUNTS[name, fanout]


# --------------------------------------------------------------------- #
# Dead steps (the retired pass, as the oracle of what a dead step is)
# --------------------------------------------------------------------- #
def test_dse_removes_overwritten_prob_and_norm():
    plan = SamplingPlan(
        (
            ProbStep("indicator"),
            NormStep(),  # dead: P overwritten before any reader
            ProbStep("indicator"),
            NormStep(),
            SampleStep(4),
            ExtractStep("bipartite"),
        )
    )
    out = eliminate_dead_steps(plan)
    assert len(out.steps) == 4
    assert isinstance(out.steps[0], ProbStep)
    assert isinstance(out.steps[1], NormStep)


def test_dse_never_removes_sample():
    # SAMPLE consumes RNG: even a sampled Q nobody extracts must stay.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            SampleStep(4),
            ProbStep("frontier"),
            SampleStep(2),
            ExtractStep("compact"),
        )
    )
    out = eliminate_dead_steps(plan)
    assert sum(isinstance(s, SampleStep) for s in out.steps) == 2


def test_dse_keeps_norm_read_by_debias():
    plan = SamplingPlan(
        (
            ProbStep("indicator"),
            NormStep(),
            SampleStep(4),
            ExtractStep("bipartite", debias=True),
        )
    )
    assert eliminate_dead_steps(plan).steps == plan.steps


def test_dse_removes_trailing_dead_norm():
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            NormStep(),
            SampleStep(4),
            ExtractStep("compact"),
            NormStep(),  # trailing: nothing reads P again
        )
    )
    out = eliminate_dead_steps(plan)
    assert len(out.steps) == 4
    assert not isinstance(out.steps[-1], NormStep)


def test_dse_frontier_guard_keeps_prob_before_walk():
    # frontier-source PROB also records the walk frontier, which a
    # non-frontier PROB does not rewrite (locally or on the grid: one
    # executor runs both): it stays live if a walk extraction can still
    # read it.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            ProbStep("indicator"),
            SampleStep(1),
            ExtractStep("walk"),
        )
    )
    assert eliminate_dead_steps(plan).steps == plan.steps
    # Without a walk reader the first PROB really is dead.
    no_walk = SamplingPlan(
        (
            ProbStep("frontier"),
            ProbStep("indicator"),
            SampleStep(4),
            ExtractStep("bipartite"),
        )
    )
    assert len(eliminate_dead_steps(no_walk).steps) == 3


def test_dse_fixpoint_cascades():
    plan = SamplingPlan(
        (
            ProbStep("indicator"),
            NormStep(),
            NormStep(),
            ProbStep("indicator"),
            NormStep(),
            SampleStep(4),
            ExtractStep("bipartite"),
        )
    )
    out = eliminate_dead_steps(plan)
    assert len(out.steps) == 4


def test_dse_preserves_stock_plans():
    """Plans run as emitted, so a dead step in a shipped sampler's plan
    would be paid on every bulk: every built-in (each flag that changes its
    plan) and the example plugin emit none."""
    for sampler, fanouts in [
        (SageSampler(), [(5, 3), (None, None)]),
        (SageSampler(include_dst=False), [(5,)]),
        (LadiesSampler(), [(16,), (8, 8)]),
        (LadiesSampler(debias=True), [(16, 16)]),
        (LadiesSampler(include_dst=True), [(16,)]),
        (FastGCNSampler(), [(16,), (8, 8)]),
        (GraphSaintRWSampler(walk_length=3), [(3, 3)]),
        (DegreeBiasedSampler(np.ones(8)), [(10, 5)]),
    ]:
        for fanout in fanouts:
            plan = sampler.plan(fanout)
            assert eliminate_dead_steps(plan).steps == plan.steps, (
                f"{type(sampler).__name__}.plan({fanout}) emits a dead step "
                f"(its output is overwritten before any step reads it); "
                f"drop it from that sampler's plan():\n{plan.describe()}"
            )


# --------------------------------------------------------------------- #
# describe() rendering
# --------------------------------------------------------------------- #
def test_describe_renders_four_steps_per_layer():
    text = SageSampler().plan((5, 3)).describe()
    assert text.splitlines() == [
        "probability  PROB(frontier)",
        "sampling     NORM()",
        "sampling     SAMPLE(s=5)",
        "extraction   EXTRACT(compact)",
        "probability  PROB(frontier)",
        "sampling     NORM()",
        "sampling     SAMPLE(s=3)",
        "extraction   EXTRACT(compact)",
    ]


def test_describe_saint_keeps_subgraph_interpreted():
    plan = GraphSaintRWSampler(walk_length=2).plan((4,))
    lines = plan.describe().splitlines()
    assert lines[:4] == [
        "probability  PROB(frontier)",
        "sampling     NORM()",
        "sampling     SAMPLE(s=1)",
        "extraction   EXTRACT(walk)",
    ]
    assert lines[-1] == "extraction   EXTRACT(subgraph, n_layers=1)"
    assert kernel_launches(plan) == 2 * 2 + 1  # the subgraph is its own


# --------------------------------------------------------------------- #
# In-place NORM bit-equality
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "sampler", [SageSampler(), LadiesSampler()], ids=["sage", "ladies"]
)
def test_norm_inplace_matches_norm(sampler):
    adj = _graph()
    p = spgemm(
        SageSampler.make_q(np.arange(40, dtype=np.int64), adj.shape[0]),
        adj,
    )
    expected = sampler.norm(p)
    got = sampler.norm_inplace(
        type(p)(p.indptr.copy(), p.indices.copy(), p.data.copy(), p.shape)
    )
    assert np.array_equal(expected.indptr, got.indptr)
    assert np.array_equal(expected.indices, got.indices)
    assert np.array_equal(expected.data, got.data)


def test_overriding_norm_alone_drops_the_inherited_inplace_norm():
    """An in-place NORM belongs to the ``norm`` it was written with: the
    example plugin overrides GraphSAGE's ``norm`` only, and its weighting
    must be what runs (it once ran GraphSAGE's in-place divide instead)."""
    adj = _graph()
    degrees = adj.nnz_per_row()
    biased = DegreeBiasedSampler(degrees)
    p = spgemm(SageSampler.make_q(np.arange(40), adj.shape[0]), adj)
    want = biased.norm(p)
    assert biased.norm_inplace(p.copy()).equal(want, 0.0)
    assert not SageSampler().norm(p).equal(want, 1e-12)
    batches = _batches(adj, k=2)
    got = biased.sample_bulk(adj, batches, (4,), np.random.default_rng(1))
    _layers_equal(
        reference_sample_bulk(
            biased, adj, batches, (4,), np.random.default_rng(1)
        ),
        got,
    )


def _record_norms(executor, seen: list) -> None:
    """Make ``executor`` append, after each NORM it runs, whether its ``P``
    is still the very matrix the NORM was handed."""
    dispatch = executor._dispatch

    def spy(step):
        before = executor.p
        dispatch(step)
        if isinstance(step, NormStep):
            seen.append(executor.p is before)

    executor._dispatch = spy


NORM_CASES = {
    "sage": (lambda: SageSampler(), (5, 3)),
    "ladies-debias": (lambda: LadiesSampler(debias=True), (16, 8)),
    "norm-after-sample": (
        lambda: PlanSampler(
            [
                ProbStep("indicator"), SampleStep(6), NormStep(),
                ExtractStep("bipartite", debias=True),
            ],
            norm_mode="ladies",
        ),
        (1,),
    ),
}


@pytest.mark.parametrize("name", list(NORM_CASES))
def test_norm_never_copies(name):
    """``P`` after NORM is the matrix PROB produced — in the local executor
    and in every grid row's executor — so a NORM that dispatched to the
    copying ``norm`` fails here."""
    factory, fanout = NORM_CASES[name]
    sampler = factory()
    plan = sampler.emitted_plan(fanout)
    adj = _graph(seed=5)
    batches = _batches(adj, k=4)
    seen: list[bool] = []
    local = LocalExecutor(
        sampler, adj, batches, [batch_rng(3, i) for i in range(4)], spgemm
    )
    _record_norms(local, seen)
    local.run(plan)
    grid = ProcessGrid(4, 2)
    part = PartitionedExecutor(
        Communicator(4), grid, sampler,
        BlockRows.partition(adj, grid.n_rows), batches, 3,
    )
    for executor in part.executors.values():
        _record_norms(executor, seen)
    part.run(plan)
    norms = sum(isinstance(s, NormStep) for s in plan.steps)
    assert len(seen) == norms * (1 + len(part.executors)) > 0
    assert all(seen)


# --------------------------------------------------------------------- #
# Mask kernels
# --------------------------------------------------------------------- #
def test_compact_layer_from_mask_matches_extract_batch_layer():
    adj = _graph()
    dst = np.arange(20, dtype=np.int64)
    # The scratch table is never cleared between batches: stale slots
    # (here, garbage and then the previous call's ranks) must not leak.
    col_rank = np.full(adj.shape[0], -7, dtype=np.int64)
    for include_dst in (True, False):
        sampler = SageSampler(include_dst=include_dst)
        p = sampler.norm(spgemm(sampler.make_q(dst, adj.shape[0]), adj))
        sel = sampler.sample_mask(p, 3, np.random.default_rng(5))
        q_next = sample(sampler, p, 3, np.random.default_rng(5))
        want = sampler.extract_batch_layer(q_next, dst)
        got = compact_layer_from_mask(
            p, sel, 0, p.shape[0], dst, include_dst=include_dst,
            col_rank=col_rank,
        )
        assert want.adj.shape == got.adj.shape
        assert np.array_equal(want.adj.indptr, got.adj.indptr)
        assert np.array_equal(want.adj.indices, got.adj.indices)
        assert np.array_equal(want.adj.data, got.adj.data)
        assert np.array_equal(want.src_ids, got.src_ids)
        assert np.array_equal(want.dst_ids, got.dst_ids)


# --------------------------------------------------------------------- #
# The unit-selector row gather inside spgemm
# --------------------------------------------------------------------- #
def _general_path(a, b, monkeypatch):
    """``spgemm(a, b)`` with the selector shortcut switched off."""
    with monkeypatch.context() as m:
        m.setattr(spgemm_module, "_is_unit_row_selector", lambda a: False)
        return spgemm(a, b)


def _same_bytes(x, y):
    return (
        x.shape == y.shape
        and x.indptr.tobytes() == y.indptr.tobytes()
        and x.indices.tobytes() == y.indices.tobytes()
        and x.data.tobytes() == y.data.tobytes()
    )


def test_selector_aware_spgemm_gather_is_bit_identical(monkeypatch):
    """A unit row selector on the left turns SpGEMM into a row gather with
    the general path's exact bytes — on duplicate and out-of-order source
    rows, empty source rows and explicit zeros in ``b``, which both paths
    drop — and scipy's product is never called."""
    adj = _graph()
    n = adj.shape[0]
    empty_rows = np.flatnonzero(adj.nnz_per_row() == 0)
    assert empty_rows.size  # R-MAT leaves isolated vertices
    rng = np.random.default_rng(9)
    data = adj.data.copy()
    data[rng.choice(adj.nnz, adj.nnz // 5, replace=False)] = 0.0
    with_zeros = CSRMatrix(adj.indptr, adj.indices, data, adj.shape)
    rows = np.concatenate(
        [
            rng.choice(n, 50, replace=True),  # duplicates, any order
            empty_rows[:3],
            np.arange(n)[::-1][:20],  # strictly descending
        ]
    )
    q = SageSampler.make_q(rows, n)
    for b in (adj, with_zeros):
        want = _general_path(q, b, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(
                CSRMatrix, "to_scipy",
                lambda self: pytest.fail("general path ran on a selector"),
            )
            got = spgemm(q, b)
        assert _same_bytes(want, got)
        assert _same_bytes(got, b.extract_rows(rows).prune_zeros())
    assert spgemm(q, with_zeros).nnz < adj.extract_rows(rows).nnz
    # Selecting only empty rows gives the empty product either way.
    only_empty = SageSampler.make_q(empty_rows[:4], n)
    assert _same_bytes(
        _general_path(only_empty, adj, monkeypatch), spgemm(only_empty, adj)
    )


def test_selector_aware_spgemm_falls_through_for_non_selectors(monkeypatch):
    """Indicator rows (multi-entry), weighted selectors and selectors with
    an empty row must take the general path — the gather is only exact
    for unit single-entry rows."""
    adj = _graph()
    n = adj.shape[0]
    q_sel = SageSampler.make_q(np.arange(10), n)
    weighted = CSRMatrix(q_sel.indptr, q_sel.indices, q_sel.data * 2.0, q_sel.shape)
    one_empty_row = CSRMatrix(
        np.concatenate([q_sel.indptr, [q_sel.indptr[-1]]]),
        q_sel.indices, q_sel.data, (11, n),
    )
    two_in_one_row = CSRMatrix(
        np.array([0, 2, 2]), np.array([3, 5]), np.ones(2), (2, n)
    )
    for q in (
        LadiesSampler.make_q(_batches(adj), n), weighted, one_empty_row,
        two_in_one_row,
    ):
        viewed = []
        real_to_scipy = CSRMatrix.to_scipy
        with monkeypatch.context() as m:
            m.setattr(
                CSRMatrix, "to_scipy",
                lambda self: viewed.append(self) or real_to_scipy(self),
            )
            out = spgemm(q, adj)
        assert viewed == [q, adj]
        assert out.equal(spgemm_esc(q, adj), 0.0)
        assert _same_bytes(out, spgemm_hash(q, adj))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), n_picks=st.integers(0, 30))
def test_one_zero_rule_for_both_spgemm_paths(seed, n_picks):
    """Stored ``0.0`` / ``-0.0`` weights, and ``+w`` / ``-w`` entries
    that cancel in a multi-entry row of ``Q``: the gather (GraphSAGE's unit
    selector) and the general path (LADIES' indicator rows) both return the
    contract's left-to-right sums with every exact zero absent."""
    n = 24
    rng = np.random.default_rng(seed)
    present = rng.random((n, n)) < 0.3
    weights = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 0.75], size=(n, n))
    rows, cols = np.nonzero(present)
    b = CSRMatrix(
        np.concatenate(([0], np.cumsum(present.sum(axis=1)))), cols,
        weights[rows, cols], (n, n),
    )
    q = SageSampler.make_q(rng.integers(0, n, n_picks), n)
    q_l = LadiesSampler.make_q(
        [rng.choice(n, 6, replace=False) for _ in range(3)], n
    )
    for a in (q, q_l):
        got = spgemm(a, b)
        got.check()
        assert _same_bytes(got, spgemm_sequential(a, b).prune_zeros())
        assert (got.data != 0).all()


# --------------------------------------------------------------------- #
# Named plans against the oracle
# --------------------------------------------------------------------- #
def _assert_executors_match_oracle(sampler, adj, batches, seed=11):
    """Oracle == LocalExecutor and PartitionedExecutor on a (4, 2) grid."""
    plan = sampler.plan((1,))
    k = len(batches)
    grid = ProcessGrid(4, 2)
    blocks = BlockRows.partition(adj, grid.n_rows)
    want = ReferenceInterpreter(
        sampler, adj, batches, [batch_rng(seed, i) for i in range(k)], spgemm,
    ).run(plan)
    local = LocalExecutor(
        sampler, adj, batches, [batch_rng(seed, i) for i in range(k)], spgemm,
    ).run(plan)
    _layers_equal(want, local)
    part = PartitionedExecutor(
        Communicator(4), grid, sampler, blocks, batches, seed,
    ).run(plan)
    _layers_equal(want, part)


def test_double_extract_after_one_sample():
    """Two walk advances read one SAMPLE: the second reads the (P, mask)
    pair the first left behind.  (Two *compact* extractions off one SAMPLE
    are not a meaningful program: the second would pair new destinations
    with old row bounds.)"""
    steps = [
        ProbStep("frontier"), NormStep(), SampleStep(1),
        ExtractStep("walk"), ExtractStep("walk"),
        ExtractStep("subgraph", n_layers=2),
    ]
    sampler = PlanSampler(steps, include_dst=True)
    # The first advance rides SAMPLE's launch; the second and the
    # subgraph are launches of their own.
    assert kernel_launches(sampler.plan((1,))) == 4
    adj = _graph(seed=5)
    _assert_executors_match_oracle(sampler, adj, _batches(adj, k=4))


@pytest.mark.parametrize("debias", [False, True])
def test_prob_between_sample_and_extract(debias):
    """A PROB after SAMPLE replaces the current P (here with one of a
    different sparsity structure): EXTRACT still reads the sample out of
    the P it was drawn from, and debiasing reads the current one."""
    steps = [
        ProbStep("indicator"), NormStep(), SampleStep(6),
        ProbStep("global"), ExtractStep("bipartite", debias=debias),
    ]
    sampler = PlanSampler(steps, norm_mode="ladies")
    adj = _graph(seed=5)
    _assert_executors_match_oracle(sampler, adj, _batches(adj, k=4))


@pytest.mark.parametrize(
    "steps,norm_mode",
    [
        (
            [
                ProbStep("indicator"), SampleStep(6), NormStep(),
                ExtractStep("bipartite", debias=True),
            ],
            "ladies",
        ),
        (
            [
                ProbStep("frontier"), NormStep(), NormStep(), SampleStep(3),
                ExtractStep("compact"),
            ],
            "sage",
        ),
        (
            [
                ProbStep("indicator"), NormStep(), NormStep(), SampleStep(6),
                ExtractStep("bipartite", debias=True),
            ],
            "ladies",
        ),
    ],
    ids=["norm-after-sample-debias", "norm-twice", "ladies-norm-twice"],
)
def test_norm_not_after_prob_matches_oracle(steps, norm_mode):
    """NORM normalizes in place wherever a plan puts it: after SAMPLE (the
    mask and EXTRACT read only ``P``'s structure, debiasing reads the
    normalized values) or on its own output (LADIES squares twice)."""
    sampler = PlanSampler(steps, norm_mode=norm_mode)
    adj = _graph(seed=5)
    _assert_executors_match_oracle(sampler, adj, _batches(adj, k=4))


# --------------------------------------------------------------------- #
# End-to-end: the executors == the oracle on the stock samplers (spot
# check; the golden and differential suites are the full surface)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "factory,fanout",
    [
        (lambda: SageSampler(), (5, 3)),
        (lambda: SageSampler(include_dst=False), (5, 3)),
        (lambda: LadiesSampler(), (16,)),
        (lambda: LadiesSampler(debias=True), (16,)),
        (lambda: LadiesSampler(include_dst=True), (16,)),
        (lambda: FastGCNSampler(), (16,)),
        (lambda: GraphSaintRWSampler(walk_length=3), (3, 3)),
    ],
    ids=[
        "sage", "sage-nodst", "ladies", "ladies-debias", "ladies-dst",
        "fastgcn", "saint",
    ],
)
def test_compiled_local_matches_interpreted(factory, fanout):
    adj = _graph(seed=3)
    batches = _batches(adj, k=4)
    want = reference_sample_bulk(
        factory(), adj, batches, fanout, np.random.default_rng(11)
    )
    got = factory().sample_bulk(
        adj, batches, fanout, np.random.default_rng(11)
    )
    _layers_equal(want, got)


def test_compiled_partitioned_matches_interpreted():
    adj = _graph(seed=3)
    batches = _batches(adj, k=4)
    grid = ProcessGrid(2, 2)
    blocks = BlockRows.partition(adj, grid.n_rows)
    want = reference_sample_bulk(
        SageSampler(), adj, batches, (5, 3),
        [batch_rng(7, i) for i in range(len(batches))],
    )
    got, _ = partitioned_bulk_sampling(
        Communicator(2), grid, SageSampler(), blocks, batches, (5, 3), seed=7,
    )
    _layers_equal(want, got)
