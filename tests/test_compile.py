"""Unit tests for how a plan runs (:mod:`repro.core.plan`): as emitted,
four step types, NORM in place, SAMPLE's selection as a mask.

Covered here: the dead-step analysis that keeps every shipped plan free of
dead steps (the retired pass, kept as an oracle in
``reference_interpreter.py``); the serving launch rule, where ``PROB,
NORM`` and ``SAMPLE, EXTRACT`` share a launch (the fusions the plan no
longer spells out, pinned to the fused programs' step counts); the
``describe()`` rendering; the in-place NORM — bit-equal to the copying one,
never a copy, safe wherever a plan puts it; EXTRACT's mark-table frontier
compaction, bitwise the retired ``np.unique`` body (kept here as an
oracle) and never calling it; the unit-selector row gather inside the
SpGEMM; and named plans (two EXTRACTs off one SAMPLE, a PROB
between SAMPLE and EXTRACT, NORMs that do not follow a PROB) against the
oracle.  The fuzzed surface lives in the golden suites and
``test_compile_differential.py``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.comm import Communicator, ProcessGrid
from repro.core import (
    FastGCNSampler,
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
    _block_selection,
    compact_layer_from_mask,
    step_phase,
)
from repro.core.frontier import LayerSample
from repro.core.its import its_sample_rows
from repro.distributed.partitioned import (
    PartitionedExecutor,
    partitioned_bulk_sampling,
)
from repro.graphs import rmat
from repro.partition import BlockRows
from repro.serve.replica import kernel_launches
from repro.sparse import CSRMatrix, col_selector, spgemm

from examples.custom_sampler import DegreeBiasedSampler
from reference_interpreter import (
    PlanSampler,
    ReferenceInterpreter,
    eliminate_dead_steps,
    reference_norm,
    reference_sample_bulk,
)
from reference_sparse import spgemm_scipy
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
#: moved count moves every simulated serving latency.  A ``None`` fanout is
#: exact serving, which runs no plan: its cells pin the gather's launches
#: (row gather + compaction per hop), the count its keep-all plan had.
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
    ("degree-biased", (10, 5)): 4,
}

_LAUNCH_SAMPLERS = {
    "sage": lambda: SageSampler(include_dst=True),
    "ladies": lambda: LadiesSampler(include_dst=True),
    "ladies-debias": lambda: LadiesSampler(debias=True),
    "fastgcn": lambda: FastGCNSampler(include_dst=True),
    "degree-biased": lambda: DegreeBiasedSampler(np.ones(8)),
}


@pytest.mark.parametrize(
    "name,fanout", list(FUSED_STEP_COUNTS), ids=lambda v: str(v)
)
def test_launch_count_is_pinned(name, fanout):
    if None in fanout:
        launches = _exact_serving_launches(len(fanout))
    else:
        plan = _LAUNCH_SAMPLERS[name]().emitted_plan(fanout)
        launches = kernel_launches(plan)
    assert launches == FUSED_STEP_COUNTS[name, fanout]


def _exact_serving_launches(n_layers: int) -> int:
    """The kernel launches an exact replica charges for one uncached
    neighbourhood build of an ``n_layers``-deep model."""
    from repro.api import RunConfig
    from repro.gnn import GNNModel
    from repro.graphs import Graph
    from repro.serve.replica import Replica

    adj = _graph()
    rng = np.random.default_rng(0)
    graph = Graph("launches", adj, features=rng.random((adj.shape[0], 4)))
    model = GNNModel(4, 4, 3, n_layers, rng)
    replica = Replica(model, graph, RunConfig(embed_budget=0.0))
    charged = []
    compute = replica.cost.compute

    def record(**work):
        charged.append(work["kernels"])
        return compute(**work)

    replica.cost.compute = record
    replica.logits_for(np.arange(5), rng)
    return charged[0]  # sampling is charged first, in one call


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


def test_dse_removes_prob_overwritten_by_another_source():
    # A frontier-source PROB followed by an indicator-source one: the
    # second overwrites P and the bounds, and nothing reads the first.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            ProbStep("indicator"),
            SampleStep(4),
            ExtractStep("bipartite"),
        )
    )
    assert eliminate_dead_steps(plan).steps == plan.steps[1:]


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
        (SageSampler(), [(5, 3)]),
        (SageSampler(include_dst=False), [(5,)]),
        (LadiesSampler(), [(16,), (8, 8)]),
        (LadiesSampler(debias=True), [(16, 16)]),
        (LadiesSampler(include_dst=True), [(16,)]),
        (FastGCNSampler(), [(16,), (8, 8)]),
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


# --------------------------------------------------------------------- #
# In-place NORM bit-equality
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "sampler", [SageSampler(), LadiesSampler()], ids=["sage", "ladies"]
)
def test_norm_inplace_matches_norm(sampler):
    """The one, in-place ``norm`` gives the retired copying body's bits."""
    adj = _graph()
    p = spgemm(
        SageSampler.make_q(np.arange(40, dtype=np.int64), adj.shape[0]),
        adj,
    )
    expected = reference_norm(sampler, p)
    got = sampler.norm(
        type(p)(p.indptr.copy(), p.indices.copy(), p.data.copy(), p.shape)
    )
    assert np.array_equal(expected.indptr, got.indptr)
    assert np.array_equal(expected.indices, got.indices)
    assert np.array_equal(expected.data, got.data)


def test_overriding_norm_alone_drops_the_inherited_inplace_norm():
    """A sampler has one ``norm``: the example plugin overrides GraphSAGE's,
    and its weighting must be what the executor runs (it once ran
    GraphSAGE's inherited in-place divide instead)."""
    adj = _graph()
    degrees = adj.nnz_per_row()
    biased = DegreeBiasedSampler(degrees)
    p = spgemm(SageSampler.make_q(np.arange(40), adj.shape[0]), adj)
    want = biased.norm(p)
    assert not SageSampler().norm(p.copy()).equal(want, 1e-12)
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
    and in every grid row's executor — so a ``norm`` that copied fails
    here."""
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
        q_next = its_sample_rows(p, 3, np.random.default_rng(5))
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


def unique_compact_layer_from_mask(
    p, sel, lo, hi, dst_ids, *, include_dst, col_rank
):
    """The pre-mark-table ``compact_layer_from_mask`` (oracle; do not
    optimize): the frontier is ``np.unique`` of the selected columns."""
    indptr, cols = _block_selection(p, sel, lo, hi)
    # One sort serves both the frontier and the renumbering: ``src`` is the
    # sorted union, so a kept column's new id is its position in it.
    src = np.unique(np.concatenate((cols, dst_ids)) if include_dst else cols)
    col_rank[src] = np.arange(src.size)
    adj = CSRMatrix(
        indptr, col_rank[cols], np.ones(cols.size), (hi - lo, int(src.size))
    )
    return LayerSample(adj, src, dst_ids)


@st.composite
def _compaction_cases(draw):
    """``(p, sel, lo, hi, dst_ids, include_dst)``: random or single-column
    ``p`` (every selected column the same), random / empty / full
    selections, any ``[lo, hi)`` block, and ``dst_ids`` drawn at random,
    from outside the block's selected columns or from inside them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows, n = draw(st.integers(1, 10)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        dense = rng.random((rows, n)) * (rng.random((rows, n)) < 0.3)
    else:
        dense = np.zeros((rows, n))
        dense[rng.random(rows) < 0.8, rng.integers(n)] = 0.5
    p = CSRMatrix.from_dense(dense)
    sel = {
        "random": rng.random(p.nnz) < 0.5,
        "empty": np.zeros(p.nnz, dtype=bool),
        "full": np.ones(p.nnz, dtype=bool),
    }[draw(st.sampled_from(["random", "empty", "full"]))]
    lo = draw(st.integers(0, rows))
    hi = draw(st.integers(lo, rows))
    picked = np.unique(_block_selection(p, sel, lo, hi)[1])
    pool = {
        "random": np.arange(n),
        "disjoint": np.setdiff1d(np.arange(n), picked),
        "selected": picked,
    }[draw(st.sampled_from(["random", "disjoint", "selected"]))]
    if pool.size == 0:
        pool = np.arange(n)
    # One destination per block row, as ``LayerSample`` requires.
    dst_ids = rng.choice(pool, hi - lo, replace=pool.size < hi - lo)
    return p, sel, lo, hi, dst_ids.astype(np.int64), draw(st.booleans())


def _compact(fn, p, sel, lo, hi, dst_ids, include_dst):
    return fn(p, sel, lo, hi, dst_ids, include_dst=include_dst,
              col_rank=np.full(p.shape[1], -7, dtype=np.int64))


def _assert_same_layer(got, want):
    """``src_ids`` in values and dtype, the renumbered block by bytes."""
    assert got.src_ids.dtype == want.src_ids.dtype == np.int64
    assert got.src_ids.tobytes() == want.src_ids.tobytes()
    assert _same_bytes(got.adj, want.adj)
    assert got.dst_ids.tobytes() == want.dst_ids.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_compaction_cases())
def test_mark_table_compaction_matches_unique_oracle(case):
    """The mark-table frontier is bitwise the retired ``np.unique`` one."""
    _assert_same_layer(
        _compact(compact_layer_from_mask, *case),
        _compact(unique_compact_layer_from_mask, *case),
    )


def test_mark_table_compaction_middle_block():
    """A ``[lo, hi)`` block in the middle of a stacked ``P``, with ``dst_ids``
    outside, among and on both sides of the block's selected columns."""
    rng = np.random.default_rng(4)
    p = CSRMatrix.from_dense(rng.random((9, 12)) * (rng.random((9, 12)) < 0.4))
    sel = rng.random(p.nnz) < 0.6
    picked = np.unique(_block_selection(p, sel, 3, 6)[1])
    outside = np.setdiff1d(np.arange(12), picked)
    assert picked.size >= 3 and outside.size >= 3
    mixed = np.array([outside[0], picked[-1], outside[1]])
    for dst_ids in (outside[:3], picked[::-1][:3], mixed):
        for include_dst in (True, False):
            case = (p, sel, 3, 6, dst_ids, include_dst)
            _assert_same_layer(
                _compact(compact_layer_from_mask, *case),
                _compact(unique_compact_layer_from_mask, *case),
            )


def test_compaction_does_not_call_unique(monkeypatch):
    """EXTRACT's frontier is read off a mark table: no hash set, no sort."""
    adj = _graph()
    dst = np.arange(20, dtype=np.int64)
    p = SageSampler().norm(spgemm(SageSampler.make_q(dst, adj.shape[0]), adj))
    sel = SageSampler().sample_mask(p, 3, np.random.default_rng(5))
    cases = [(p, sel, 0, p.shape[0], dst, flag) for flag in (True, False)]
    want = [_compact(unique_compact_layer_from_mask, *case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    for case, w in zip(cases, want):
        _assert_same_layer(_compact(compact_layer_from_mask, *case), w)


# --------------------------------------------------------------------- #
# The unit-selector gathers inside spgemm
# --------------------------------------------------------------------- #
def _general_path(a, b, monkeypatch):
    """``spgemm(a, b)`` with both gather shortcuts switched off."""
    with monkeypatch.context() as m:
        m.setattr(spgemm_module, "_is_row_gather", lambda a: False)
        m.setattr(spgemm_module, "_is_column_selector", lambda b: False)
        return spgemm(a, b)


def _gathered(a, b, monkeypatch):
    """``spgemm(a, b)``, failing if the general path (``csr_matmat``) runs."""
    with monkeypatch.context() as m:
        m.setattr(
            spgemm_module, "csr_matmat",
            lambda *args: pytest.fail("general path ran on a selector"),
        )
        return spgemm(a, b)


def _general_calls(a, b, monkeypatch):
    """``spgemm(a, b)`` and the operand ``indptr`` pairs ``csr_matmat``
    was called with."""
    calls = []
    real = spgemm_module.csr_matmat

    def spy(*args):
        calls.append((args[2], args[5]))
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(spgemm_module, "csr_matmat", spy)
        out = spgemm(a, b)
    return out, calls


def _same_bytes(x, y):
    return (
        x.shape == y.shape
        and x.indptr.tobytes() == y.indptr.tobytes()
        and x.indices.tobytes() == y.indices.tobytes()
        and x.data.tobytes() == y.data.tobytes()
    )


def _with_zeros(m, seed=9):
    """``m`` with a fifth of its stored values set to ``0.0`` or ``-0.0``."""
    rng = np.random.default_rng(seed)
    data = m.data.copy()
    data[rng.choice(m.nnz, m.nnz // 5, replace=False)] = rng.choice(
        [0.0, -0.0], m.nnz // 5
    )
    return CSRMatrix(m.indptr, m.indices, data, m.shape)


def _skipping_selector(sources, out_cols, n_out, n):
    """A unit column selector whose ``k``-th entry is ``(sources[k],
    out_cols[k])``: both strictly increasing, ``out_cols`` free to skip
    output columns."""
    counts = np.zeros(n, dtype=np.int64)
    counts[sources] = 1
    return CSRMatrix(
        np.concatenate(([0], np.cumsum(counts))), out_cols,
        np.ones(len(sources)), (n, n_out),
    )


def test_selector_aware_spgemm_gather_is_bit_identical(monkeypatch):
    """A unit row selector on the left turns SpGEMM into a row gather with
    the general path's exact bytes — on duplicate and out-of-order source
    rows, empty source rows and explicit zeros in ``b``, which both paths
    drop — and ``csr_matmat`` is never called."""
    adj = _graph()
    n = adj.shape[0]
    empty_rows = np.flatnonzero(adj.nnz_per_row() == 0)
    assert empty_rows.size  # R-MAT leaves isolated vertices
    rng = np.random.default_rng(9)
    with_zeros = _with_zeros(adj)
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
        got = _gathered(q, b, monkeypatch)
        assert _same_bytes(want, got)
        assert _same_bytes(got, b.extract_rows(rows).prune_zeros())
    assert spgemm(q, with_zeros).nnz < adj.extract_rows(rows).nnz
    # Selecting only empty rows gives the empty product either way.
    only_empty = SageSampler.make_q(empty_rows[:4], n)
    assert _same_bytes(
        _general_path(only_empty, adj, monkeypatch), spgemm(only_empty, adj)
    )


def test_selector_aware_spgemm_column_gather_is_bit_identical(monkeypatch):
    """A unit column selector on the right (LADIES' ``Q_C`` of sorted
    distinct ids) turns SpGEMM into a column gather with the general path's
    exact bytes — on a row-extracted ``A_R`` with duplicate and empty rows,
    empty selected columns, selectors that skip output columns and stored
    zeros in ``a``, which both paths drop — and ``csr_matmat`` is never
    called."""
    adj = _graph()
    n = adj.shape[0]
    empty_cols = np.setdiff1d(np.arange(n), adj.indices)
    assert empty_cols.size
    rng = np.random.default_rng(10)
    rows = np.concatenate([rng.choice(n, 60, replace=True),
                           np.flatnonzero(adj.nnz_per_row() == 0)[:3]])
    a_r = LadiesSampler.row_extract(adj, [rows])
    picked = np.unique(np.concatenate([rng.choice(n, 40), empty_cols[:3]]))
    every_other = picked[::2]
    selectors = [
        col_selector(picked, n),
        # Output columns 1, 4, 7, ...: the k-th entry lands in column 3k + 1.
        _skipping_selector(every_other, 3 * np.arange(every_other.size) + 1,
                           3 * every_other.size + 1, n),
    ]
    for a in (a_r, _with_zeros(a_r)):
        for q_c in selectors:
            assert spgemm_module._is_column_selector(q_c)
            want = _general_path(a, q_c, monkeypatch)
            got = _gathered(a, q_c, monkeypatch)
            got.check()
            assert _same_bytes(want, got)
            assert _same_bytes(got, spgemm_scipy(a, q_c))
            assert not (got.data == 0).any()
    assert _same_bytes(
        spgemm(a_r, selectors[0]),
        CSRMatrix.from_dense(a_r.to_dense()[:, picked]),
    )
    # Selecting only empty columns gives the empty product either way.
    only_empty = col_selector(empty_cols[:4], n)
    got = _gathered(a_r, only_empty, monkeypatch)
    assert got.nnz == 0
    assert _same_bytes(_general_path(a_r, only_empty, monkeypatch), got)


def test_selector_aware_spgemm_falls_through_for_non_selectors(monkeypatch):
    """Indicator rows (multi-entry), weighted selectors and two entries in
    one row must take the general path on either side — the gathers are
    only exact for rows of at most one unit entry, and the column gather
    for column ids that increase with the row.  A selector with an empty
    row is such a matrix (a 1.5D stage's slice of ``Q``) and gathers."""
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
    want = _general_path(one_empty_row, adj, monkeypatch)
    got = _gathered(one_empty_row, adj, monkeypatch)
    assert _same_bytes(got, want)
    assert got.nnz_per_row()[-1] == 0
    for q in (
        LadiesSampler.make_q(_batches(adj), n), weighted, two_in_one_row,
    ):
        out, calls = _general_calls(q, adj, monkeypatch)
        assert len(calls) == 1
        assert calls[0][0] is q.indptr and calls[0][1] is adj.indptr
        assert out.equal(spgemm_esc(q, adj), 0.0)
        assert _same_bytes(out, spgemm_hash(q, adj))
    # The column side: Q_C of unsorted ids (columns not increasing with the
    # row), of duplicate ids (two entries in a row), a weighted Q_C, and a
    # 1.0 pair in one row.
    a_r = LadiesSampler.row_extract(adj, [np.arange(0, n, 3)])
    q_c = col_selector(np.arange(5, 60, 4), n)
    two_in_row = np.zeros(n + 1, dtype=np.int64)
    two_in_row[8:] = 2
    for b in (
        col_selector(np.array([40, 7, 22, 3]), n),
        col_selector(np.array([7, 22, 22, 40]), n),
        CSRMatrix(q_c.indptr, q_c.indices, q_c.data * 0.5, q_c.shape),
        CSRMatrix(two_in_row, np.array([0, 1]), np.ones(2), (n, 2)),
    ):
        assert not spgemm_module._is_column_selector(b)
        out, calls = _general_calls(a_r, b, monkeypatch)
        assert len(calls) == 1
        assert calls[0][0] is a_r.indptr and calls[0][1] is b.indptr
        assert out.equal(spgemm_esc(a_r, b), 0.0)
        assert _same_bytes(out, spgemm_hash(a_r, b).prune_zeros())


def _weighted_csr(rng, n_rows, n_cols, density, values):
    """Random CSR of ``values`` (whatever they store, zeros included)."""
    present = rng.random((n_rows, n_cols)) < density
    rows, cols = np.nonzero(present)
    return CSRMatrix(
        np.concatenate(([0], np.cumsum(present.sum(axis=1)))), cols,
        rng.choice(values, rows.size), (n_rows, n_cols),
    )


_STORED = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -2.5, 0.75, 1e-300]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 30),
    empty=st.floats(0.0, 1.0),
)
def test_row_gather_matches_forced_general_path(seed, n_rows, empty):
    """Rows of at most one ``1.0`` on the left — empty rows included —
    gather bitwise what scipy's product computes, sorted: whatever ``b``
    stores (``0.0`` and ``-0.0`` drop, NaN and ±inf stay)."""
    n = 20
    rng = np.random.default_rng(seed)
    b = _weighted_csr(rng, n, n, 0.3, _STORED)
    has_entry = rng.random(n_rows) >= empty
    a = CSRMatrix(
        np.concatenate(([0], np.cumsum(has_entry))),
        rng.integers(0, n, int(has_entry.sum())),
        np.ones(int(has_entry.sum())), (n_rows, n),
    )
    assert spgemm_module._is_row_gather(a)
    got = spgemm(a, b)
    got.check()
    assert _same_bytes(got, spgemm_scipy(a, b))
    assert not (got.data == 0).any()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 30),
    density=st.floats(0.0, 0.6),
    n_out=st.integers(1, 30),
)
def test_column_gather_matches_forced_general_path(seed, n_rows, density, n_out):
    """A unit column selector whose column ids increase strictly — and
    skip ids, like ``[1, 4, 7]`` in 10 columns — gathers bitwise what
    scipy's product computes, sorted: whatever ``a`` stores, empty rows
    included (``0.0`` and ``-0.0`` drop, NaN and ±inf stay)."""
    n = 20
    rng = np.random.default_rng(seed)
    a = _weighted_csr(rng, n_rows, n, density, _STORED)
    k = int(rng.integers(0, min(n, n_out) + 1))
    sources = np.sort(rng.choice(n, k, replace=False))
    out_cols = np.sort(rng.choice(n_out, k, replace=False))
    b = _skipping_selector(sources, out_cols, n_out, n)
    assert spgemm_module._is_column_selector(b)
    got = spgemm(a, b)
    got.check()
    assert _same_bytes(got, spgemm_scipy(a, b))
    assert not (got.data == 0).any()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 4),
    n_cols=st.integers(256, 900),
)
def test_long_rows_are_sorted_by_counting_passes(seed, n_rows, n_cols):
    """Rows of 256 or more entries over a small index space (LADIES'
    ``P = Q A``) are sorted by two ``csr_tocsc`` passes, not by
    ``csr_sort_indices``, into the bytes scipy's sorted product has —
    stored zeros, NaN, ±inf and cancellations included."""
    rng = np.random.default_rng(seed)
    a = _weighted_csr(rng, n_rows, 12, 0.6, _STORED)
    b = _weighted_csr(rng, 12, n_cols, 0.7, _STORED + [-1.0])
    want = spgemm_scipy(a, b)
    assume(want.nnz >= 256 * n_rows)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            spgemm_module, "csr_sort_indices",
            lambda *args: pytest.fail("long rows went to the comparison sort"),
        )
        got = spgemm(a, b)
    got.check()
    assert _same_bytes(got, want)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), n_picks=st.integers(0, 30))
def test_one_zero_rule_for_both_spgemm_paths(seed, n_picks):
    """Stored ``0.0`` / ``-0.0`` weights, and ``+w`` / ``-w`` entries
    that cancel in a multi-entry row of ``Q``: the gather (GraphSAGE's unit
    selector) and the general path (LADIES' indicator rows) both return the
    contract's left-to-right sums with every exact zero absent, and so
    does the column gather (LADIES' ``Q_C``) on the right."""
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
    # LADIES' column extraction: the column gather drops b's zeros too.
    q_c = col_selector(np.unique(rng.integers(0, n, n_picks)), n)
    got = spgemm(b, q_c)
    assert _same_bytes(got, spgemm_sequential(b, q_c).prune_zeros())
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
    """Two bipartite extractions read one SAMPLE: the second reads the
    (P, mask) pair the first left behind, and debiases from the same P — a
    second layer over the same sampled set.  (Two *compact* extractions
    off one SAMPLE are not a meaningful program: the second would pair new
    destinations with old row bounds.)"""
    steps = [
        ProbStep("indicator"), NormStep(), SampleStep(6),
        ExtractStep("bipartite", debias=True),
        ExtractStep("bipartite", debias=True),
    ]
    sampler = PlanSampler(steps, norm_mode="ladies")
    # The first extraction rides SAMPLE's launch; the second is a launch
    # of its own.
    assert kernel_launches(sampler.plan((1,))) == 3
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
    ],
    ids=[
        "sage", "sage-nodst", "ladies", "ladies-debias", "ladies-dst",
        "fastgcn",
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
