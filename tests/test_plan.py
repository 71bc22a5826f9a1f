"""The sampling-plan IR: emission, validation, and executor genericity.

The tentpole claim of the plan refactor is that every sampler is *data*
(a PROB/NORM/SAMPLE/EXTRACT program) plus row-local primitives, and that
executors — local and 1.5D partitioned — interpret that data generically.
These tests pin the emitted programs against the paper's Algorithm 1/2
step tables and check the derived-capability machinery around them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ExtractStep,
    FastGCNSampler,
    LadiesSampler,
    MatrixSampler,
    NormStep,
    ProbStep,
    SageSampler,
    SampleStep,
    SamplingPlan,
    step_phase,
)


class TestStepValidation:
    def test_prob_source_checked(self):
        with pytest.raises(ValueError, match="PROB source"):
            ProbStep("sideways")

    def test_sample_count_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SampleStep(0)

    def test_extract_kind_checked(self):
        with pytest.raises(ValueError, match="EXTRACT kind"):
            ExtractStep("teleport")

    def test_steps_are_frozen(self):
        step = SampleStep(4)
        with pytest.raises(Exception):
            step.count = 5


class TestPlanValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            SamplingPlan(())

    def test_sample_needs_prob(self):
        with pytest.raises(ValueError, match="SAMPLE before"):
            SamplingPlan((SampleStep(3),))

    def test_extract_needs_sample(self):
        with pytest.raises(ValueError, match="EXTRACT"):
            SamplingPlan((ProbStep(), ExtractStep("compact")))

    def test_norm_needs_prob(self):
        with pytest.raises(ValueError, match="NORM before"):
            SamplingPlan((NormStep(),))

    def test_non_step_rejected(self):
        with pytest.raises(TypeError, match="not a plan step"):
            SamplingPlan(("sample",))


class TestPhaseAttribution:
    """Figure-7 phases are derived from step types, not hand-placed."""

    def test_phase_by_type(self):
        assert step_phase(ProbStep("indicator")) == "probability"
        assert step_phase(NormStep()) == "sampling"
        assert step_phase(SampleStep(2)) == "sampling"
        assert step_phase(ExtractStep("bipartite")) == "extraction"

    def test_non_step_raises(self):
        with pytest.raises(TypeError):
            step_phase("probability")


class TestEmittedPrograms:
    """Each built-in's plan matches its Algorithm 1/2 row in the paper."""

    def test_sage_program(self):
        plan = SageSampler().plan((5, 3))
        assert [type(s).__name__ for s in plan.steps] == [
            "ProbStep", "NormStep", "SampleStep", "ExtractStep",
        ] * 2
        probs = [s for s in plan.steps if isinstance(s, ProbStep)]
        assert all(s.source == "frontier" for s in probs)
        counts = [s.count for s in plan.steps if isinstance(s, SampleStep)]
        assert counts == [5, 3]
        extracts = [s for s in plan.steps if isinstance(s, ExtractStep)]
        assert all(s.kind == "compact" for s in extracts)

    def test_ladies_program(self):
        plan = LadiesSampler(include_dst=True).plan((32,))
        kinds = [type(s).__name__ for s in plan.steps]
        assert kinds == ["ProbStep", "NormStep", "SampleStep", "ExtractStep"]
        assert plan.steps[0].source == "indicator"
        assert plan.steps[-1].kind == "bipartite"
        assert plan.steps[-1].union_dst is True

    def test_ladies_debias_flows_into_plan(self):
        plan = LadiesSampler(debias=True).plan((16,))
        assert plan.steps[-1].debias is True

    def test_fastgcn_program_has_no_norm_and_no_per_layer_spgemm(self):
        plan = FastGCNSampler().plan((32, 32))
        assert not any(isinstance(s, NormStep) for s in plan.steps)
        probs = [s for s in plan.steps if isinstance(s, ProbStep)]
        assert all(s.source == "global" for s in probs)

    def test_describe_is_readable(self):
        text = SageSampler().plan((4,)).describe()
        assert "probability" in text and "PROB(frontier)" in text
        assert "SAMPLE(s=4)" in text and "EXTRACT(compact)" in text


class TestPlanDrivenSampleBulk:
    """sample_bulk is one shared interpreter, not per-sampler loops."""

    def test_plan_emitting_subclass_needs_no_sample_bulk(self, small_adj, rng):
        """A plugin that only overrides NORM inherits the whole driver."""

        class SquaredSage(SageSampler):
            def norm(self, p):
                from repro.sparse import CSRMatrix, row_normalize

                sq = CSRMatrix(
                    p.indptr.copy(), p.indices.copy(), p.data**2, p.shape
                )
                return row_normalize(sq)

        batches = [rng.choice(small_adj.shape[0], 16, replace=False)
                   for _ in range(3)]
        out = SquaredSage().sample_bulk(small_adj, batches, (4, 2), rng)
        assert len(out) == 3 and out[0].num_layers == 2

    def test_planless_sampler_raises_type_error(self, small_adj, rng):
        class NoPlan(MatrixSampler):
            def norm(self, p):
                return p

        with pytest.raises(TypeError, match="sampling plan"):
            NoPlan().sample_bulk(
                small_adj, [np.arange(8)], (4,), rng
            )

    def test_plans_are_deterministic_data(self):
        """Same sampler, same fanout: the same (hashable) program."""
        a = SageSampler().plan((5, 3))
        b = SageSampler().plan((5, 3))
        assert a == b
        assert len({a, b}) == 1
