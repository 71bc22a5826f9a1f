"""Differential plan-fuzzing: the executors == the oracle, always.

Hypothesis generates random *valid* sampling plans — stage-structured
mixes of node-wise, layer-wise, global and random-walk stages with dead
steps injected, double extractions off one SAMPLE, debiasing, destination
unioning, keep-all ``SAMPLE(all)`` node-wise stages (exact serving's
program, alone or mixed with counted stages), both NORM styles and both
sample backends — and executes each one on a random graph.  Every plan
runs through the ``Q^{l-1}``-materializing oracle (:mod:`reference_interpreter`), through
:class:`~repro.core.plan.LocalExecutor` (the product path,
``sample_bulk``, which runs the plan as emitted with NORM in place), and
through :class:`~repro.distributed.partitioned.PartitionedExecutor` on
three grid shapes — and every run must produce **byte-identical** samples.
The dead steps stay in: the executors run them, in place, as the sampler
emitted them.

The plans are run by a :class:`~reference_interpreter.PlanSampler` assembled from the real
samplers' own primitives (GraphSAGE compaction, LADIES row/column
extraction and debiasing, FastGCN's importance row, SAINT's subgraph
induction), so every generated plan exercises production extraction code
— the fuzz surface is the *plan space*, not toy kernels.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.comm import Communicator, ProcessGrid
from repro.core import SageSampler, batch_rng
from repro.core.plan import (
    ExtractStep,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
)
from repro.distributed.partitioned import PartitionedExecutor
from repro.graphs import rmat
from repro.partition import BlockRows
from repro.sparse import spgemm

from reference_interpreter import PlanSampler, ReferenceInterpreter

GRAPHS = [
    rmat(7, 6, np.random.default_rng(101)),
    rmat(8, 4, np.random.default_rng(202)),
    rmat(6, 10, np.random.default_rng(303)),
]


class FuzzSamplerCustomExtract(PlanSampler):
    """Overrides ``extract_batch_layer``: the executors must hand it each
    batch's ``Q^{l-1}`` block instead of compacting straight from the mask,
    and still match bit for bit."""

    def extract_batch_layer(self, q_next_rows, dst_ids):
        return SageSampler.extract_batch_layer(self, q_next_rows, dst_ids)


# --------------------------------------------------------------------- #
# Plan generation
# --------------------------------------------------------------------- #
def _stage_steps(stage, draw_dead):
    """One plan stage: PROB [+NORM] + SAMPLE + EXTRACT, with optional dead
    PROB/NORM prefixes (overwritten before any read — steps every executor
    must run neutrally)."""
    kind = stage["kind"]
    steps = []
    if draw_dead:
        steps += [ProbStep(stage["dead_source"]), NormStep()]
    if kind == "node":
        steps.append(ProbStep("frontier"))
        if stage["norm"]:
            steps.append(NormStep())
        steps += [SampleStep(stage["count"]), ExtractStep("compact")]
    elif kind == "walk":
        steps.append(ProbStep("frontier"))
        if stage["norm"]:
            steps.append(NormStep())
        steps += [SampleStep(1), ExtractStep("walk")]
        if stage["double_extract"]:
            # A second walk advance off the same SAMPLE reads the (P, mask)
            # pair the first left behind.
            steps.append(ExtractStep("walk"))
    else:  # "layer" (indicator source) or "global"
        source = "indicator" if kind == "layer" else "global"
        steps.append(ProbStep(source))
        if stage["norm"]:
            steps.append(NormStep())
        steps.append(SampleStep(stage["count"]))
        steps.append(
            ExtractStep(
                "bipartite",
                union_dst=stage["union_dst"],
                debias=stage["debias"],
            )
        )
    return steps


@st.composite
def fuzz_cases(draw):
    graph_idx = draw(st.integers(0, len(GRAPHS) - 1))
    n = GRAPHS[graph_idx].shape[0]
    k = draw(st.integers(1, 3))
    batch_size = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(["layered", "walk"]))
    n_stages = draw(st.integers(1, 3))
    stages = []
    for _ in range(n_stages):
        if family == "walk":
            kind = "walk"
        else:
            kind = draw(st.sampled_from(["node", "layer", "global"]))
        norm = draw(st.booleans())
        union_dst = debias = double = False
        if kind in ("layer", "global"):
            union_dst = draw(st.booleans())
            if norm and not union_dst:
                debias = draw(st.booleans())
        if kind == "walk":
            double = draw(st.booleans())
        count = draw(st.integers(1, 4))
        if kind == "node" and draw(st.booleans()):
            count = None  # the keep-all family: SAMPLE(all), no draw
        stages.append(
            {
                "kind": kind,
                "norm": norm,
                "count": count,
                "union_dst": union_dst,
                "debias": debias,
                "double_extract": double,
                "dead": draw(st.booleans()),
                "dead_source": draw(
                    st.sampled_from(["frontier", "indicator", "global"])
                ),
            }
        )
    steps = []
    for stage in stages:
        steps += _stage_steps(stage, stage["dead"])
    if family == "walk":
        steps.append(
            ExtractStep("subgraph", n_layers=draw(st.integers(1, 2)))
        )
    return {
        "graph_idx": graph_idx,
        "steps": steps,
        "k": k,
        "batch_size": batch_size,
        "seed": seed,
        "norm_mode": draw(st.sampled_from(["sage", "ladies"])),
        "include_dst": draw(st.booleans()),
        "sample_backend": draw(st.sampled_from(["its", "gumbel"])),
        "custom_extract": draw(st.booleans()),
        "per_batch_rng": draw(st.booleans()),
        "n": n,
    }


def _make_batches(case):
    rng = np.random.default_rng(case["seed"] + 7)
    return [
        np.sort(
            rng.choice(case["n"], case["batch_size"], replace=False)
        ).astype(np.int64)
        for _ in range(case["k"])
    ]


def _make_sampler(case):
    cls = (
        FuzzSamplerCustomExtract if case["custom_extract"] else PlanSampler
    )
    return cls(
        case["steps"],
        norm_mode=case["norm_mode"],
        include_dst=case["include_dst"],
        sample_backend=case["sample_backend"],
    )


def _digest(samples):
    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            for arr in (
                layer.adj.indptr,
                layer.adj.indices,
                layer.adj.data,
                np.asarray(layer.src_ids, dtype=np.int64),
                np.asarray(layer.dst_ids, dtype=np.int64),
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(layer.adj.shape).encode())
    return h.hexdigest()


def _rng_for(case):
    if case["per_batch_rng"]:
        return [batch_rng(case["seed"], i) for i in range(case["k"])]
    return np.random.default_rng(case["seed"])


# --------------------------------------------------------------------- #
# Local differential: oracle == LocalExecutor, on every generated plan
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(case=fuzz_cases())
def test_local_compiled_matches_interpreted(case):
    adj = GRAPHS[case["graph_idx"]]
    batches = _make_batches(case)
    plan = SamplingPlan(tuple(case["steps"]))
    sampler = _make_sampler(case)
    digests = {
        "oracle": _digest(
            ReferenceInterpreter(
                sampler, adj, batches, _rng_for(case), spgemm
            ).run(plan)
        ),
        "local": _digest(
            sampler.sample_bulk(adj, batches, (1,), _rng_for(case))
        ),
    }
    assert len(set(digests.values())) == 1, digests


# --------------------------------------------------------------------- #
# Partitioned differential: the 1.5D executor matches the oracle fed the
# same per-batch streams
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(case=fuzz_cases(), grid_shape=st.sampled_from([(1, 1), (4, 1), (4, 2)]))
def test_partitioned_compiled_matches_interpreted(case, grid_shape):
    adj = GRAPHS[case["graph_idx"]]
    batches = _make_batches(case)
    plan = SamplingPlan(tuple(case["steps"]))
    p, c = grid_shape
    grid = ProcessGrid(p, c)
    blocks = BlockRows.partition(adj, grid.n_rows)
    sampler = _make_sampler(case)
    digests = {
        "oracle": _digest(
            ReferenceInterpreter(
                sampler, adj, batches,
                [batch_rng(case["seed"], i) for i in range(case["k"])],
                spgemm,
            ).run(plan)
        ),
        "partitioned": _digest(
            PartitionedExecutor(
                Communicator(p), grid, sampler, blocks, batches, case["seed"],
            ).run(plan)
        ),
    }
    assert len(set(digests.values())) == 1, digests
