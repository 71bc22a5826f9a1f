"""The paper's primary contribution: matrix-based bulk sampling.

Algorithm 1's NORM/SAMPLE/EXTRACT abstraction, inverse transform sampling,
and its GraphSAGE, LADIES and FastGCN instantiations.
"""

from .bulk import (
    assign_round_robin,
    batch_rng,
    chunk_bulks,
    reassemble_round_robin,
)
from .fastgcn_sampler import FastGCNSampler
from .frontier import LayerSample, MinibatchSample
from .its import its_flops, its_sample_rows
from .ladies_sampler import LadiesSampler
from .plan import (
    ExtractStep,
    LocalExecutor,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    step_phase,
)
from .sage_sampler import SageSampler
from .sampler_base import MatrixSampler, SpGEMMFn

__all__ = [
    "MatrixSampler",
    "SpGEMMFn",
    "SageSampler",
    "LadiesSampler",
    "FastGCNSampler",
    "LayerSample",
    "MinibatchSample",
    "SamplingPlan",
    "ProbStep",
    "NormStep",
    "SampleStep",
    "ExtractStep",
    "step_phase",
    "LocalExecutor",
    "its_sample_rows",
    "its_flops",
    "chunk_bulks",
    "assign_round_robin",
    "reassemble_round_robin",
    "batch_rng",
]
