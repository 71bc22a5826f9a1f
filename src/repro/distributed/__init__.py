"""Distributed sampling algorithms: Graph Replicated (section 5.1) and
Graph Partitioned with the 1.5D sparsity-aware SpGEMM (section 5.2)."""

from .analysis import ProbCostInputs, predict_prob_costs
from .instrument import charge_sampling, record_sampling
from .partitioned import PartitionedExecutor, partitioned_bulk_sampling
from .replicated import replicated_bulk_sampling
from .spgemm_15d import spgemm_15d, stage_blocks

__all__ = [
    "spgemm_15d",
    "stage_blocks",
    "replicated_bulk_sampling",
    "partitioned_bulk_sampling",
    "PartitionedExecutor",
    "record_sampling",
    "charge_sampling",
    "ProbCostInputs",
    "predict_prob_costs",
]
