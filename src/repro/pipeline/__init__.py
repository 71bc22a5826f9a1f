"""End-to-end distributed training pipeline (paper section 6, Figure 3)."""

from .inference import layerwise_inference
from .memory import MemoryModel, choose_c_k, quiver_fits
from .schedule import overlapped_makespan
from .stats import BulkStats, EpochStats
from .trainer import TrainingPipeline

__all__ = [
    "TrainingPipeline",
    "BulkStats",
    "EpochStats",
    "MemoryModel",
    "layerwise_inference",
    "choose_c_k",
    "quiver_fits",
    "overlapped_makespan",
]
