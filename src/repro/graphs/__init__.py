"""Graph dataset substrate: containers, generators and paper stand-ins."""

from .datasets import PAPER_DATASETS, DatasetSpec, dataset_names, load_dataset
from .generators import erdos_renyi, planted_partition, rmat
from .graph import Graph
from .io import load_graph, save_graph
from .stats import GraphStats, summarize, table3_rows

__all__ = [
    "Graph",
    "save_graph",
    "load_graph",
    "rmat",
    "erdos_renyi",
    "planted_partition",
    "DatasetSpec",
    "PAPER_DATASETS",
    "load_dataset",
    "dataset_names",
    "GraphStats",
    "summarize",
    "table3_rows",
]
