"""Dataset statistics: the Table 3 summary."""

from __future__ import annotations

from dataclasses import dataclass

from .datasets import PAPER_DATASETS
from .graph import Graph

__all__ = ["GraphStats", "summarize", "table3_rows"]


@dataclass(frozen=True)
class GraphStats:
    """Observed statistics of a generated graph."""

    name: str
    vertices: int
    edges: int
    avg_degree: float
    max_degree: int
    features: int
    train_vertices: int

    def row(self) -> dict[str, object]:
        """Flat dict for tabular reporting."""
        return {
            "name": self.name,
            "vertices": self.vertices,
            "edges": self.edges,
            "avg_degree": round(self.avg_degree, 1),
            "max_degree": self.max_degree,
            "features": self.features,
            "train_vertices": self.train_vertices,
        }


def summarize(graph: Graph) -> GraphStats:
    """Compute :class:`GraphStats` for a graph."""
    degs = graph.out_degrees()
    return GraphStats(
        name=graph.name,
        vertices=graph.n,
        edges=graph.m,
        avg_degree=graph.avg_degree(),
        max_degree=int(degs.max()) if degs.size else 0,
        features=graph.n_features,
        train_vertices=int(graph.train_idx.size),
    )


def table3_rows(batch_size: int = 1024) -> list[dict[str, object]]:
    """The paper's Table 3 at full (paper) scale, one dict per dataset."""
    rows = []
    for spec in PAPER_DATASETS.values():
        rows.append(
            {
                "name": spec.name,
                "vertices": spec.vertices,
                "edges": spec.edges,
                "batches": spec.batches,
                "features": spec.features,
                "avg_degree": round(spec.avg_degree, 1),
            }
        )
    return rows
