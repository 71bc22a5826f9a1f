"""Graph serialization: save/load the Graph container as a single .npz.

Generating a sim-scale stand-in takes well under a second: the largest at
the default scale, ``papers`` (65 536 vertices, 0.9M edges), takes 0.55 s
on one Xeon core.  Persisting one lets benchmark sweeps and examples share
one generated instance.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..sparse import CSRMatrix
from .graph import Graph

__all__ = ["save_graph", "load_graph"]

_FORMAT_VERSION = 1


def save_graph(graph: Graph, path: str | Path) -> Path:
    """Write a graph (topology, features, labels, splits) to ``path``."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION]),
        "name": np.array([graph.name]),
        "indptr": graph.adj.indptr,
        "indices": graph.adj.indices,
        "data": graph.adj.data,
        "shape": np.array(graph.adj.shape),
        "train_idx": graph.train_idx,
        "val_idx": graph.val_idx,
        "test_idx": graph.test_idx,
    }
    if graph.features is not None:
        arrays["features"] = graph.features
    if graph.labels is not None:
        arrays["labels"] = graph.labels
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_graph(path: str | Path) -> Graph:
    """Read a graph previously written by :func:`save_graph`.

    A file is checked before anything samples from it: :class:`Graph`
    holds the adjacency to canonical CSR (:meth:`CSRMatrix.check`), one
    feature row and one label per vertex, and split ids in ``[0, n)``.  A
    corrupted file raises ``ValueError`` naming the path and the broken
    invariant.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported graph file version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        adj = CSRMatrix(
            data["indptr"], data["indices"], data["data"],
            tuple(int(x) for x in data["shape"]),
        )
        try:
            return Graph(
                name=str(data["name"][0]),
                adj=adj,
                features=data["features"] if "features" in data else None,
                labels=data["labels"] if "labels" in data else None,
                train_idx=data["train_idx"],
                val_idx=data["val_idx"],
                test_idx=data["test_idx"],
            )
        except ValueError as exc:
            raise ValueError(f"graph file {path} is corrupt: {exc}") from exc
