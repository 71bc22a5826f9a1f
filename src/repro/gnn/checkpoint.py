"""Model checkpointing: save/load GNNModel parameters as .npz."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .model import GNNModel

__all__ = ["save_model", "load_model_into"]


def save_model(model: GNNModel, path: str | Path) -> Path:
    """Write every named parameter of ``model`` to ``path`` (.npz)."""
    path = Path(path)
    params = model.parameters()
    np.savez_compressed(path, **{k.replace(".", "__"): v for k, v in params.items()})
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_model_into(model: GNNModel, path: str | Path) -> GNNModel:
    """Load a checkpoint into an architecture-matching ``model`` in place."""
    own = model.parameters()
    with np.load(path, allow_pickle=False) as data:
        stored = {k.replace("__", "."): data[k] for k in data.files}
    if set(stored) != set(own):
        missing = set(own) ^ set(stored)
        raise ValueError(f"checkpoint/model parameter mismatch: {sorted(missing)}")
    for name, value in stored.items():
        if own[name].shape != value.shape:
            raise ValueError(
                f"shape mismatch for {name}: model {own[name].shape} "
                f"vs checkpoint {value.shape}"
            )
    model.set_parameters(stored)
    return model
