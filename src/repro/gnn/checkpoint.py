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
    """Load a checkpoint into an architecture-matching ``model`` in place.

    Values take the model's width: a float64 checkpoint (every one written
    before the model went float32) loads rounded once to float32, and a
    float32 one loads bit for bit.  A non-floating array is refused with a
    ``ValueError`` naming the parameter.
    """
    own = model.parameters()
    with np.load(path, allow_pickle=False) as data:
        stored = {k.replace("__", "."): data[k] for k in data.files}
    if set(stored) != set(own):
        missing = set(own) ^ set(stored)
        raise ValueError(f"checkpoint/model parameter mismatch: {sorted(missing)}")
    for name, value in stored.items():
        if not np.issubdtype(value.dtype, np.floating):
            raise ValueError(
                f"checkpoint parameter {name} is {value.dtype}, not floating point"
            )
        if own[name].shape != value.shape:
            raise ValueError(
                f"shape mismatch for {name}: model {own[name].shape} "
                f"vs checkpoint {value.shape}"
            )
    model.set_parameters(stored)
    return model
