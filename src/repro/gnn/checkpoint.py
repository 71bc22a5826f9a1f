"""Model checkpointing: save/load GNNModel parameters as .npz."""

from __future__ import annotations

import zipfile
import zlib
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


def _read_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """A checkpoint's arrays by parameter name.  numpy's own errors name
    neither the file nor the fault (a text file "contains pickled data"),
    so each way a file can fail to be an archive is re-raised here."""
    try:
        data = np.load(path, allow_pickle=False)
    except ValueError as exc:  # numpy's refusal to unpickle a non-array file
        raise ValueError(f"checkpoint {path} is not a .npz archive") from exc
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(
            f"checkpoint {path} is truncated or corrupt: {exc}"
        ) from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path} is a .npy array, not a .npz archive")
    with data:
        try:
            return {k.replace("__", "."): data[k] for k in data.files}
        except (zipfile.BadZipFile, EOFError, zlib.error) as exc:
            raise ValueError(
                f"checkpoint {path} is truncated or corrupt: {exc}"
            ) from exc


def load_model_into(model: GNNModel, path: str | Path) -> GNNModel:
    """Load a checkpoint into an architecture-matching ``model`` in place.

    Values take the model's width: a float64 checkpoint (every one written
    before the model went float32) loads rounded once to float32, and a
    float32 one loads bit for bit.  Every refusal is a ``ValueError`` that
    names ``path``: a file that is not a readable ``.npz`` archive, the
    parameters the model has and the checkpoint lacks (and the reverse),
    a shape mismatch, or a non-floating array.
    """
    own = model.parameters()
    stored = _read_arrays(path)
    missing = sorted(set(own) - set(stored))
    unexpected = sorted(set(stored) - set(own))
    if missing or unexpected:
        raise ValueError(
            f"checkpoint {path} does not match the model: "
            f"missing parameters {missing}, unexpected parameters {unexpected}"
        )
    for name, value in stored.items():
        if not np.issubdtype(value.dtype, np.floating):
            raise ValueError(
                f"checkpoint {path}: parameter {name} is {value.dtype}, "
                f"not floating point"
            )
        if own[name].shape != value.shape:
            raise ValueError(
                f"checkpoint {path}: shape mismatch for {name}: model "
                f"{own[name].shape} vs checkpoint {value.shape}"
            )
    model.set_parameters(stored)
    return model
