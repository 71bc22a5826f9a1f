"""Classification metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label."""
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("one label per logit row required")
    if logits.shape[0] == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())
