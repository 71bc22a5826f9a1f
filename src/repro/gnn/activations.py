"""Activation functions with explicit backward passes.

Every activation exposes two entry points:

* ``forward``/``backward`` — the stateful training pair (the mask or
  output needed by the backward pass is cached on the instance).
* ``apply`` — a pure, stateless forward used by inference paths
  (:func:`repro.pipeline.layerwise_inference`, :mod:`repro.serve`), so
  running inference mid-training never clobbers a cached backward state.

:data:`ACTIVATIONS` is the name -> class table the model constructor and
``RunConfig.activation`` resolve through.

ReLU keeps or zeroes each element by a boolean mask.  ``np.where`` branches
on that mask, which on a random sign pattern costs a branch mispredict per
element; :func:`_keep` makes the same choice on the values' bit patterns
instead (an all-ones or all-zeros integer per element, ANDed in), so the
result is ``np.where``'s bit for bit — NaN, ``±0.0`` and ``±inf`` included —
at a fraction of the time.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "ReLU",
    "Identity",
    "make_activation",
]


def _bits(x: np.ndarray) -> np.ndarray:
    """``x``'s bit patterns: a view as the signed integer of its width."""
    return x.view(np.dtype(f"i{x.itemsize}"))


def _keep(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.where(mask, x, 0.0)`` for a float ``x``, bit for bit, in one
    output buffer: ``-mask`` is all ones where kept, ANDed with ``x``'s bits."""
    out = mask.astype(_bits(x).dtype)
    np.negative(out, out=out)
    np.bitwise_and(out, _bits(x), out=out)
    return out.view(x.dtype)


class ReLU:
    """Rectified linear unit; caches the mask between forward and backward."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    @staticmethod
    def apply(x: np.ndarray) -> np.ndarray:
        return _keep(x > 0, x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return _keep(self._mask, x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return _keep(self._mask, dy)


class Identity:
    """No-op activation (a purely linear stack between convolutions)."""

    @staticmethod
    def apply(x: np.ndarray) -> np.ndarray:
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy


#: Inter-layer activations resolvable by name (``GNNModel(activation=...)``,
#: ``RunConfig.activation``).
ACTIVATIONS: dict[str, type] = {
    "relu": ReLU,
    "identity": Identity,
}


def make_activation(name: str):
    """Instantiate a registered activation; errors name the known keys."""
    cls = ACTIVATIONS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown activation {name!r}; known activations: "
            f"{', '.join(ACTIVATIONS)}"
        )
    return cls()

