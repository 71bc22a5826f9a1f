"""Activation functions with explicit backward passes.

Every activation exposes two entry points:

* ``forward``/``backward`` — the stateful training pair (the mask or
  output needed by the backward pass is cached on the instance).
* ``apply`` — a pure, stateless forward used by inference paths
  (:func:`repro.pipeline.layerwise_inference`, :mod:`repro.serve`), so
  running inference mid-training never clobbers a cached backward state.

:data:`ACTIVATIONS` is the name -> class table the model constructor and
``RunConfig.activation`` resolve through.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Identity",
    "make_activation",
]


class ReLU:
    """Rectified linear unit; caches the mask between forward and backward."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    @staticmethod
    def apply(x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, dy, 0.0)


class LeakyReLU:
    """Leaky ReLU with a fixed negative slope."""

    slope = 0.01

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    @classmethod
    def apply(cls, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, cls.slope * x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.slope * x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, dy, self.slope * dy)


class Tanh:
    """Hyperbolic tangent; caches the output for the backward pass."""

    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    @staticmethod
    def apply(x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return dy * (1.0 - self._out * self._out)


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
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
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

