"""Optimizers operating on named parameter/gradient dictionaries."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba, 2015)."""

    def __init__(
        self,
        lr: float = 1e-3,
        *,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
    ) -> None:
        """Update ``params`` in place from ``grads`` (matching keys)."""
        self._t += 1
        for name, p in params.items():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * p
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            m_hat = m / (1 - self.b1**self._t)
            v_hat = v / (1 - self.b2**self._t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
