"""Random sparse-matrix generators (tests, benchmarks, property checks)."""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix

__all__ = ["sprand"]


def sprand(
    n_rows: int,
    n_cols: int,
    density: float,
    rng: np.random.Generator,
    *,
    values: str = "uniform",
) -> CSRMatrix:
    """A random CSR matrix with roughly ``density`` fraction of nonzeros.

    ``values`` selects the nonzero distribution: ``"uniform"`` in (0, 1],
    or ``"ones"`` for a binary matrix.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    nnz = int(round(density * n_rows * n_cols))
    nnz = min(nnz, n_rows * n_cols)
    if nnz == 0:
        return CSRMatrix.zeros((n_rows, n_cols))
    flat = rng.choice(n_rows * n_cols, size=nnz, replace=False)
    rows, cols = np.divmod(flat, n_cols)
    if values == "uniform":
        vals = rng.uniform(1e-6, 1.0, size=nnz)
    elif values == "ones":
        vals = np.ones(nnz)
    else:
        raise ValueError(f"unknown values kind {values!r}")
    return CSRMatrix.from_coo(rows, cols, vals, (n_rows, n_cols))
