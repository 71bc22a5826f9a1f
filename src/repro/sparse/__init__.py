"""Sparse-matrix substrate: CSR storage, the SpGEMM and SpMM, structural ops.

Everything the paper's sampling framework needs from cuSPARSE/nsparse:
one SpGEMM (:func:`spgemm`) and one SpMM (:func:`spmm`), both scipy's
compiled CSR kernels run on :class:`CSRMatrix`'s own arrays, with no copy,
and both under one written order rule (strict left-to-right sums from ``0.0``),
and the selector / stacking / normalization ops around them.
"""

from .csr import CSRMatrix
from .ops import (
    col_selector,
    compact_columns,
    indicator_rows,
    row_normalize,
    row_normalize_inplace,
    row_selector,
    vstack,
)
from .random_matrix import sprand
from .spgemm import get_kernel, required_rows, spgemm, spgemm_flops
from .spmm import spmm, spmm_flops

__all__ = [
    "CSRMatrix",
    "get_kernel",
    "spgemm",
    "spgemm_flops",
    "required_rows",
    "spmm",
    "spmm_flops",
    "vstack",
    "row_selector",
    "col_selector",
    "indicator_rows",
    "row_normalize",
    "row_normalize_inplace",
    "compact_columns",
    "sprand",
]
