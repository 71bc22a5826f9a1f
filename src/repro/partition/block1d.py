"""1D block-row partitioning of sparse matrices.

The Graph Replicated algorithm partitions the stacked ``Q`` into ``p`` block
rows (section 5.1); the Graph Partitioned algorithm partitions both ``Q``
and ``A`` into ``p/c`` block rows (section 5.2).  This module produces and
indexes those block rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse import CSRMatrix

__all__ = ["BlockRows", "split_rows"]


def split_rows(n_rows: int, n_blocks: int) -> np.ndarray:
    """Boundaries of an even block-row split: ``n_blocks + 1`` offsets.

    Remainder rows go to the leading blocks, keeping sizes within one row
    of each other.
    """
    if n_blocks <= 0:
        raise ValueError("need at least one block")
    if n_rows < 0:
        raise ValueError("row count must be non-negative")
    base, rem = divmod(n_rows, n_blocks)
    sizes = np.full(n_blocks, base, dtype=np.int64)
    sizes[:rem] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


@dataclass
class BlockRows:
    """A matrix split into contiguous block rows.

    ``blocks[i]`` holds global rows ``[starts[i], starts[i+1])``; its row
    indices are local (0-based within the block) while columns stay global.
    """

    blocks: list[CSRMatrix]
    starts: np.ndarray  # len(blocks) + 1 global row offsets
    n_cols: int

    @classmethod
    def partition(cls, mat: CSRMatrix, n_blocks: int) -> "BlockRows":
        """Split ``mat`` into ``n_blocks`` even block rows."""
        starts = split_rows(mat.shape[0], n_blocks)
        blocks = [
            mat.row_block(int(starts[i]), int(starts[i + 1]))
            for i in range(n_blocks)
        ]
        return cls(blocks, starts, mat.shape[1])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_rows(self) -> int:
        return int(self.starts[-1])
