"""SVD pseudo-inverse of the solver's channel block, a read-only float
view of a validated channel, for the relaxed target. It is defined at any
rank: singular values at or below ``PINV_RCOND`` times the largest are dropped."""

from functools import cached_property

import numpy as np

PINV_RCOND = 1e-12


class MarkovOperator:
    """A 2-D block with its SVD, computed once on first use."""

    def __init__(self, block: np.ndarray):
        self.block = block

    @cached_property
    def _svd(self):
        return np.linalg.svd(self.block, full_matrices=False)

    def pinv_block(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse of the block via SVD truncation."""
        u, s, vt = self._svd
        cutoff = PINV_RCOND * (s[0] if s.size else 0.0)
        inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
        return (vt.T * inv) @ u.T
