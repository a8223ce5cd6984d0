"""Sparse averaging matrix that collapses duplicated Kronecker monomials.

The order-p feature vector of an m-vector repeats every mixed monomial once
per permutation of its index multiset. Grouping the repeated slots and
averaging them compresses the feature dimension from d_p(m) to the number of
distinct monomials, and the pseudoinverse (broadcast each group mean back to
its slots) reconstructs the original features exactly on permutation-
symmetric inputs.

The partition is read off the table through which the Kronecker features
gather the distinct monomials (``embedding._monomial_of_slot``): group i
holds the slots that equal row i of ``monomial_features``. There is one
construction and nothing to tune.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import _monomial_of_slot
from .errors import DimensionMismatchError

__all__ = [
    "CompressionMatrix",
    "compression_matrix",
    "compress",
    "decompress",
]


@dataclass(frozen=True)
class CompressionMatrix:
    """Row-averaging matrix over the order-p Kronecker slots of R^(nL).

    Row i carries coefficient 1/|groups[i]| on each column in groups[i], so
    the matrix has exactly d_p(nL) nonzero entries. The groups partition the
    columns by the distinct monomial each slot equals, ordered by their
    leading (smallest) column index; the first group is the singleton {0}.

    Raises ValueError unless n, L, p >= 1, and FeatureBudgetError if the
    d_p(nL) slots exceed the feature budget.
    """

    n: int
    L: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.L < 1 or self.p < 1:
            raise ValueError(f"n, L, p must be >= 1, got ({self.n}, {self.L}, {self.p})")
        _monomial_of_slot(self.n * self.L, self.p)  # checks the budget before building

    @property
    def slot(self) -> np.ndarray:
        """Row of the compressed vector that each of the d_p(nL) columns averages into."""
        return _monomial_of_slot(self.n * self.L, self.p)

    @property
    def rows(self) -> int:
        return int(self.slot[-1]) + 1  # the trailing constant is the last monomial

    @property
    def cols(self) -> int:
        return self.slot.size

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """The partition, each group ascending: the columns of each row."""
        ends = np.cumsum(np.bincount(self.slot))[:-1]
        return tuple(
            tuple(g.tolist()) for g in np.split(np.argsort(self.slot, kind="stable"), ends)
        )

    def to_dense(self) -> np.ndarray:
        """Materialize the (rows, cols) averaging matrix."""
        R = np.zeros((self.rows, self.cols))
        R[self.slot, np.arange(self.cols)] = (1.0 / np.bincount(self.slot))[self.slot]
        return R


def compression_matrix(n: int, L: int, p: int) -> CompressionMatrix:
    """The compression matrix of order-p features on windows of n channels, L samples."""
    return CompressionMatrix(n, L, p)


def compress(R: CompressionMatrix, z: np.ndarray) -> np.ndarray:
    """Group means of a feature vector (or of each column of a matrix).

    Each output row is the arithmetic mean of z over one group, computed as
    leader - mean(leader - entries) so groups of bit-equal entries reproduce
    the shared value exactly: x - x is +0.0, and leader - 0.0 keeps the sign
    of a -0.0 leader, where leader + 0.0 would not.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] != R.cols:
        raise DimensionMismatchError(
            f"input has {z.shape[0]} rows, compression expects {R.cols}"
        )
    out = np.empty((R.rows,) + z.shape[1:])
    for i, g in enumerate(R.groups):
        lead = z[g[0]]
        if len(g) == 1:
            out[i] = lead
        else:
            out[i] = lead - np.mean(lead - z[list(g)], axis=0)
    return out


def decompress(R: CompressionMatrix, w: np.ndarray) -> np.ndarray:
    """Pseudoinverse application: broadcast each group value to its slots.

    The averaging rows have disjoint support, so R^+ = R^T (R R^T)^{-1} with
    a diagonal Gram matrix, which reduces to the gather w[slot], the same
    gather that turns distinct monomials into Kronecker features; consequently
    compress(decompress(w)) == w exactly.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[0] != R.rows:
        raise DimensionMismatchError(
            f"input has {w.shape[0]} rows, decompression expects {R.rows}"
        )
    return w[R.slot]
