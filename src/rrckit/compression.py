"""Sparse averaging matrix that collapses duplicated Kronecker monomials.

The order-p feature vector of an m-vector repeats every mixed monomial once
per permutation of its index multiset. Grouping the repeated slots and
averaging them compresses the feature dimension from d_p(m) to the number of
distinct monomials, and the pseudoinverse (broadcast each group mean back to
its slots) reconstructs the original features exactly on permutation-
symmetric inputs.

Both constructions return the partition of the slots by the distinct
monomial each one equals, read off the table through which the Kronecker
features gather the distinct monomials (``embedding._monomial_of_slot``).
The randomized one also checks that the distinct monomials of a generic
Gaussian sample lie more than a tolerance apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .embedding import _monomial_of_slot, feature_dim, monomial_features
from .errors import DimensionMismatchError, GroupingDegenerateError

__all__ = [
    "CompressionMatrix",
    "compression_matrix",
    "compression_matrix_exact",
    "compress",
    "decompress",
]


@dataclass(frozen=True)
class CompressionMatrix:
    """Row-averaging matrix over a partition of feature indices.

    Row i carries coefficient 1/|groups[i]| on each column in groups[i], so
    the matrix has exactly d nonzero entries. Groups are disjoint, cover
    0..d-1, and are ordered by their leading (smallest) column index; the
    first group is always the singleton {0}.

    Attributes
    ----------
    groups : tuple of tuple of int
        The partition, each group sorted ascending.
    n, L, p : int
        Provenance parameters; the underlying feature space is the order-p
        expansion of R^(nL).
    group_spread : float
        Largest within-group value spread of the probe: 0.0, since the
        members of a group are bit-equal products.
    """

    groups: tuple[tuple[int, ...], ...]
    n: int
    L: int
    p: int
    group_spread: float = 0.0

    def __post_init__(self):
        d = feature_dim(self.n * self.L, self.p)
        flat = [k for g in self.groups for k in g]
        if sorted(flat) != list(range(d)):
            raise GroupingDegenerateError(
                f"groups do not partition the {d} feature columns"
            )
        if self.groups[0] != (0,):
            raise GroupingDegenerateError("first group must be the singleton {0}")

    @property
    def rows(self) -> int:
        return len(self.groups)

    @property
    def cols(self) -> int:
        return feature_dim(self.n * self.L, self.p)

    def to_dense(self) -> np.ndarray:
        """Materialize the (rows, cols) averaging matrix."""
        R = np.zeros((self.rows, self.cols))
        for i, g in enumerate(self.groups):
            R[i, list(g)] = 1.0 / len(g)
        return R


@lru_cache(maxsize=64)
def _multiset_classes(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Partition of feature columns by monomial index multiset.

    Class i holds the slots that equal row i of ``monomial_features``, in
    ascending order; the trailing constant column is its own class. A
    monomial's first slot is its own sorted index, so the classes are
    ordered by leading column index.
    """
    slot = _monomial_of_slot(m, p)
    ends = np.cumsum(np.bincount(slot))[:-1]
    return tuple(tuple(g.tolist()) for g in np.split(np.argsort(slot, kind="stable"), ends))


def compression_matrix_exact(n: int, L: int, p: int) -> CompressionMatrix:
    """Compression matrix from exact multiset enumeration (no randomness).

    Groups feature columns whose monomial index multisets coincide — the
    symmetry the averaging construction exploits — so grouped slots hold
    bit-equal values for every input.
    """
    _validate_params(n, L, p)
    return CompressionMatrix(
        groups=_multiset_classes(n * L, p), n=n, L=L, p=p, group_spread=0.0
    )


def _validate_params(n: int, L: int, p: int) -> None:
    if n < 1 or L < 1 or p < 1:
        raise ValueError(f"n, L, p must be >= 1, got ({n}, {L}, {p})")


def compression_matrix(
    n: int, L: int, p: int, eps: float = 1e-9, seed: int = 0
) -> CompressionMatrix:
    """The exact compression matrix, once a generic Gaussian probe separates it.

    Draws nL standard normals, evaluates their distinct monomials of orders
    1..p, one value per class, and replaces the trailing constant with a
    fresh normal draw. The groups are the exact monomial partition; the
    probe only checks that every two classes' values lie more than eps
    apart. The members of a class are bit-equal copies, so ``group_spread``
    is 0.0. Deterministic for a fixed seed.

    Parameters
    ----------
    eps : float
        Separation tolerance; the default 1e-9 lies far below the spacing of
        distinct monomials of a generic probe.
    seed : int
        Seeds the probe draw.

    Raises
    ------
    GroupingDegenerateError
        If two classes' probe values lie within eps: eps too large for the
        sample.
    """
    _validate_params(n, L, p)
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")

    R = compression_matrix_exact(n, L, p)  # checks the feature budget
    rng = np.random.default_rng(seed)
    values = monomial_features(rng.standard_normal(n * L), p)
    values[-1] = rng.standard_normal()
    gap = np.diff(np.sort(values)).min()
    if gap <= eps:
        raise GroupingDegenerateError(
            f"probe values of distinct monomials lie {gap:.3g} apart, "
            f"within eps = {eps:g}; reduce eps"
        )
    return R


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
    a diagonal Gram matrix, which reduces to this broadcast; consequently
    compress(decompress(w)) == w exactly.
    """
    w = np.asarray(w, dtype=float)
    if w.shape[0] != R.rows:
        raise DimensionMismatchError(
            f"input has {w.shape[0]} rows, decompression expects {R.rows}"
        )
    out = np.empty((R.cols,) + w.shape[1:])
    for i, g in enumerate(R.groups):
        out[list(g)] = w[i]
    return out
