"""Sparse averaging matrix that collapses duplicated Kronecker monomials.

The order-p feature vector of an m-vector repeats every mixed monomial once
per permutation of its index multiset. Grouping the repeated slots and
averaging them compresses the feature dimension from d_p(m) to the number of
distinct monomials, and the pseudoinverse (broadcast each group mean back to
its slots) reconstructs the original features exactly on permutation-
symmetric inputs.

Two constructions are provided: the randomized one groups the feature
expansion of a generic Gaussian sample by value proximity; the exact one
enumerates index multisets directly and serves as its deterministic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .embedding import _sorted_monomial_indices, eth_map, feature_dim
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
        Largest within-group value spread of the generating sample (0.0 for
        the exact construction and for bit-equal duplicate slots).
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

    Columns whose multi-indices are permutations of each other land in the
    same class; the trailing constant column is its own class. Classes are
    ordered by leading column index.
    """
    classes: dict[tuple, list[int]] = {}
    offset = 0
    for q in range(1, p + 1):
        idx = _sorted_monomial_indices(m, q)
        for k, row in enumerate(idx):
            classes.setdefault((q,) + tuple(row), []).append(offset + k)
        offset += m**q
    classes[("const",)] = [offset]
    ordered = sorted(classes.values(), key=lambda g: g[0])
    return tuple(tuple(g) for g in ordered)


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
    """Randomized compression matrix from a generic Gaussian probe.

    Draws nL standard normals, expands them through the order-p feature
    map, replaces the trailing constant slot with a fresh normal draw, and
    greedily groups columns whose probe values lie within eps of each other,
    scanning in index order and emitting one averaging row per group leader.
    Deterministic for a fixed seed.

    Parameters
    ----------
    eps : float
        Grouping tolerance; the default 1e-9 lies far below the spacing of
        distinct monomials of a generic probe.
    seed : int
        Seeds the probe draw.

    Raises
    ------
    GroupingDegenerateError
        If the drawn probe groups columns whose index multisets differ, or
        fails to cover every column — eps too large for the sample.
    """
    _validate_params(n, L, p)
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")

    m = n * L
    d = feature_dim(m, p)
    rng = np.random.default_rng(seed)
    x_tilde = eth_map(rng.standard_normal(m), p)
    x_tilde[-1] = rng.standard_normal()

    groups: list[tuple[int, ...]] = [(0,)]
    spread = 0.0
    for j in range(1, d):
        cluster = np.nonzero(np.abs(x_tilde - x_tilde[j]) <= eps)[0]
        if cluster[0] == j:
            groups.append(tuple(int(k) for k in cluster))
            spread = max(
                spread, float(x_tilde[cluster].max() - x_tilde[cluster].min())
            )

    flat = sorted(k for g in groups for k in g)
    if flat != list(range(d)):
        raise GroupingDegenerateError(
            "probe clusters overlap or leave columns uncovered; reduce eps"
        )
    class_of = {}
    for cid, cls in enumerate(_multiset_classes(m, p)):
        for k in cls:
            class_of[k] = cid
    for g in groups:
        if len({class_of[k] for k in g}) != 1:
            raise GroupingDegenerateError(
                "a probe cluster mixes distinct monomial multisets; reduce eps"
            )
    return CompressionMatrix(
        groups=tuple(groups), n=n, L=L, p=p, group_spread=spread
    )


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
