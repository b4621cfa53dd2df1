"""Exact integer primitives: binomials, k-subset patterns and their
distance matrix.

Everything here is pure and exact: results are ints or integer arrays.
Anomaly patterns are sorted tuples of 1-based positions, kept in
lexicographic order throughout the package so that matrix rows have a
deterministic meaning; distance_matrix gives all pairwise subset
distances in that order, the one object every explicit N x N matrix of
the package is indexed by (one cached, read-only array).
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import Sequence

import numpy as np

__all__ = [
    "binomial",
    "enumerate_patterns",
    "pattern_distance",
    "pattern_indicator",
    "distance_matrix",
]


def binomial(n: int, r: int) -> int:
    """C(n, r), extended with C(n, r) = 0 for r < 0 or r > n.

    The r = -1 case matters: eigenvalue multiplicities are binomial
    differences C(n, j) - C(n, j-1) and must give 1 at j = 0.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be non-negative, got {n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def enumerate_patterns(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} in lexicographic order (C(n, k) of them)."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"enumerate_patterns: need 0 <= k <= n, got n={n}, k={k}")
    return list(combinations(range(1, n + 1), k))


def pattern_distance(r: Sequence[int], s: Sequence[int]) -> int:
    """Subset distance k - |r ∩ s| (half the Hamming distance of indicators)."""
    if len(r) != len(s):
        raise ValueError(f"patterns have different cardinalities: {len(r)} vs {len(s)}")
    return len(r) - len(set(r) & set(s))


@functools.lru_cache(maxsize=32)
def pattern_indicator(n: int, k: int) -> np.ndarray:
    """C(n, k) x n 0/1 matrix X: row a marks the positions of the a-th pattern.

    Built once per (n, k) and shared, so the array is read-only; copy it
    to modify it.
    """
    pats = enumerate_patterns(n, k)
    X = np.zeros((len(pats), n), dtype=np.uint8)
    cols = np.array(pats, dtype=np.intp).reshape(len(pats), k) - 1
    X[np.arange(len(pats))[:, None], cols] = 1
    X.flags.writeable = False
    return X


@functools.lru_cache(maxsize=1)
def distance_matrix(n: int, k: int) -> np.ndarray:
    """All subset distances at once: D = k - X X^T in lexicographic pattern order.

    D[a, b] equals pattern_distance of the a-th and b-th patterns.  The
    overlap counts X X^T are at most n, so the float64 (BLAS) product is
    exact; D is in the smallest unsigned integer type holding k.  Every
    N x N builder of the package repeats one (n, k) (a Gram matrix and its
    certificate, the k+1 projectors of one scheme), so the cache keeps a
    single matrix (25 MB at the Gram size cap, N = 5000), shared and
    read-only: copy it to modify it.
    """
    X = pattern_indicator(n, k).astype(np.float64)
    D = (k - X @ X.T).astype(np.min_scalar_type(k))
    D.flags.writeable = False
    return D
