"""Exact integer primitives: binomials, k-subset patterns and their
distance matrix.

Everything here is pure and exact: results are ints or integer arrays.
Anomaly patterns are sorted tuples of 1-based positions, kept in
lexicographic order throughout the package so that matrix rows have a
deterministic meaning; distance_matrix gives all pairwise subset
distances in that order, the one object every explicit N x N matrix of
the package is gathered from (cached per (n, k), read-only), and so the
one place that refuses a pattern-indexed N x N object with N > GRAM_SIZE_CAP.
"""

from __future__ import annotations

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

GRAM_SIZE_CAP = 5000  # largest N = C(n, k) for which an N x N matrix is built


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


def pattern_indicator(n: int, k: int) -> np.ndarray:
    """C(n, k) x n 0/1 matrix X: row a marks the positions of the a-th pattern.

    A fresh array on each call, the caller's to modify: the package calls it
    only when distance_matrix or the oracle's sector layout builds its
    cached (n, k) structure.
    """
    pats = enumerate_patterns(n, k)
    X = np.zeros((len(pats), n), dtype=np.uint8)
    cols = np.array(pats, dtype=np.intp).reshape(len(pats), k) - 1
    X[np.arange(len(pats))[:, None], cols] = 1
    return X


_distances: dict[tuple[int, int], np.ndarray] = {}  # (n, k) -> D, least recently used first


def distance_matrix(n: int, k: int) -> np.ndarray:
    """All subset distances at once: D = k - X X^T in lexicographic pattern order.

    D[a, b] equals pattern_distance of the a-th and b-th patterns.  The
    overlap counts X X^T are at most n, so the float64 (BLAS) product is
    exact; D is in the smallest unsigned integer type holding k.  Each
    (n, k) is built once and shared, read-only (copy it to modify it):
    the cache keeps the 32 most recently used matrices, fewer when they
    would hold more than GRAM_SIZE_CAP^2 bytes (one D at the Gram size
    cap, N = 5000), but always the one just returned.  A miss with
    N = C(n, k) > GRAM_SIZE_CAP raises ValueError before any pattern is
    enumerated, so no N x N object is built beyond the cap.
    """
    key = (n, k)
    D = _distances.pop(key, None)
    if D is not None:
        _distances[key] = D  # now the most recently used
        return D
    N = binomial(n, k)
    if N > GRAM_SIZE_CAP:
        raise ValueError(f"Gram size {N} exceeds cap {GRAM_SIZE_CAP}")
    X = pattern_indicator(n, k).astype(np.float64)
    D = (k - X @ X.T).astype(np.min_scalar_type(k))
    D.flags.writeable = False
    _distances[key] = D
    # snapshots and pop with a default: threads sharing the cache can neither
    # raise here nor get a wrong matrix, at worst build one twice
    for old in list(_distances)[:-1]:
        held = sum(M.nbytes for M in list(_distances.values()))
        if len(_distances) <= 32 and held <= GRAM_SIZE_CAP**2:
            break
        _distances.pop(old, None)
    return D
