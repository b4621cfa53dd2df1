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

import functools
import math
import numbers
from itertools import combinations

import numpy as np

__all__ = [
    "binomial",
    "enumerate_patterns",
    "pattern_indicator",
    "distance_matrix",
]

GRAM_SIZE_CAP = 5000  # largest N = C(n, k) for which an N x N matrix is built
NK_CACHE_SIZE = 96  # entries per (n, k) cache; verify --max-n 14 walks 79 (n, k) per row


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


def _nbytes(item) -> int:
    """Bytes of the arrays and byte strings in item, the members of tuples included."""
    if isinstance(item, tuple):
        return sum(map(_nbytes, item))
    return len(item) if isinstance(item, bytes) else getattr(item, "nbytes", 0)


def _fits(nbytes: int) -> bool:
    """Whether nbytes fit the byte bound of a _bounded_cache: one uint8 D at the Gram size cap."""
    return nbytes <= GRAM_SIZE_CAP**2


def _bounded_cache(build):
    """build, its results kept read-only per argument tuple, least recently used first.

    A miss makes every array of the value read-only, tuple members included,
    and keeps the entry if its bytes, those of the arrays and byte strings of
    key and value, fit the byte bound alone; it then evicts the least recently
    used until at most NK_CACHE_SIZE entries of at most GRAM_SIZE_CAP^2 bytes
    remain.  A hit moves its entry to the most recently used end.  The dict is
    the wrapper's `cache`.  Threads may share it: a miss snapshots the entries
    and every pop has a default, so at worst a value is built twice.
    """
    entries = {}

    @functools.wraps(build)
    def cached(*key):
        if (value := entries.pop(key, None)) is not None:
            entries[key] = value
            return value
        value = build(*key)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        if _fits(_nbytes((key, value))):
            entries[key] = value
            held = list(entries.items())  # least recently used first
            total = sum(map(_nbytes, held))
            while len(held) > NK_CACHE_SIZE or not _fits(total):
                old = held.pop(0)
                entries.pop(old[0], None)
                total -= _nbytes(old)
        return value

    cached.cache = entries
    return cached


def distance_matrix(n: int, k: int) -> np.ndarray:
    """All subset distances at once: D = k - X X^T in lexicographic pattern order.

    D[a, b] is the subset distance k - |r ∩ s| of the a-th and b-th patterns
    r and s.  The overlap counts X X^T are at most n, so the float64 (BLAS)
    product is exact; D is in the smallest unsigned type holding its largest
    entry m = min(k, n - k), uint8 under the Gram size cap.  A non-integer or
    bool n or k raises ValueError, cached or not.  Each (n, k) is built once and
    shared read-only (copy D to modify it) by a _bounded_cache.  A miss with
    N = C(n, k) > GRAM_SIZE_CAP raises ValueError before any pattern is
    enumerated, so no N x N object is built beyond the cap.
    """
    if not (type(n) is type(k) is int):  # skips the ABC checks
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (n, k)):
            raise ValueError(f"distance_matrix: n and k must be integers, got n={n!r}, k={k!r}")
        n, k = int(n), int(k)
    return _distances(n, k)


@_bounded_cache
def _distances(n: int, k: int) -> np.ndarray:
    """D for integer n and k, built on a miss of distance_matrix."""
    N = binomial(n, k)
    if N > GRAM_SIZE_CAP:
        raise ValueError(f"Gram size {N} exceeds cap {GRAM_SIZE_CAP}")
    X = pattern_indicator(n, k).astype(np.float64)
    return (k - X @ X.T).astype(np.min_scalar_type(min(k, n - k)))
