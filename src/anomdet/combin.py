"""Exact integer primitives: the one check of the counts, binomials, the
multiplicities m_j, k-subset patterns and their distance matrix.

Everything here is pure and exact: results are ints or integer arrays.
Anomaly patterns are sorted tuples of 1-based positions, kept in
lexicographic order throughout the package so that matrix rows have a
deterministic meaning; distance_matrix gives all pairwise subset
distances in that order, the one object every explicit N x N matrix of
the package is gathered from (cached per (n, k), read-only), and so the
one place that refuses a pattern-indexed N x N object with N > GRAM_SIZE_CAP.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
import sys
import threading
import types
from fractions import Fraction
from itertools import combinations

import numpy as np

__all__ = [
    "binomial",
    "enumerate_patterns",
    "pattern_indicator",
    "distance_matrix",
]

GRAM_SIZE_CAP = 5000  # largest N = C(n, k) for which an N x N matrix is built
# verify.CHECKS' scopes in run order, here so that the CLI lists them without importing verify
SCOPES = ("scheme", "gram", "detection", "universal")
_CACHES = []  # every memo of the package, each _bounded_cache as it is made


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


def _integer(x, field: str) -> int:
    """x as a Python int: every count and index check.  x must be an int or
    numpy integer, else ValueError names `field`: a float such as 5.0, a
    Fraction, or a bool (True is an int to Python, but never a count or index)."""
    if type(x) is int:  # skips the ABC checks
        return x
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError(f"{field} must be an integer, got {x!r} ({type(x).__name__})")
    return int(x)


def _counts(n=None, k=None, d=None) -> tuple[int | None, int | None, int | None]:
    """(n, k, d) as Python ints, None where not passed: every entry point's count check.

    Each goes through _integer, then is held to its range, one wording per
    rule: n >= 1; 0 <= k, and k <= n when n is passed; d >= 2.
    """
    if not (type(n) is type(k) is int and (d is None or type(d) is int)):  # skips the ABC checks
        n, k, d = (None if x is None else _integer(x, f) for x, f in zip((n, k, d), "nkd"))
    if n is not None and n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k is not None and (k < 0 or n is not None and k > n):
        raise ValueError(f"k must be in [0, n], got k={k}" + ("" if n is None else f", n={n}"))
    if d is not None and d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return n, k, d


def _multiplicities(n: int, k: int) -> tuple[int, ...]:
    """m_j = C(n, j) - C(n, j-1) for j = 0..k, k <= n/2, from one running binomial."""
    mults, below, binom = [], 0, 1
    for j in range(k + 1):
        mults.append(binom - below)
        below, binom = binom, binom * (n - j) // (j + 1)
    return tuple(mults)


def enumerate_patterns(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} in lexicographic order (C(n, k) of them)."""
    n, k, _ = _counts(n, k)
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
    """Bytes that item holds: an array's data (an object array's pointers), a Fraction
    as itself and its two ints, a tuple, NamedTuple, list or dict as itself and its
    members (dict keys included), anything else (int, float, bool, bytes) by sys.getsizeof."""
    if type(item) is Fraction:  # first: the tables hold many
        return sys.getsizeof(item) + sys.getsizeof(item.numerator) + sys.getsizeof(item.denominator)
    if isinstance(item, (tuple, list, dict)):
        members = [*item.keys(), *item.values()] if isinstance(item, dict) else item
        return sys.getsizeof(item) + sum(map(_nbytes, members))
    return item.nbytes if isinstance(item, np.ndarray) else sys.getsizeof(item)


def _bounded_cache(build):
    """build, its results kept read-only per argument tuple, least recently used first.

    The one memo of the package; each wrapper joins _CACHES.  Callers check
    the key; the builder trusts it, and a build that raises keeps nothing.
    A miss makes every array of the value read-only, tuple members included,
    and adds the _nbytes of key and value, every object they hold, to a
    running total.  The one bound is GRAM_SIZE_CAP^2 bytes, the data of one
    uint8 D at the Gram size cap: an entry that fits it alone is kept, then
    the least recently used go while the total is over it.  A value over the bound is returned and used, not kept, and
    evicts nothing: the bound is decided here alone, and no builder sizes its
    own value.  A hit moves its entry to the most recently used end.  The
    wrapper's `cache` is a read-only view of the entries (a MappingProxyType),
    so that no caller can empty it behind the running total; its `cache_clear`
    empties both.  Threads may share a cache: a miss keeps its books under a
    lock that a hit does not take, so at worst a value is built twice.
    """
    entries, sizes, lock = collections.OrderedDict(), {}, threading.Lock()
    held = 0  # bytes of the entries in sizes

    @functools.wraps(build)
    def cached(*key):
        nonlocal held
        if (value := entries.pop(key, None)) is not None:
            entries[key] = value
            return value
        value = build(*key)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        if (size := _nbytes((key, value))) <= (bound := GRAM_SIZE_CAP**2):
            with lock:
                held += size - sizes.get(key, 0)
                entries[key], sizes[key] = value, size
                # least recently used first; an entry that a hit has popped is out of reach
                while held > bound and entries:
                    old, _ = entries.popitem(last=False)
                    held -= sizes.pop(old, 0)
        return value

    def cache_clear():
        nonlocal held
        with lock:
            entries.clear()
            sizes.clear()
            held = 0

    cached.cache, cached.cache_clear = types.MappingProxyType(entries), cache_clear
    _CACHES.append(cached)
    return cached


def _clear_caches() -> None:
    """Empty every cache of _CACHES; a module not imported yet has none registered or filled."""
    for memo in _CACHES:
        memo.cache_clear()


def distance_matrix(n: int, k: int) -> np.ndarray:
    """All subset distances at once: D = k - X X^T in lexicographic pattern order.

    D[a, b] is the subset distance k - |r ∩ s| of the a-th and b-th patterns
    r and s.  The overlap counts X X^T are at most n, so the float64 (BLAS)
    product is exact; D is in the smallest unsigned type holding its largest
    entry m = min(k, n - k), uint8 under the Gram size cap.  Each (n, k) is
    built once and shared read-only (copy D to modify it) by a _bounded_cache.
    A miss with N = C(n, k) > GRAM_SIZE_CAP raises ValueError before any pattern
    is enumerated, so no N x N object is built beyond the cap.
    """
    n, k, _ = _counts(n, k)
    return _distances(n, k)


@_bounded_cache
def _distances(n: int, k: int) -> np.ndarray:
    """D for checked n and k, built on a miss of distance_matrix."""
    N = binomial(n, k)
    if N > GRAM_SIZE_CAP:
        raise ValueError(f"Gram size {N} exceeds cap {GRAM_SIZE_CAP}")
    X = pattern_indicator(n, k).astype(np.float64)
    return (k - X @ X.T).astype(np.min_scalar_type(min(k, n - k)))
