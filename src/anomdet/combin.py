"""Exact integer/rational primitives: binomials, k-subset patterns and
their distance matrix, and terminating hypergeometric series.

Everything here is pure and exact: results are ints, Fractions or
integer arrays.  Anomaly patterns are sorted tuples of 1-based positions,
kept in lexicographic order throughout the package so that matrix rows
have a deterministic meaning; distance_matrix gives all pairwise subset
distances in that order, the one object every explicit N x N matrix of
the package is indexed by.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

Rational = int | Fraction

__all__ = [
    "binomial",
    "enumerate_patterns",
    "pattern_distance",
    "pattern_indicator",
    "distance_matrix",
    "hypergeometric_terminating",
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


def distance_matrix(n: int, k: int) -> np.ndarray:
    """All subset distances at once: D = k - X X^T in lexicographic pattern order.

    D[a, b] equals pattern_distance of the a-th and b-th patterns.  The
    overlap counts X X^T are at most n, so the float64 (BLAS) product is
    exact; D is returned in the smallest unsigned integer type holding k.
    """
    X = pattern_indicator(n, k).astype(np.float64)
    return (k - X @ X.T).astype(np.min_scalar_type(k))


def _termination_index(numerators: Sequence[Rational]) -> int:
    cutoffs = [
        int(-a)
        for a in (Fraction(a) for a in numerators)
        if a <= 0 and a.denominator == 1
    ]
    if not cutoffs:
        raise ValueError(
            "hypergeometric_terminating: no non-positive-integer numerator "
            "parameter, series does not terminate"
        )
    return min(cutoffs)


def hypergeometric_terminating(
    numerators: Sequence[Rational],
    denominators: Sequence[Rational],
    z: Rational,
) -> Fraction:
    """Exact pFq(a_1..a_p; b_1..b_q; z) for a terminating series.

    Some numerator parameter must be a non-positive integer -m; the sum
    then runs over 0..m.  Denominator parameters that would produce a
    zero Pochhammer factor before the cut-off are rejected.
    """
    cutoff = _termination_index(numerators)
    for b in (Fraction(b) for b in denominators):
        if b <= 0 and b.denominator == 1 and -int(b) < cutoff:
            raise ValueError(
                f"hypergeometric_terminating: denominator parameter {b} "
                f"vanishes before termination at m={cutoff}"
            )
    z = Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    nums = [Fraction(a) for a in numerators]
    dens = [Fraction(b) for b in denominators]
    for m in range(cutoff + 1):
        total += term
        if m == cutoff:
            break
        # ratio of term m+1 to term m
        for a in nums:
            term *= a + m
        for b in dens:
            term /= b + m
        term *= z
        term /= m + 1
    return total
