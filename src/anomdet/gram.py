"""Gram matrix of the anomaly hypotheses and its spectrum.

The Gram matrix has entries (c^2)^d with d the subset distance between
the two anomaly patterns.  Its min(k, n-k)+1 distinct eigenvalues come in
closed form as terminating 2F1 sums; a dense eigendecomposition of the
explicit matrix serves as the independent oracle.  The sums are evaluated
on one of two paths:

* exact: a Fraction (or int) overlap z = p/q gives exact rational
  eigenvalues, summed in Python ints with one Fraction per eigenvalue;
* log-domain float: a float overlap gives float eigenvalues, summed in
  log space from the term ratio.  Every term is positive, so this is
  stable; it costs O(k) per eigenvalue and never builds big rationals.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combin import binomial, distance_matrix

__all__ = [
    "ProblemInstance",
    "SpectrumEntry",
    "Spectrum",
    "gram_matrix",
    "closed_form_spectrum",
    "direct_spectrum",
]

GRAM_SIZE_CAP = 5000  # largest N = C(n, k) for which gram_matrix builds the N x N matrix
PSD_CLAMP = 1e-10  # relative size of negative eigenvalues _psd_eigh clamps to zero

Overlap = float | Fraction


@dataclass(frozen=True)
class ProblemInstance:
    """A known-states detection task: n preparations, k anomalies, overlap c.

    Pass c as a Fraction to get exact rational Gram entries and spectrum.
    """

    n: int
    k: int
    c: Overlap

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k must be in [0, n], got k={self.k}, n={self.n}")
        if not 0 <= self.c <= 1:
            raise ValueError(f"overlap c must be in [0, 1], got {self.c}")

    @property
    def N(self) -> int:
        return binomial(self.n, self.k)

    @property
    def c2(self) -> Overlap:
        return self.c * self.c

    @property
    def exact(self) -> bool:
        return isinstance(self.c, (Fraction, numbers.Integral))


@dataclass(frozen=True)
class SpectrumEntry:
    j: int
    value: Overlap
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """The min(k, n-k)+1 distinct Gram eigenvalues, largest (j=0) first."""

    instance: ProblemInstance
    entries: tuple[SpectrumEntry, ...]

    def as_multiset(self) -> np.ndarray:
        """All N eigenvalues with repetition, descending."""
        vals = []
        for e in self.entries:
            vals.extend([float(e.value)] * e.multiplicity)
        return np.sort(np.array(vals))[::-1]


def gram_matrix(instance: ProblemInstance):
    """Explicit N x N Gram matrix in lexicographic pattern order.

    Entry [a, b] is (c^2)^d for the subset distance d of patterns a and b:
    the k+1 distinct powers are computed once and indexed by the distance
    matrix.  Returns a float ndarray, or a nested list of Fractions when
    the instance overlap is exact.
    """
    N = instance.N
    if N > GRAM_SIZE_CAP:
        raise ValueError(f"Gram size {N} exceeds cap {GRAM_SIZE_CAP}")
    D = distance_matrix(instance.n, instance.k)
    z = instance.c2
    if instance.exact:
        z = Fraction(z)
        powers = np.array([z**d for d in range(instance.k + 1)], dtype=object)
        return powers[D].tolist()
    return np.array([z**d for d in range(instance.k + 1)])[D]


def _eigenvalue(j: int, n: int, k: int, z: Fraction) -> Fraction:
    """Exact lambda_j for k <= n/2, summed in integers from z = p/q.

    lambda_j = (1-z)^j sum_m C(k-j, m) C(n-k-j, m) z^m
             = (q-p)^j sum_m C(k-j, m) C(n-k-j, m) p^m q^(k-j-m) / q^k,
    which equals (1-z)^j 2F1(j-k, k+j-n; 1; z) with one Fraction at the end.
    """
    p, q = z.numerator, z.denominator
    a, b = k - j, n - k - j
    total, p_m = 0, 1
    for m in range(min(a, b) + 1):
        total += math.comb(a, m) * math.comb(b, m) * p_m * q ** (a - m)
        p_m *= p
    return Fraction((q - p) ** j * total, q**k)


def _log_eigenvalues(n: int, k: int, z: float) -> Iterator[float]:
    """log lambda_j for j = 0..k in turn, for a float z = c^2 and k <= n/2.

    lambda_j = (1-z)^j sum_m t_m with t_m = C(k-j, m) C(n-k-j, m) z^m > 0,
    so log t_m is a cumulative sum of the log term ratios
    t_{m+1}/t_m = (k-j-m)(n-k-j-m) z / (m+1)^2, and the sum is a
    logsumexp.  With i = j + m the ratio's log splits as u[i] + v[m], so
    row j is u[j:] + v[:k-j]; every temporary is one row of length <= k.
    The values are generated lazily: lambda_0, the largest, comes first.
    """
    if z == 0.0:  # orthogonal hypotheses: G = I
        yield from [0.0] * (k + 1)
        return
    if z == 1.0:  # identical hypotheses: G = all-ones, lambda_0 = N, rest 0
        yield math.log(binomial(n, k))
        yield from [-math.inf] * k
        return
    i = np.arange(k, dtype=np.float64)
    u = np.log((k - i) * (n - k - i))
    v = math.log(z) - 2 * np.log1p(i)
    log_1mz = math.log1p(-z)
    row = np.empty(k)
    for j in range(k + 1):
        terms = row[: k - j]  # log t_1 .. log t_{k-j}; log t_0 = 0
        np.add(u[j:], v[: k - j], out=terms)
        np.add.accumulate(terms, out=terms)
        peak = max(0.0, float(terms.max())) if len(terms) else 0.0
        np.subtract(terms, peak, out=terms)
        total = math.exp(-peak) + float(np.exp(terms, out=terms).sum())
        yield j * log_1mz + peak + math.log(total)


def _multiplicities(n: int, k: int) -> Iterator[int]:
    """m_j = C(n, j) - C(n, j-1) for j = 0..k, from one running binomial."""
    below, binom = 0, 1
    for j in range(k + 1):
        yield binom - below
        below, binom = binom, binom * (n - j) // (j + 1)


def _log_spectrum(instance: ProblemInstance) -> Iterator[tuple[int, float]]:
    """(m_j, log lambda_j) for j = 0..min(k, n-k), on the log-domain float path.

    Any overlap is taken as the float c^2 (an exact one is rounded), so
    each log is finite or -inf even where lambda_j or m_j lies beyond the
    float range.
    """
    n, k = instance.n, min(instance.k, instance.n - instance.k)
    return zip(_multiplicities(n, k), _log_eigenvalues(n, k, float(instance.c2)))


def closed_form_spectrum(instance: ProblemInstance) -> Spectrum:
    """The distinct eigenvalues lambda_j with multiplicities m_j.

    lambda_j = (1-c^2)^j 2F1(j-k, -n+k+j; 1; c^2),
    m_j = C(n, j) - C(n, j-1).

    Two paths: a Fraction or int overlap gives exact Fraction eigenvalues
    (integer sums, _eigenvalue); a float overlap gives float eigenvalues
    summed in log space (_log_eigenvalues), within ~1e-12 relative of the
    exact values.  On the float path OverflowError is raised as soon as
    lambda_0, the largest, turns out to exceed the float range.

    Complementing both patterns preserves their subset distance, so the
    Gram matrices of k and n-k anomalies coincide; the formula is
    evaluated at min(k, n-k), where it holds, giving min(k, n-k)+1 entries.
    """
    n, k = instance.n, min(instance.k, instance.n - instance.k)
    if instance.exact:
        z = Fraction(instance.c2)
        values: Iterator[Overlap] = (_eigenvalue(j, n, k, z) for j in range(k + 1))
    else:
        values = map(math.exp, _log_eigenvalues(n, k, float(instance.c2)))
    entries = (
        SpectrumEntry(j=j, value=value, multiplicity=m)
        for j, (value, m) in enumerate(zip(values, _multiplicities(n, k)))
    )
    return Spectrum(instance=instance, entries=tuple(entries))


def _finite_square(matrix, caller: str) -> tuple[np.ndarray, float]:
    """The matrix as a float array, and its largest absolute entry.

    Raises ValueError, naming `caller`, unless the matrix is square,
    non-empty and finite.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{caller}: expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"{caller}: matrix is empty, shape {M.shape}")
    size = float(np.abs(M).max())  # non-finite exactly when some entry is
    if not math.isfinite(size):
        raise ValueError(f"{caller}: matrix has NaN or infinite entries")
    return M, size


def direct_spectrum(matrix) -> np.ndarray:
    """Dense symmetric eigendecomposition oracle; eigenvalues descending."""
    M, size = _finite_square(matrix, "direct_spectrum")
    # absolute tolerance only: max|M - M^T| <= 1e-12 max(1, max|M|)
    if np.abs(M - M.T).max() > 1e-12 * max(1.0, size):
        raise ValueError("direct_spectrum: matrix is not symmetric")
    return np.sort(np.linalg.eigvalsh(M))[::-1]


def _psd_eigh(G) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (clamped to >= 0) and eigenvectors of a symmetric PSD matrix.

    Eigenvalues in [-PSD_CLAMP * scale, 0) are clamped to zero (rank
    collapse near c = 1); materially negative eigenvalues, NaN or
    infinite entries and empty or non-square input are rejected.
    """
    M, size = _finite_square(G, "_psd_eigh")
    scale = max(1.0, size)
    vals, vecs = np.linalg.eigh((M + M.T) / 2)
    if vals.min() < -PSD_CLAMP * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {vals.min()})")
    return np.clip(vals, 0.0, None), vecs
