"""Gram matrix of the anomaly hypotheses and its spectrum.

The Gram matrix has entries (c^2)^d with d the subset distance between
the two anomaly patterns.  Its min(k, n-k)+1 distinct eigenvalues come in
closed form as terminating 2F1 sums; a dense eigendecomposition of the
explicit matrix serves as the independent oracle.  ProblemInstance stores
c and c^2 once, as Fractions or as floats, and every consumer reads that
type.  The eigenvalues are evaluated on one of two paths:

* exact: a Fraction overlap z = p/q (an int is stored as one) gives exact
  rational eigenvalues, summed in Python ints (each term stepped from the
  last by small-integer factors) with one Fraction per eigenvalue;
* log-domain float: a float overlap gives float eigenvalues from one O(k)
  three-term Jacobi recurrence.  Every term in it is positive, so it is
  stable, and no big rational is built.

A Spectrum holds the k+1 eigenvalues as one array and their exact
multiplicities as one tuple; no object is built per eigenvalue.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .combin import GRAM_SIZE_CAP, distance_matrix

__all__ = [
    "ProblemInstance",
    "SpectrumEntry",
    "Spectrum",
    "gram_matrix",
    "closed_form_spectrum",
    "direct_spectrum",
]

Overlap = float | Fraction


def _count(value, field: str) -> int:
    """value as a Python int, for an int or numpy integer n, k or d.

    Raises ValueError naming `field` for anything else: a float such as
    5.0, a Fraction, or a bool (True is an int to Python, but never a
    count here).
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r} ({type(value).__name__})")


def _overlap(c) -> Overlap:
    """c as a Fraction if rational (int, numpy integer), else as a float if real
    (numpy float, Decimal); a 0-d array is read as its scalar.

    Raises ValueError naming c for a bool (True is no overlap) or a non-real
    c (str, None, complex).
    """
    if isinstance(c, np.ndarray) and c.ndim == 0:
        c = c.item()
    if isinstance(c, (bool, np.bool_)):
        raise ValueError(f"overlap c must not be a bool, got {c!r}")
    if isinstance(c, numbers.Rational):  # Fraction(np.int64(1)) would keep numpy ints inside
        return Fraction(int(c.numerator), int(c.denominator))
    if isinstance(c, (numbers.Real, Decimal)):
        return float(c)
    raise ValueError(f"overlap c must be a real number, got {c!r} ({type(c).__name__})")


EXACT_TEXT_BITS = 192  # numerator and denominator up to 58 digits print in full


def _short_fraction(c: Fraction) -> str:
    """c in full when its numerator and denominator have at most
    EXACT_TEXT_BITS bits, else its sign and decimal order, 'about -10^4299'.

    The order is round((bits(p) - bits(q)) log10 2), within one of log10|c|,
    read off the int bit lengths: no big int is converted to str, which
    beyond 4300 digits raises ValueError.
    """
    p, q = c.numerator, c.denominator
    if max(abs(p).bit_length(), q.bit_length()) <= EXACT_TEXT_BITS:
        return str(c)
    order = round((abs(p).bit_length() - q.bit_length()) * math.log10(2))
    return f"about {'-' if p < 0 else ''}10^{order}"


@dataclass(frozen=True)
class ProblemInstance:
    """A known-states detection task: n preparations, k anomalies, overlap c.

    n and k must be integers (int or numpy integer, stored as int; not
    bool).  c is a real number in [0, 1], stored as a Fraction (exact Gram
    entries and spectrum; from an int or numpy integer too) or a float, as is
    c2 = c * c: every consumer reads its arithmetic off the stored type.
    An exact c outside [0, 1] is named in the error by _short_fraction.
    """

    n: int
    k: int
    c: Overlap
    c2: Overlap = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.n) is not int:  # the common case skips the slower ABC check
            object.__setattr__(self, "n", _count(self.n, "n"))
        if type(self.k) is not int:
            object.__setattr__(self, "k", _count(self.k, "k"))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k must be in [0, n], got k={self.k}, n={self.n}")
        c = self.c
        if type(c) is not float and type(c) is not Fraction:
            c = _overlap(c)
            object.__setattr__(self, "c", c)
        if type(c) is Fraction:  # range and square on the int numerator and denominator q > 0
            p, q = c.numerator, c.denominator
            if not 0 <= p <= q:
                raise ValueError(f"overlap c must be in [0, 1], got {_short_fraction(c)}")
            object.__setattr__(self, "c2", Fraction(p * p, q * q))
        else:
            if not 0 <= c <= 1:
                raise ValueError(f"overlap c must be in [0, 1], got {c}")
            object.__setattr__(self, "c2", c * c)

    @property
    def N(self) -> int:
        return math.comb(self.n, self.k)  # __post_init__ holds 0 <= k <= n

    @property
    def exact(self) -> bool:
        return type(self.c) is Fraction


@dataclass(frozen=True)
class SpectrumEntry:
    j: int
    value: Overlap
    multiplicity: int


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The min(k, n-k)+1 distinct Gram eigenvalues, largest (j=0) first.

    values[j] is lambda_j: a float64 ndarray, or an object ndarray of
    Fractions when the instance overlap is exact (as gram_matrix returns).
    multiplicities[j] is m_j as an exact int.  Spectra compare by identity
    (eq=False): an ndarray field has no truth value.
    """

    instance: ProblemInstance
    values: np.ndarray
    multiplicities: tuple[int, ...]

    @property
    def entries(self) -> tuple[SpectrumEntry, ...]:
        """(j, lambda_j, m_j) per eigenvalue, built from the arrays on each access."""
        return tuple(SpectrumEntry(j, value, m) for j, (value, m)
                     in enumerate(zip(self.values.tolist(), self.multiplicities)))

    def as_multiset(self) -> np.ndarray:
        """All N eigenvalues with repetition, descending.

        Raises ValueError, before allocating, when N exceeds GRAM_SIZE_CAP,
        the largest N of an explicit Gram matrix to compare it with.
        """
        N = sum(self.multiplicities)
        if N > GRAM_SIZE_CAP:
            raise ValueError(f"as_multiset: N = {N} eigenvalues exceed cap {GRAM_SIZE_CAP}")
        return np.sort(np.repeat(self.values.astype(float), self.multiplicities))[::-1]


def gram_matrix(instance: ProblemInstance) -> np.ndarray:
    """Explicit N x N Gram matrix in lexicographic pattern order.

    Entry [a, b] is (c^2)^d for the subset distance d of patterns a and b:
    the k+1 distinct powers are computed once and gathered by the distance
    matrix.  Returns a float ndarray, or an object ndarray of Fractions
    when the instance overlap is exact.  distance_matrix refuses N above
    GRAM_SIZE_CAP, so no power is formed for a refused N.
    """
    D = distance_matrix(instance.n, instance.k)
    return _gram_powers(instance).take(D)


def _gram_powers(instance: ProblemInstance) -> np.ndarray:
    """The k+1 distinct Gram entries (c^2)^d, d = 0..k: floats, or Fractions
    for an exact overlap."""
    z, dtype = instance.c2, object if instance.exact else float
    return np.array([z**d for d in range(instance.k + 1)], dtype=dtype)


def _eigenvalue(j: int, n: int, k: int, z: Fraction) -> Fraction:
    """Exact lambda_j for k <= n/2, summed in integers from z = p/q.

    lambda_j = (1-z)^j sum_m C(k-j, m) C(n-k-j, m) z^m
             = (q-p)^j sum_m C(k-j, m) C(n-k-j, m) p^m q^(k-j-m) / q^k,
    which equals (1-z)^j 2F1(j-k, k+j-n; 1; z) with one Fraction at the end.
    Each integer term is the last one times (a-m)(b-m) p / ((m+1)^2 q),
    a division that is exact because both terms are integers.
    """
    p, q = z.numerator, z.denominator
    a, b = k - j, n - k - j
    total, term = 0, q**a
    for m in range(min(a, b) + 1):
        total += term
        term = term * ((a - m) * (b - m) * p) // ((m + 1) ** 2 * q)
    return Fraction((q - p) ** j * total, q**k)


def _log_binomial_ratios(n: int, k: int) -> list[float]:
    """log(C(n, j) / C(n, k)) for j = 0..k, k <= n/2, without a big int.

    A Kahan-compensated running sum of log(C(n, j-1) / C(n, j)) =
    log(j / (n-j+1)) downward from j = k; every term has the same sign, so
    the sum keeps the terms' relative accuracy.  Entry 0 is -log C(n, k).
    """
    log = math.log
    ratios = [0.0] * (k + 1)
    total = comp = 0.0
    for j in range(k, 0, -1):
        y = log(j / (n - j + 1)) - comp
        t = total + y
        comp = (t - total) - y
        total = ratios[j - 1] = t
    return ratios


def _log_eigenvalues(n: int, k: int, z: float) -> np.ndarray:
    """log lambda_j for j = 0..k, for a float z = c^2, k <= n/2.

    lambda_j = (1-z)^k P_{k-j}(x), P_d the Jacobi P_d^(0, b), b = n - 2k, x = (1+z)/(1-z)
    (DLMF 18.5.8).  Its recurrence (DLMF 18.9.2) runs on q_d = P_d/P_{d-1} - 1 from
    q_1 = (b+2)(x-1)/2: 2(d+1)(d+b+1) q_{d+1} = (s+1)(s+2)(x-1) + 2d(d+b)(s+2)/s * q_d/(1+q_d),
    s = 2d + b.  P_d(1) = 1 makes every term positive, so nothing cancels, and
    log lambda_j = k log(1-z) + sum_{d<=k-j} log(1+q_d).  Int quotients keep any n finite.
    """
    if z == 1.0:  # identical hypotheses: G = all-ones, lambda_0 = N, rest 0; log N without N
        return np.array([0.0 - _log_binomial_ratios(n, k)[0]] + [-math.inf] * k)  # +0.0 at k = 0
    log1p = math.log1p
    b, half_w = n - 2 * k, z / (1 - z)  # half_w = (x-1)/2
    logs = [0.0] * (k + 1)  # logs[k-d] = log P_d(x)
    q, total, comp = (b + 2) * half_w, 0.0, 0.0
    for d in range(1, k + 1):
        y = log1p(q) - comp  # Kahan-compensated running sum
        t = total + y
        comp = (t - total) - y
        total = logs[k - d] = t
        s, e = 2 * d + b, (d + 1) * (d + b + 1)
        q = (s + 1) * (s + 2) / e * half_w + d * (d + b) * (s + 2) / (s * e) * (q / (1 + q))
    return np.array(logs) + k * log1p(-z)


def _multiplicities(n: int, k: int) -> tuple[int, ...]:
    """m_j = C(n, j) - C(n, j-1) for j = 0..k, from one running binomial."""
    mults, below, binom = [], 0, 1
    for j in range(k + 1):
        mults.append(binom - below)
        below, binom = binom, binom * (n - j) // (j + 1)
    return tuple(mults)


def closed_form_spectrum(instance: ProblemInstance) -> Spectrum:
    """The distinct eigenvalues lambda_j with multiplicities m_j.

    lambda_j = (1-c^2)^j 2F1(j-k, -n+k+j; 1; c^2),
    m_j = C(n, j) - C(n, j-1).

    Two paths: an exact (Fraction) overlap gives exact Fraction eigenvalues
    (integer sums, _eigenvalue); a float overlap gives float eigenvalues
    from one O(k) recurrence in log space (_log_eigenvalues), within 1e-11
    relative of the exact values (7e-12 at n = 2000, k = 500, c = 0.999,
    from the rounding of c^2; at most 5e-13 elsewhere up to n = 10^5).
    On the float path OverflowError is raised exactly when lambda_0 does.

    Complementing both patterns preserves their subset distance, so the
    Gram matrices of k and n-k anomalies coincide; the formula is
    evaluated at min(k, n-k), where it holds, giving min(k, n-k)+1 entries.
    """
    n, k = instance.n, min(instance.k, instance.n - instance.k)
    if instance.exact:
        z = instance.c2
        values = np.array([_eigenvalue(j, n, k, z) for j in range(k + 1)], dtype=object)
    else:
        logs = _log_eigenvalues(n, k, instance.c2)
        # lambda_0 is the largest: math.exp raises OverflowError exactly when
        # it is beyond the float range, and otherwise np.exp cannot overflow
        math.exp(logs[0])
        values = np.exp(logs)
    return Spectrum(instance=instance, values=values, multiplicities=_multiplicities(n, k))


def _real_array(values, caller: str) -> np.ndarray:
    """values as a float array (not copied when it already is one); ValueError
    naming `caller` for complex input, whose imaginary parts it would drop."""
    if type(values) is np.ndarray and values.dtype.type is np.float64:
        return values
    A = np.asarray(values)
    if np.iscomplexobj(A):
        raise ValueError(f"{caller}: complex entries are not supported, got dtype {A.dtype}")
    return A.astype(float, copy=False)


def _finite_square(matrix, caller: str) -> tuple[np.ndarray, float]:
    """The matrix as a float array (not copied when it already is one), and its
    largest absolute entry.

    Raises ValueError, naming `caller`, unless the matrix is real, square,
    non-empty and finite.
    """
    M = _real_array(matrix, caller)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{caller}: expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"{caller}: matrix is empty, shape {M.shape}")
    # both reductions propagate NaN and carry +-inf, so size is non-finite
    # exactly when some entry is
    size = float(max(np.maximum.reduce(M, axis=None), -np.minimum.reduce(M, axis=None)))
    if not math.isfinite(size):
        raise ValueError(f"{caller}: matrix has NaN or infinite entries")
    return M, size


def direct_spectrum(matrix) -> np.ndarray:
    """Dense symmetric eigendecomposition oracle; eigenvalues descending."""
    M, size = _finite_square(matrix, "direct_spectrum")
    # absolute tolerance only: max|M - M^T| <= 1e-12 max(1, max|M|); M - M^T is
    # antisymmetric (a - b = -(b - a) exactly), so its largest entry is its largest |entry|
    if np.maximum.reduce(M - M.T, axis=None) > 1e-12 * max(1.0, size):
        raise ValueError("direct_spectrum: matrix is not symmetric")
    return np.linalg.eigvalsh(M)[::-1]  # LAPACK returns them ascending

