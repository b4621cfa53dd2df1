"""Gram matrix of the anomaly hypotheses and its spectrum.

The Gram matrix has entries (c^2)^d with d the subset distance between
the two anomaly patterns.  Its min(k, n-k)+1 distinct eigenvalues are
Jacobi polynomials (DLMF 18.5.8), all given by one O(k) three-term
recurrence (DLMF 18.9.2) in the arithmetic of the overlap that
ProblemInstance stores: Python ints for a Fraction z = p/q (an int is stored
as one), with one Fraction per eigenvalue; logs of positive ratios for a
float, stable and with no big rational.  A dense eigendecomposition of an
explicit matrix, direct_spectrum, is an independent oracle; verify reads the
Gram spectrum off the explicit states' squared singular values instead.  A
Spectrum holds tuples of Python scalars: numpy enters only where an N x N object
is gathered from the distance matrix.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .combin import GRAM_SIZE_CAP, _counts, _multiplicities, distance_matrix

__all__ = [
    "ProblemInstance",
    "SpectrumEntry",
    "Spectrum",
    "gram_matrix",
    "closed_form_spectrum",
    "direct_spectrum",
]

Overlap = float | Fraction


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

    n and k are integers, n >= 1 and 0 <= k <= n (see combin._counts); m = min(k, n-k),
    stored once, is where every closed form is evaluated (complementing both
    patterns keeps their distance).  c is a real number in [0, 1], stored as a
    Fraction (exact Gram entries and spectrum; from an int or numpy integer too)
    or a float, as is c2 = c * c: every consumer reads its arithmetic off the
    stored type; an exact c outside [0, 1] is named by _short_fraction.  The
    float log spectrum is computed once per instance, on first use.
    """

    n: int
    k: int
    c: Overlap
    c2: Overlap = field(init=False, repr=False, compare=False)
    m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, k, _ = _counts(self.n, self.k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", min(k, n - k))
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

    @functools.cached_property
    def log_eigenvalues(self) -> tuple[float, ...]:
        """log lambda_j, j = 0..m, at the float c^2; the float path of
        closed_form_spectrum and min_error_success both read it."""
        return _log_eigenvalues(self.n, self.m, float(self.c2))


@dataclass(frozen=True)
class SpectrumEntry:
    j: int
    value: Overlap
    multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    """The min(k, n-k)+1 distinct Gram eigenvalues, largest (j=0) first.

    values[j] is lambda_j, of the instance overlap's type: a float, or a
    Fraction when the overlap is exact.  multiplicities[j] is m_j as an
    exact int.
    """

    instance: ProblemInstance
    values: tuple[Overlap, ...]
    multiplicities: tuple[int, ...]

    @property
    def entries(self) -> tuple[SpectrumEntry, ...]:
        """(j, lambda_j, m_j) per eigenvalue, built from the tuples on each access."""
        return tuple(SpectrumEntry(j, value, m) for j, (value, m)
                     in enumerate(zip(self.values, self.multiplicities)))

    def as_multiset(self) -> np.ndarray:
        """All N eigenvalues with repetition, descending.

        Raises ValueError, before allocating, when N exceeds GRAM_SIZE_CAP,
        the largest N of an explicit Gram matrix to compare it with.
        """
        N = sum(self.multiplicities)
        if N > GRAM_SIZE_CAP:
            raise ValueError(f"as_multiset: N = {N} eigenvalues exceed cap {GRAM_SIZE_CAP}")
        return np.sort(np.repeat(np.array(self.values, dtype=float), self.multiplicities))[::-1]


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


def _log_weights(n: int, k: int) -> tuple[float, ...]:
    """log(m_j / N) for j = 0..k, N = C(n, k), k <= n/2, without a big int.

    m_j / N = C(n, j) / C(n, k) * (n-2j+1) / (n-j+1).  The first factor's log is a
    Kahan-compensated running sum of log(C(n, j-1) / C(n, j)) = log(j / (n-j+1))
    downward from j = k; every term has the same sign, so the sum keeps the
    terms' relative accuracy.  m_0 = 1, so entry 0 is -log N.
    """
    log = math.log
    weights = [0.0] * (k + 1)
    total = comp = 0.0
    for j in range(k, 0, -1):
        weights[j] = total + log((n - 2 * j + 1) / (n - j + 1))
        y = log(j / (n - j + 1)) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    weights[0] = total
    return tuple(weights)


def _log_eigenvalues(n: int, k: int, z: float) -> tuple[float, ...]:
    """log lambda_j for j = 0..k, for a float z = c^2, k <= n/2.

    lambda_j = (1-z)^k P_{k-j}(x), P_d the Jacobi P_d^(0, b), b = n - 2k, x = (1+z)/(1-z)
    (DLMF 18.5.8).  Its recurrence (DLMF 18.9.2) runs on q_d = P_d/P_{d-1} - 1 from
    q_1 = (b+2)(x-1)/2: 2(d+1)(d+b+1) q_{d+1} = (s+1)(s+2)(x-1) + 2d(d+b)(s+2)/s * q_d/(1+q_d),
    s = 2d + b.  P_d(1) = 1 makes every term positive, so nothing cancels, and
    log lambda_j = k log(1-z) + sum_{d<=k-j} log(1+q_d).  Int quotients keep any n finite.
    """
    if z == 1.0:  # identical hypotheses: G = all-ones, lambda_0 = N, rest 0; log N = -w_0 (m_0 = 1)
        return (0.0 - _log_weights(n, k)[0],) + (-math.inf,) * k  # +0.0 at k = 0
    log1p = math.log1p
    b, half_w = n - 2 * k, z / (1 - z)  # half_w = (x-1)/2
    shift = 0.0 + k * log1p(-z)  # +0.0 at k = 0
    logs = [shift] * (k + 1)  # logs[k-d] = log P_d(x) + shift
    q, total, comp = (b + 2) * half_w, 0.0, 0.0
    for d in range(1, k + 1):
        y = log1p(q) - comp  # Kahan-compensated running sum
        t = total + y
        comp = (t - total) - y
        total = t
        logs[k - d] = t + shift
        s, e = 2 * d + b, (d + 1) * (d + b + 1)
        q = (s + 1) * (s + 2) / e * half_w + d * (d + b) * (s + 2) / (s * e) * (q / (1 + q))
    return tuple(logs)


def _exact_eigenvalues(n: int, k: int, z: Fraction) -> tuple[Fraction, ...]:
    """lambda_j for j = 0..k, for an exact z = p/q, k <= n/2: _log_eigenvalues's
    recurrence in ints, O(k) big-int steps.  With w = q - p, b = n - 2k, the int
    I_d = w^d P_d(x) = sum_i C(d, i) C(d+b+i, i) p^i w^(d-i) gives lambda_j = w^j I_{k-j} / q^k.
    From I_0 = 1, I_1 = w + (b+2)p, DLMF 18.9.2 times w^(d+1) steps, s = 2d + b >= 2,
    2(d+1)(d+b+1)s I_{d+1} = (s+1)((s+2)s(q+p) - b^2 w) I_d - 2d(d+b)(s+2)w^2 I_{d-1}.
    """
    p, q = z.numerator, z.denominator
    b, w = n - 2 * k, q - p
    I = [1, w + (b + 2) * p]
    for d in range(1, k):  # each division is exact: I_{d+1} is an int
        s, e = 2 * d + b, (d + 1) * (d + b + 1)
        I.append(((s + 1) * ((s + 2) * s * (q + p) - b * b * w) * I[d]
                  - 2 * d * (d + b) * (s + 2) * w * w * I[d - 1]) // (2 * e * s))
    qk, wj, values = q**k, 1, []
    for d in range(k, -1, -1):  # j = k - d
        values.append(Fraction(wj * I[d], qk))
        wj *= w
    return tuple(values)


def closed_form_spectrum(instance: ProblemInstance) -> Spectrum:
    """The distinct eigenvalues lambda_j with multiplicities m_j.

    lambda_j = (1-z)^k P_{k-j}(x), P_d the Jacobi P_d^(0, n-2k), z = c^2,
    x = (1+z)/(1-z), and m_j = C(n, j) - C(n, j-1).

    One recurrence, two arithmetics: an exact (Fraction) overlap gives exact
    Fraction eigenvalues from it in ints (_exact_eigenvalues); a float overlap
    gives float eigenvalues from it in log space (instance.log_eigenvalues), within 1e-11
    relative of the exact values (7e-12 at n = 2000, k = 500, c = 0.999,
    from the rounding of c^2; at most 5e-13 elsewhere up to n = 10^5).  There
    math.exp raises OverflowError exactly when lambda_0 exceeds the float range.

    The exact path has no size cap.  For c^2 = p/q it costs O(m) recurrence
    steps on integers of about m log2 q bits (q^m, the common denominator),
    then m + 1 Fraction reductions of that size: 0.66-0.75 s at
    (n, k, c) = (8000, 4000, 1/2), where q^m has 8001 bits (2-core x86-64,
    Python 3.11.7).  The float path costs O(m) float steps.

    Complementing both patterns preserves their subset distance, so the
    Gram matrices of k and n-k anomalies coincide; the formula is
    evaluated at instance.m = min(k, n-k), where it holds, giving m+1 entries.
    """
    n, k = instance.n, instance.m
    if instance.exact:
        values = _exact_eigenvalues(n, k, instance.c2)
    else:
        values = tuple(map(math.exp, instance.log_eigenvalues))
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


def direct_spectrum(matrix) -> np.ndarray:
    """Dense symmetric eigendecomposition oracle; eigenvalues descending."""
    M = _real_array(matrix, "direct_spectrum")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"direct_spectrum: expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"direct_spectrum: matrix is empty, shape {M.shape}")
    # both reductions propagate NaN and carry +-inf, so size is non-finite
    # exactly when some entry is
    size = float(max(np.maximum.reduce(M, axis=None), -np.minimum.reduce(M, axis=None)))
    if not math.isfinite(size):
        raise ValueError("direct_spectrum: matrix has NaN or infinite entries")
    # absolute tolerance only: max|M - M^T| <= 1e-12 max(1, max|M|); M - M^T is
    # antisymmetric (a - b = -(b - a) exactly), so its largest entry is its largest |entry|
    if np.maximum.reduce(M - M.T, axis=None) > 1e-12 * max(1.0, size):
        raise ValueError("direct_spectrum: matrix is not symmetric")
    return np.linalg.eigvalsh(M)[::-1]  # LAPACK returns them ascending

