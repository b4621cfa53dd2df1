"""Success probabilities for the known-states detection protocols.

Minimum-error value from the Gram spectrum, its two-term large-n
expansion, hand-expanded closed forms for one to three anomalies, the
unambiguous (zero-error) value, and verification of the semidefinite
optimality certificates for the latter.

Import rule: only the certificates' dual witness reads johnson, so
_dual_witness imports it, once per (n, k) on a cache miss.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .combin import _bounded_cache, _multiplicities, _number_text, binomial, distance_matrix
from .gram import ProblemInstance, _gram_powers, _log_weights

__all__ = [
    "ProtocolResult",
    "CertificateReport",
    "AsymptoticRegimeWarning",
    "min_error_success",
    "min_error_asymptotic",
    "explicit_success_k123",
    "unambiguous_success",
    "verify_unambiguous_certificates",
]

CERTIFICATE_TOL = 1e-10


class AsymptoticRegimeWarning(UserWarning):
    """The large-n expansion was evaluated outside its k/n << 1 regime."""


@dataclass(frozen=True)
class ProtocolResult:
    value: float
    method: str  # closed-form | asymptotic | oracle
    instance: ProblemInstance


@dataclass(frozen=True)
class CertificateReport:
    primal_feasible: bool
    dual_feasible: bool
    primal_value: float
    dual_value: float
    gap: float

    @property
    def optimal(self) -> bool:
        return self.primal_feasible and self.dual_feasible


def min_error_success(instance: ProblemInstance) -> ProtocolResult:
    """Optimal minimum-error success probability (sum_j (m_j/N) sqrt(lambda_j))^2.

    With K = instance.m = min(k, n-k) (complement symmetry), each weight comes
    as its log, log(m_j/N) from gram._log_weights, a running sum of log ratios:
    no big int is built, and N and lambda_j may lie beyond the float range
    while the value, which is at most 1, does not.  Against 50-digit mpmath
    at the same float c it was within 4e-14 relative in every case measured
    (3.5e-14 at n = 10^5, k = 500, c = 0.7; 1.0e-14 at (20000, 2000, 0.3);
    6e-16 at (60000, 20000, 0.05)).  Clamped to 1, which it passed by 2 ulp near c = 0.
    """
    exp = math.exp
    total = math.fsum(exp(log_weight + log_value / 2) for log_weight, log_value
                      in zip(_log_weights(instance.n, instance.m), instance.log_eigenvalues))
    return ProtocolResult(value=min(total * total, 1.0), method="closed-form", instance=instance)


def min_error_asymptotic(instance: ProblemInstance) -> ProtocolResult:
    """Two leading terms of the large-n expansion of the minimum-error value.

    (1-c^2)^k + 2 k c (1-c^2)^(k-1/2) / sqrt(n).  Not clamped to [0, 1];
    warns when k/n > 0.1.  At k = 0 the second term is 0 and the value is
    exactly 1, also at c = 1, where (1-c^2)^(-1/2) is undefined.
    """
    n, k = instance.n, instance.k
    if k >= n:
        raise ValueError("min_error_asymptotic: requires k < n")
    if k / n > 0.1:
        warnings.warn(f"k/n = {_number_text(k)}/{_number_text(n)} is outside the k/n << 1 "
                      "validity regime", AsymptoticRegimeWarning, stacklevel=2)
    c, q = float(instance.c), 1 - float(instance.c2)
    value = q**k
    if k:
        value += 2 * k * c * q ** (k - 0.5) / math.sqrt(n)
    return ProtocolResult(value=value, method="asymptotic", instance=instance)


def explicit_success_k123(instance: ProblemInstance) -> ProtocolResult:
    """Hand-expanded minimum-error closed forms for k = 1, 2, 3.

    Written out term by term (one term per distinct eigenvalue) with
    explicit binomial coefficients; agrees with min_error_success to
    machine precision, and is clamped to 1 as it is.
    """
    n, k = instance.n, instance.k
    z = float(instance.c2)
    s = math.sqrt
    if k == 1:
        amp = (n - 1) * s(1 - z) + s(1 + (n - 1) * z)
        value = amp * amp / n**2
    elif k == 2:
        if n < 3:
            raise ValueError("explicit_success_k123: k=2 needs n >= 3")
        amp = (
            (n - 3) / (n - 1) * (1 - z)
            + 2 / n * s(1 - z) * s(1 + (n - 3) * z)
            + 2 / (n * (n - 1)) * s(1 + 2 * (n - 2) * z + binomial(n - 2, 2) * z * z)
        )
        value = amp * amp
    elif k == 3:
        if n < 5:
            raise ValueError("explicit_success_k123: k=3 needs n >= 5")
        amp = (
            (n - 5) / (n - 2) * (1 - z) ** 1.5
            + 3 * (n - 3) / ((n - 1) * (n - 2)) * (1 - z) * s(1 + (n - 5) * z)
            + 6 / (n * (n - 2)) * s(1 - z)
            * s(1 + 2 * (n - 4) * z + binomial(n - 4, 2) * z * z)
            + 6 / (n * (n - 1) * (n - 2))
            * s(1 + 3 * (n - 3) * z + 3 * binomial(n - 3, 2) * z * z
                + binomial(n - 3, 3) * z**3)
        )
        value = amp * amp
    else:
        raise ValueError(f"explicit_success_k123: k must be 1, 2 or 3, got {_number_text(k)}")
    return ProtocolResult(value=min(value, 1.0), method="closed-form", instance=instance)


def unambiguous_success(instance: ProblemInstance) -> ProtocolResult:
    """Optimal zero-error success probability (1-c^2)^m = lambda_min(G), m = min(k, n-k).

    The Gram matrices of k and n-k anomalies coincide (complement symmetry).
    With c^2 = p/q the value is the correctly rounded double of (q-p)^m / q^m,
    for every m (m = 0 included) from _fixed_point_power, which never forms
    q^m: at c = 0.3 about 1 us at m = 0 and 10 us at m = 200 (2-core x86-64).
    """
    p, q = instance.c2.as_integer_ratio()
    return ProtocolResult(value=_fixed_point_power(q - p, q, instance.m), method="closed-form",
                          instance=instance)


def _fixed_point_power(a: int, q: int, m: int) -> float:
    """The correctly rounded double of (a/q)^m, 0 <= a <= q, from fixed-point bounds.

    At P fractional bits, lo <= (a/q)^m 2^P <= hi: lo starts at
    floor(a 2^P / q) and hi at its ceiling, and binary powering rounds every
    product down for lo and up for hi, so both bounds hold exactly.  Rounding
    is monotone, so when lo / 2^P and hi / 2^P (int true division, correctly
    rounded, subnormals and 0.0 included) round to the same double, that
    double is the value's; else P doubles.  The loop ends in one of two ways.
    If q = 2^e, every bound is exact once P >= m e, since each power
    (a/q)^j, j <= m, is then a multiple of 2^-P: lo = hi is the value, and
    its one quotient rounds a midpoint of two doubles, such as (3/4)^34, to even.
    Otherwise a^m / q^m is in lowest terms (a = q - p is prime to q) and not
    dyadic, so it is never a rounding boundary, which is a dyadic rational;
    every bound is at most 2^P, so the product of two pairs of widths w and
    w' has a width below w + w' + 2, and by induction on the exponent
    hi - lo < 3m: the bounds close in on the value as P grows.  A value below
    2^-1075 rounds to 0.0 from both bounds once P passes about
    1075 + log2(3m).  The integers hold at most 2P bits: P stays near
    64 + 2 log2(m) for a value near 1 and reaches about 1100 + log2(m) near
    the bottom of the float range; it grows past m q.bit_length(), the size
    of q^m, only for a value within about 3m 2^-P of a boundary.
    """
    P = 64 + 2 * m.bit_length()
    while True:
        lo, hi = _power_bounds(a, q, m, P)
        value = lo / (1 << P)
        if value == hi / (1 << P):
            return value
        P *= 2


def _power_bounds(a: int, q: int, m: int, P: int) -> tuple[int, int]:
    """(lo, hi) with lo <= (a/q)^m 2^P <= hi, by binary powering at P bits."""
    base_lo, rest = divmod(a << P, q)
    base_hi = base_lo + (rest > 0)
    lo = hi = 1 << P
    while True:
        if m & 1:
            lo, hi = (lo * base_lo) >> P, -(-(hi * base_hi) >> P)
        m >>= 1
        if not m:
            return lo, hi
        base_lo, base_hi = (base_lo * base_lo) >> P, -(-(base_hi * base_hi) >> P)


def _factors(values: np.ndarray, D: np.ndarray, shift: float) -> bool:
    """Whether Cholesky factorises the matrix with entry values[d] at distance d, its
    diagonal moved by shift: the PSD test of both certificates.  Distance 0 lies on
    the diagonal of D only, so values[0] takes the shift, in place."""
    values[0] += shift
    try:
        np.linalg.cholesky(values.take(D))
    except np.linalg.LinAlgError:
        return False
    return True


@_bounded_cache
def _dual_witness(n: int, k: int) -> tuple[bool, tuple[float, ...]]:
    """(whether the witness Y = (N/m_m) E_m is feasible, dual weights), m = min(k, n-k),
    from E_m's exact entry per subset distance.

    D's diagonal is 0, so diag(Y) = 1 is the exact test N coeffs[0] = m_m, and
    Y >= -CERTIFICATE_TOL is _factors on the witness entries y_d = N coeffs[d] / m_m,
    shifted by CERTIFICATE_TOL.
    The dual weight of distance d is |{(a, b): D_ab = d}| y_d / N, formed exactly
    from the class counts of D and rounded once; tr(G Y)/N = sum_d weight_d (c^2)^d.
    None of these depends on the overlap, so a _bounded_cache keeps them per
    (n, k): the verdict and m+1 weights, not Y.
    """
    from .johnson import _projector_coefficients

    D, m = distance_matrix(n, k), min(k, n - k)  # D first: a refused N builds no (n, k) table
    coeffs, N, m_m = _projector_coefficients(n, k, m), len(D), _multiplicities(n, m)[m]
    counts = np.bincount(D.ravel(), minlength=m + 1).tolist()
    weights = tuple(float(count * coeff / m_m) for count, coeff in zip(counts, coeffs))
    y = np.array([float(N * coeff / m_m) for coeff in coeffs])
    return coeffs[0] * N == m_m and _factors(y, D, CERTIFICATE_TOL), weights


def verify_unambiguous_certificates(instance: ProblemInstance) -> CertificateReport:
    """Check the primal/dual optimality certificates of the zero-error value.

    With m = min(k, n-k) (complement symmetry, as in unambiguous_success):
    primal: the ansatz with all conditional probabilities equal to
    lambda_min = (1-c^2)^m is feasible iff G - lambda_min * I is PSD.
    Dual: the witness Y = (N/m_m) E_m built from the minimal-eigenspace
    projector has unit diagonal (checked exactly on the projector's
    rational coefficients), is PSD, and gives tr(G Y)/N = lambda_min.
    Both PSD tests allow eigenvalues down to -CERTIFICATE_TOL, unscaled:
    every entry of G is a power (c^2)^d <= 1 and every entry of Y is at most
    1 in magnitude, with 1 on both diagonals.  Each is one Cholesky, _factors,
    so the primal test is whether G - (lambda_min - CERTIFICATE_TOL) I
    factorises.  Its rounding error, like that of an eigenvalue test, is about
    eps * ||G||_2 <= eps * N (a row sum bounds ||G||_2), far below that
    margin; the worst-case bound is N times larger.  Where G is the
    identity (c^2 = 0), all ones (c^2 = 1) or 1 x 1 (m = 0), lambda_min is
    attained exactly and both certificates are analytic; the branch reads
    the exact c^2.  For an exact overlap G is a float matrix too: its k+1
    exact powers rounded once.  Y does not depend on c: its verdict and the
    k+1 weights that give tr(G Y)/N from the powers (c^2)^d run once per
    (n, k), in _dual_witness.
    """
    n, k, m = instance.n, instance.k, instance.m
    lam_min = unambiguous_success(instance).value
    if m == 0 or instance.c2 in (0, 1):
        return CertificateReport(True, True, lam_min, lam_min, 0.0)

    D = distance_matrix(n, k)  # refuses N > GRAM_SIZE_CAP before any power is formed
    powers = _gram_powers(instance).astype(float)  # a copy: each exact power rounded once
    dual_feasible, weights = _dual_witness(n, k)
    dual_value = math.fsum(w * p for w, p in zip(weights, powers.tolist()))
    return CertificateReport(_factors(powers, D, CERTIFICATE_TOL - lam_min), dual_feasible,
                             lam_min, dual_value, abs(lam_min - dual_value))
