"""Success probabilities for the known-states detection protocols.

Minimum-error value from the Gram spectrum, its two-term large-n
expansion, hand-expanded closed forms for one to three anomalies, the
unambiguous (zero-error) value, and verification of the semidefinite
optimality certificates for the latter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combin import binomial, distance_matrix
from .gram import (
    ProblemInstance,
    _gram_powers,
    _log_binomial_ratios,
    _log_eigenvalues,
    direct_spectrum,
)
from .johnson import _projector_coefficients, multiplicity

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
WITNESS_CACHE_SIZE = 256  # (n, k) whose dual witness checks are kept


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

    With K = min(k, n-k) (complement symmetry), N = C(n, K) and
    m_j = C(n, j) (n-2j+1)/(n-j+1), so each weight comes from ratios:
    log(m_j/N) = log(C(n, j)/C(n, K)) + log((n-2j+1)/(n-j+1)), the first
    a Kahan-compensated running sum of log(j/(n-j+1)) downward from j = K.
    No big int is built, and N and lambda_j may lie beyond the float range
    while the value, which is at most 1, does not.  Against 50-digit mpmath
    at the same float c it was within 4e-14 relative in every case measured
    (3.5e-14 at n = 10^5, k = 500, c = 0.7; 1.0e-14 at (20000, 2000, 0.3);
    6e-16 at (60000, 20000, 0.05)).
    """
    n, k = instance.n, min(instance.k, instance.n - instance.k)
    log_values = _log_eigenvalues(n, k, float(instance.c2)).tolist()
    log, exp = math.log, math.exp
    total = math.fsum(
        exp(log_ratio + log((n - 2 * j + 1) / (n - j + 1)) + log_value / 2)
        for j, (log_ratio, log_value) in enumerate(zip(_log_binomial_ratios(n, k), log_values))
    )
    return ProtocolResult(value=total * total, method="closed-form", instance=instance)


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
        warnings.warn(
            f"k/n = {k}/{n} is outside the k/n << 1 validity regime",
            AsymptoticRegimeWarning,
            stacklevel=2,
        )
    c = float(instance.c)
    q = 1 - c * c
    value = q**k
    if k:
        value += 2 * k * c * q ** (k - 0.5) / math.sqrt(n)
    return ProtocolResult(value=value, method="asymptotic", instance=instance)


def explicit_success_k123(instance: ProblemInstance) -> ProtocolResult:
    """Hand-expanded minimum-error closed forms for k = 1, 2, 3.

    Written out term by term (one term per distinct eigenvalue) with
    explicit binomial coefficients; agrees with min_error_success to
    machine precision.
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
        raise ValueError(f"explicit_success_k123: k must be 1, 2 or 3, got {k}")
    return ProtocolResult(value=value, method="closed-form", instance=instance)


def unambiguous_success(instance: ProblemInstance) -> ProtocolResult:
    """Optimal zero-error success probability (1-c^2)^min(k, n-k) = lambda_min(G).

    The Gram matrices of k and n-k anomalies coincide (complement symmetry).
    With c^2 = p/q the value is the correctly rounded int quotient (q-p)^m / q^m.
    """
    k = min(instance.k, instance.n - instance.k)
    p, q = instance.c2.as_integer_ratio()
    return ProtocolResult(value=(q - p) ** k / q**k, method="closed-form", instance=instance)


def _dual_witness_checks(
    n: int, k: int, coeffs: tuple[Fraction, ...]
) -> tuple[bool, float, tuple[float, ...]]:
    """(diag(Y) = 1 exactly, lambda_min(Y), dual weights) for the witness
    Y = (N/m_m) E_m, m = min(k, n-k), from E_m's exact entry per subset distance.

    D's diagonal is 0, so diag(Y) = 1 is the exact test N coeffs[0] = m_m.
    The dual weight of distance d is |{(a, b): D_ab = d}| y_d / N, with
    y_d = N coeffs[d] / m_m the witness entry there, formed exactly from
    the class counts of D and rounded once; tr(G Y)/N = sum_d weight_d (c^2)^d.
    None of these depends on the overlap, so _dual_witness keeps the result
    per (n, k): two scalars and k+1 weights, not Y.
    """
    N, m_m = binomial(n, k), multiplicity(n, min(k, n - k))
    D = distance_matrix(n, k)
    counts = np.bincount(D.ravel(), minlength=k + 1).tolist()
    weights = tuple(float(count * coeff / m_m) for count, coeff in zip(counts, coeffs))
    Y = np.array([float(x) for x in coeffs]).take(D) * (N / m_m)
    return coeffs[0] * N == m_m, float(direct_spectrum(Y)[-1]), weights


_witness_by_nk: dict[tuple[int, int], tuple[tuple[Fraction, ...], tuple]] = {}


def _dual_witness(n: int, k: int, coeffs: tuple[Fraction, ...]) -> tuple[bool, float, tuple]:
    """_dual_witness_checks(n, k, coeffs), served from the last coefficients
    checked at (n, k) when they equal coeffs.

    _projector_coefficients returns the same tuple object on every call, so
    the tuple comparison finds each item identical and hashes or compares
    no Fraction.  Other coefficients (a changed projector) are checked
    afresh and replace the entry.  At most WITNESS_CACHE_SIZE (n, k) are
    held; the first one stored goes first.
    """
    key = (n, k)
    entry = _witness_by_nk.get(key)
    if entry is not None and entry[0] == coeffs:
        return entry[1]
    checks = _dual_witness_checks(n, k, coeffs)
    _witness_by_nk[key] = (coeffs, checks)
    # a snapshot and pop with a default, as in combin.distance_matrix: threads
    # sharing the cache can neither raise here nor get a wrong entry
    for old in list(_witness_by_nk)[:-WITNESS_CACHE_SIZE]:
        _witness_by_nk.pop(old, None)
    return checks


def verify_unambiguous_certificates(instance: ProblemInstance) -> CertificateReport:
    """Check the primal/dual optimality certificates of the zero-error value.

    With m = min(k, n-k) (complement symmetry, as in unambiguous_success):
    primal: the ansatz with all conditional probabilities equal to
    lambda_min = (1-c^2)^m is feasible iff G - lambda_min * I is PSD.
    Dual: the witness Y = (N/m_m) E_m built from the minimal-eigenspace
    projector has unit diagonal (checked exactly on the projector's
    rational coefficients), is PSD, and gives tr(G Y)/N = lambda_min.
    Both PSD tests allow eigenvalues down to -CERTIFICATE_TOL (scaled by
    max |G| for the primal, which is exactly 1: every entry is a power
    (c^2)^d <= 1, and the diagonal is (c^2)^0 = 1), so the primal test is
    whether Cholesky factorises G - (lambda_min - CERTIFICATE_TOL) I.  Its
    rounding error, like that of an eigenvalue test, is about
    eps * ||G||_2 <= eps * N (a row sum bounds ||G||_2), far below that
    margin; the worst-case bound is N times larger.  Where G is the
    identity (c^2 = 0), all ones (c^2 = 1) or 1 x 1 (m = 0), lambda_min is
    attained exactly and both certificates are analytic; the branch reads
    the exact c^2.  For an exact overlap G is a float matrix too: its k+1
    exact powers rounded once.  Y does not depend on c: its diagonal test,
    its minimum eigenvalue and the k+1 weights that give tr(G Y)/N from
    the powers (c^2)^d run once per (n, k) (_dual_witness_checks).  A
    later call at that (n, k) finds them by comparing its coefficient
    tuple with the one checked (_dual_witness), which hashes no Fraction.
    """
    n, k = instance.n, instance.k
    m = min(k, n - k)
    lam_min = unambiguous_success(instance).value
    if m == 0 or instance.c2 in (0, 1):
        return CertificateReport(True, True, lam_min, lam_min, 0.0)

    D = distance_matrix(n, k)  # refuses N > GRAM_SIZE_CAP before any power is formed
    powers = _gram_powers(instance).astype(float)  # a copy: each exact power rounded once

    coeffs = _projector_coefficients(n, k, m)  # exact E_m entry per subset distance
    diag_ok, y_min, weights = _dual_witness(n, k, coeffs)
    dual_value = math.fsum(w * p for w, p in zip(weights, powers.tolist()))
    dual_feasible = bool(diag_ok and y_min >= -CERTIFICATE_TOL)

    # distance 0 occurs on the diagonal of D only, so lowering (c^2)^0 gathers
    # G - (lambda_min - CERTIFICATE_TOL) I directly
    powers[0] -= lam_min - CERTIFICATE_TOL
    try:
        np.linalg.cholesky(powers.take(D))
        primal_feasible = True
    except np.linalg.LinAlgError:
        primal_feasible = False

    return CertificateReport(
        primal_feasible=primal_feasible,
        dual_feasible=dual_feasible,
        primal_value=lam_min,
        dual_value=dual_value,
        gap=abs(lam_min - dual_value),
    )
