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
from functools import lru_cache

import numpy as np

from .combin import binomial, distance_matrix
from .gram import ProblemInstance, _log_spectrum, direct_spectrum, gram_matrix
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

    Each term is formed in logs, exp(log m_j - log N + log(lambda_j)/2),
    so N and lambda_j may lie beyond the float range while the value,
    which is at most 1, does not.
    """
    log_N = math.log(instance.N)
    total = math.fsum(
        math.exp(math.log(m) - log_N + log_value / 2)
        for m, log_value in _log_spectrum(instance)
    )
    return ProtocolResult(value=total * total, method="closed-form", instance=instance)


def min_error_asymptotic(instance: ProblemInstance) -> ProtocolResult:
    """Two leading terms of the large-n expansion of the minimum-error value.

    (1-c^2)^k + 2 k c (1-c^2)^(k-1/2) / sqrt(n).  Not clamped to [0, 1];
    warns when k/n > 0.1.
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
    value = q**k + 2 * k * c * q ** (k - 0.5) / math.sqrt(n)
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
    """
    k = min(instance.k, instance.n - instance.k)
    value = float((1 - Fraction(instance.c2)) ** k)
    return ProtocolResult(value=value, method="closed-form", instance=instance)


def _dual_witness(n: int, k: int, coeffs: tuple[Fraction, ...], D: np.ndarray) -> np.ndarray:
    """Y = (N/m_m) E_m, m = min(k, n-k), from E_m's exact entry per subset distance."""
    scale = binomial(n, k) / multiplicity(n, min(k, n - k))
    return np.array([float(x) for x in coeffs])[D] * scale


@lru_cache(maxsize=256)
def _dual_witness_checks(n: int, k: int, coeffs: tuple[Fraction, ...]) -> tuple[bool, float]:
    """(diag(Y) = 1 exactly, lambda_min(Y)) for the witness of _dual_witness.

    Neither depends on the overlap, so each (n, k, coefficients) key is
    checked once; the entry holds two scalars, not Y.
    """
    N, m_m = binomial(n, k), multiplicity(n, min(k, n - k))
    D = distance_matrix(n, k)
    # diag(Y) = 1 exactly, read at each distance that occurs on the diagonal of D
    diag_ok = all(coeffs[d] * N == m_m for d in np.unique(np.diagonal(D)))
    return diag_ok, float(direct_spectrum(_dual_witness(n, k, coeffs, D))[-1])


def verify_unambiguous_certificates(instance: ProblemInstance) -> CertificateReport:
    """Check the primal/dual optimality certificates of the zero-error value.

    With m = min(k, n-k) (complement symmetry, as in unambiguous_success):
    primal: the ansatz with all conditional probabilities equal to
    lambda_min = (1-c^2)^m is feasible iff G - lambda_min * I is PSD.
    Dual: the witness Y = (N/m_m) E_m built from the minimal-eigenspace
    projector has unit diagonal (checked exactly on the projector's
    rational coefficients), is PSD, and gives tr(G Y)/N = lambda_min.
    Both PSD tests allow eigenvalues down to -CERTIFICATE_TOL (scaled by
    max |G| for the primal).  Endpoints c = 0 and c = 1 are handled
    analytically.  Y does not depend on c: its diagonal test and minimum
    eigenvalue run once per (n, k) (_dual_witness_checks), and Y itself
    is rebuilt for tr(G Y).
    """
    n, k = instance.n, instance.k
    m = min(k, n - k)
    N = instance.N
    c = float(instance.c)
    if c == 0.0:
        return CertificateReport(True, True, 1.0, 1.0, 0.0)
    if c == 1.0:
        # identical hypotheses: zero-error value collapses to 0
        return CertificateReport(True, True, 0.0, 0.0, 0.0)

    lam_min = float((1 - Fraction(instance.c2)) ** m)
    G = np.array(gram_matrix(instance), dtype=float)
    scale = max(1.0, np.abs(G).max())

    shifted_min = direct_spectrum(G - lam_min * np.eye(N))[-1]
    primal_feasible = bool(shifted_min >= -CERTIFICATE_TOL * scale)

    coeffs = _projector_coefficients(n, k, m)  # exact E_m entry per subset distance
    diag_ok, y_min = _dual_witness_checks(n, k, coeffs)
    dual_value = float(np.tensordot(G, _dual_witness(n, k, coeffs, distance_matrix(n, k))) / N)
    dual_feasible = bool(diag_ok and y_min >= -CERTIFICATE_TOL)

    return CertificateReport(
        primal_feasible=primal_feasible,
        dual_feasible=dual_feasible,
        primal_value=lam_min,
        dual_value=dual_value,
        gap=abs(lam_min - dual_value),
    )
