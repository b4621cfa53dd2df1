"""The universal protocol: success probability when the reference and
anomalous states are unknown.

The closed form is a sum over bipartitions (n-l, l), l = 0..k, of ratios
of unitary-group and symmetric-group irrep dimensions, evaluated in
exact integer arithmetic by Horner's rule.  The averages over the overlap distribution
use QUADRATURE_POINTS-point Gauss-Legendre quadrature on u = c^2.  It is
exact for the polynomial integrand of average_known_success, but not for
that of average_min_error_curve, whose sqrt(1-u) factors are not smooth
at u = 1: with 64 points that average is about 2e-7 off at
(n, k, d) = (10, 1, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combin import binomial
from .gram import ProblemInstance, _count
from .protocols import min_error_success

__all__ = [
    "UniversalInstance",
    "universal_success",
    "universal_asymptote",
    "average_known_success",
    "average_min_error_curve",
]

QUADRATURE_POINTS = 64


@dataclass(frozen=True)
class UniversalInstance:
    """An unknown-states detection task: n preparations, k anomalies,
    local dimension d.  Each must be an integer (int or numpy integer,
    stored as int; not bool)."""

    n: int
    k: int
    d: int

    def __post_init__(self) -> None:
        if not type(self.n) is type(self.k) is type(self.d) is int:  # skips the ABC checks
            for field in ("n", "k", "d"):
                object.__setattr__(self, field, _count(getattr(self, field), field))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k must be in [0, n], got k={self.k}")
        if self.d < 2:
            raise ValueError(f"local dimension d must be >= 2, got {self.d}")


def universal_success(instance: UniversalInstance) -> Fraction:
    """Exact optimal success probability of the universal protocol.

    Sum over bipartitions (n-l, l), l = 0..k, of
      (n-2l+1)^2/(n-l+1)^2 * C(n-l+d-1,d-1)/C(n-k+d-1,d-1)
                           * C(n,l)/C(n,k) * C(l+d-2,d-2)/C(k+d-1,d-1).
    With c_l = (n-2l+1)^2/(n-l+1)^2 and T_l = C(n-l+d-1,d-1) C(n,l) C(l+d-2,d-2),
    the sum is T_0 H_0 / (C(n-k+d-1,d-1) C(n,k) C(k+d-1,d-1)) by Horner's rule:
    H_k = c_k, H_l = c_l + (T_{l+1}/T_l) H_{l+1}, where T_{l+1}/T_l =
    (n-l)^2 (l+d-1) / ((n-l+d-1)(l+1)^2).  H is kept as U/V in integers, so
    every product is a big integer times a small one; one Fraction at the end.
    """
    n, k, d = instance.n, instance.k, instance.d
    if n < 2 * k:
        raise ValueError(f"universal_success: requires n >= 2k, got n={n}, k={k}")
    U, V = (n - 2 * k + 1) ** 2, (n - k + 1) ** 2  # H_k = c_k
    for l in range(k - 1, -1, -1):
        a, b = (n - 2 * l + 1) ** 2, (n - l + 1) ** 2  # c_l = a/b
        up, down = (n - l) ** 2 * (l + d - 1), (n - l + d - 1) * (l + 1) ** 2  # T_{l+1}/T_l
        U, V = a * down * V + b * up * U, b * down * V
    return Fraction(binomial(n + d - 1, d - 1) * U, V * binomial(n - k + d - 1, d - 1)
                    * binomial(n, k) * binomial(k + d - 1, d - 1))


def universal_asymptote(k: int, d: int) -> Fraction:
    """Large-n limit (d-1)/(d-1+k) of the universal success probability."""
    k, d = _count(k, "k"), _count(d, "d")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return Fraction(d - 1, d - 1 + k)


def _overlap_quadrature():
    """Gauss-Legendre nodes/weights for u = c^2 on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_POINTS)
    return (x + 1) / 2, w / 2


def average_known_success(k: int, d: int) -> float:
    """Average of (1-c^2)^k over the overlap measure (d-1)(1-c^2)^(d-2) dc^2.

    Computed by quadrature; the Beta-integral closed form is
    universal_asymptote(k, d) = (d-1)/(d-1+k), and the
    average-overlap-quadrature check compares the two.
    """
    k, d = _count(k, "k"), _count(d, "d")
    if d < 2 or k < 0:
        raise ValueError(f"need d >= 2 and k >= 0, got d={d}, k={k}")
    u, w = _overlap_quadrature()
    return float(np.sum(w * (1 - u) ** k * (d - 1) * (1 - u) ** (d - 2)))


def average_min_error_curve(n: int, k: int, d: int) -> float:
    """Known-states minimum-error success averaged over the overlap measure."""
    n, k, d = _count(n, "n"), _count(k, "k"), _count(d, "d")
    if d < 2 or k < 0:
        raise ValueError(f"need d >= 2 and k >= 0, got d={d}, k={k}")
    u, w = _overlap_quadrature()
    density = (d - 1) * (1 - u) ** (d - 2)
    vals = np.array(
        [
            min_error_success(ProblemInstance(n=n, k=k, c=math.sqrt(ui))).value
            for ui in u
        ]
    )
    return float(np.sum(w * density * vals))
