"""The universal protocol: success probability when the reference and
anomalous states are unknown.

The closed form is a sum over bipartitions (n-l, l), l = 0..k, of ratios
of unitary-group and symmetric-group irrep dimensions, evaluated in
exact integer arithmetic by Horner's rule.  The averages over the overlap
distribution use Gauss-Legendre quadrature: QUADRATURE_POINTS points on
u = c^2, exact for the polynomial integrand of average_known_success, and
for average_min_error_curve, whose integrand is not smooth in u, graded
composite panels in t = sqrt(1 - u), within 3e-16 of 40-digit mpmath at
k = 1.
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
PANEL_POINTS = 16  # Gauss-Legendre points per panel of average_min_error_curve


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
    """Known-states minimum-error success averaged over the overlap measure.

    With u = c^2 = 1 - t^2 the average is the integral over 0 <= t <= 1 of
    2(d-1) t^(2d-3) P(c), P the min_error_success value.  The substitution
    removes the sqrt(1-u) factors at u = 1 (t = 0), where the smallest
    eigenvalue is t^(2k).  What is left is analytic on [0, 1], but the
    eigenvalues' square roots branch at u of order -1/n, so at t just
    beyond 1, by about 1/(2n).  The panels of the composite PANEL_POINTS-point
    Gauss-Legendre rule therefore halve toward t = 1, down to one of width
    at most 1/(2n): each panel is no wider than its distance to the branch
    point.  Nodes are placed in s = 1 - t, and c^2 = s(2 - s) is formed
    without cancellation.  Against 40-digit mpmath on the exact k = 1 form
    the result was within 3e-16 for n from 2 to 10^5 and d = 2, 3, 7; a
    64-point rule on u was 2.2e-7 off at (10, 1, 2) and 7.6e-8 at (100, 1, 2).
    """
    n, k, d = _count(n, "n"), _count(k, "k"), _count(d, "d")
    if d < 2 or k < 0:
        raise ValueError(f"need d >= 2 and k >= 0, got d={d}, k={k}")
    if k in (0, n) and n >= 1:  # P = 1, which the rule alone would pass (2e-14 at (50, 0, 1000))
        return 1.0
    x, w = np.polynomial.legendre.leggauss(PANEL_POINTS)
    halvings = max(1, (2 * n - 1).bit_length())  # ceil(log2(2n)) for n >= 1
    edges = np.array([0.0, *(2.0**-p for p in range(halvings, 0, -1)), 1.0])
    half = np.diff(edges)[:, None] / 2  # one row per panel
    s = (edges[:-1, None] + half * (x + 1)).ravel()
    vals = np.array([min_error_success(ProblemInstance(n=n, k=k, c=math.sqrt(z))).value
                     for z in (s * (2 - s)).tolist()])
    return float(np.sum((half * w).ravel() * 2 * (d - 1) * (1 - s) ** (2 * d - 3) * vals))
