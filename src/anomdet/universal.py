"""The universal protocol: success probability when the reference and
anomalous states are unknown.

The closed form is a sum over bipartitions (n-l, l), l = 0..min(k, n-k),
of ratios of unitary-group and symmetric-group irrep dimensions,
evaluated in exact integer arithmetic by Horner's rule.  The averages over the overlap
distribution use Gauss-Legendre quadrature: QUADRATURE_POINTS points on
u = c^2, exact for average_known_success's integrand up to degree 127, and
for average_min_error_curve, whose integrand is not smooth in u, graded
composite panels in t = sqrt(1 - u), within 3e-16 of 40-digit mpmath at
k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .combin import _counts
from .gram import ProblemInstance
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
UNIVERSAL_BITS_CAP = 150_000  # largest denominator universal_success may form, in bits


@dataclass(frozen=True)
class UniversalInstance:
    """An unknown-states detection task: n preparations, k anomalies, local
    dimension d; integers (int or numpy integer, stored as int; not bool)
    with n >= 1, 0 <= k <= n and d >= 2, as combin._counts checks them.
    m = min(k, n-k), stored once, is where the closed form is evaluated."""

    n: int
    k: int
    d: int
    m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in zip("nkd", _counts(self.n, self.k, self.d)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "m", min(self.k, self.n - self.k))


def universal_success(instance: UniversalInstance) -> Fraction:
    """Exact optimal success probability of the universal protocol.

    With m = min(k, n-k) (the value is the same for k and n-k), the sum over
    bipartitions (n-l, l), l = 0..m, of c_l R_l, where
      c_l = (n-2l+1)^2/(n-l+1)^2 and
      R_l = C(n-l+d-1,d-1)/C(n-m+d-1,d-1) * C(n,l)/C(n,m) * C(l+d-2,d-2)/C(m+d-1,d-1).
    R_m = (d-1)/(m+d-1) and R_{l-1}/R_l = (n-l+d) l^2 / ((n-l+1)^2 (l+d-2)),
    so by Horner's rule the sum is R_m H_m with H_0 = c_0 = 1 and
    H_l = c_l + (R_{l-1}/R_l) H_{l-1}.  H is kept as U/V in integers, so
    every product is a big integer times a small one; one Fraction at the end.

    ValueError is raised, before the loop, when V, the loop's denominator
    (and U <= (m+1) V, as H <= m + 1), could exceed UNIVERSAL_BITS_CAP bits:
    each step multiplies it by (n-l+1)^4 (l+d-2).  The slowest instances
    accepted took 0.12-0.14 s on a 2-core x86-64 box (Python 3.11), such as
    (65536, 1376, 2^40) and, the slowest of a scan, (2172, 1079, d near 2^90).
    """
    n, m, d = instance.n, instance.m, instance.d
    if m * (4 * (n + 1).bit_length() + (n + d).bit_length()) > UNIVERSAL_BITS_CAP:
        raise ValueError(f"universal_success: exact evaluation needs integers beyond "
                         f"{UNIVERSAL_BITS_CAP} bits, got n={n}, k={instance.k}, d={d}")
    U = V = 1  # H_0 = c_0
    for l in range(1, m + 1):
        a, b = (n - 2 * l + 1) ** 2, (n - l + 1) ** 2  # c_l = a/b
        up, down = (n - l + d) * l * l, b * (l + d - 2)  # R_{l-1}/R_l
        U, V = a * down * V + b * up * U, b * down * V
    return Fraction((d - 1) * U, (m + d - 1) * V)


def universal_asymptote(k: int, d: int) -> Fraction:
    """Large-n limit (d-1)/(d-1+k) of the universal success probability."""
    _, k, d = _counts(k=k, d=d)
    return Fraction(d - 1, d - 1 + k)


def average_known_success(k: int, d: int) -> float:
    """Average of (1-c^2)^k over the overlap measure (d-1)(1-c^2)^(d-2) dc^2.

    Computed by quadrature, exact up to degree k+d-2 = 2 QUADRATURE_POINTS - 1
    and refused with ValueError above it; the Beta-integral closed form is
    universal_asymptote(k, d) = (d-1)/(d-1+k), and the
    average-overlap-quadrature check compares the two.
    """
    _, k, d = _counts(k=k, d=d)
    if k + d - 2 > 2 * QUADRATURE_POINTS - 1:
        raise ValueError(f"average_known_success: degree k + d - 2 = {k + d - 2} exceeds "
                         f"{2 * QUADRATURE_POINTS - 1}, the largest its rule integrates exactly")
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_POINTS)
    u = (x + 1) / 2  # the nodes on u = c^2 in [0, 1], with weights w / 2
    return float(np.sum(w / 2 * (1 - u) ** k * (d - 1) * (1 - u) ** (d - 2)))


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
    n, k, d = _counts(n, k, d)
    if k in (0, n):  # P = 1, which the rule alone would pass (2e-14 at (50, 0, 1000))
        return 1.0
    x, w = np.polynomial.legendre.leggauss(PANEL_POINTS)
    halvings = max(1, (2 * n - 1).bit_length())  # ceil(log2(2n)) for n >= 1
    edges = np.array([0.0, *(2.0**-p for p in range(halvings, 0, -1)), 1.0])
    half = np.diff(edges)[:, None] / 2  # one row per panel
    s = (edges[:-1, None] + half * (x + 1)).ravel()
    vals = np.array([min_error_success(ProblemInstance(n=n, k=k, c=math.sqrt(z))).value
                     for z in (s * (2 - s)).tolist()])
    return float(np.sum((half * w).ravel() * 2 * (d - 1) * (1 - s) ** (2 * d - 3) * vals))
