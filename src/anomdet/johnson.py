"""Johnson association scheme machinery.

Adjacency matrices of the generalized Johnson graphs on k-subsets of
{1..n} (indexed by subset distance), the Bose-Mesner algebra they span,
Hahn polynomial values, the eigenmatrices P and Q, and the orthogonal
projector basis E_j.

Index conventions used throughout:
  * A_i connects patterns at subset distance i (so A_0 is the identity).
  * Eigenvalue index j runs 0..k with multiplicity m_j = C(n,j) - C(n,j-1);
    j = 0 is the Perron eigenvalue (all-ones eigenvector).
  * Hahn polynomials carry parameters (-n+k-1, -k-1, k): this is the
    parameter set that simultaneously reproduces the known degree-1
    closed form 1 - n x / (k(n-k)) and the adjacency spectra, and it is
    validated against a dense eigensolver in the tests.  Each value is
    its terminating 3F2 summed by Horner's rule in integers, with one
    Fraction at the end.
  * The closure check forms A_i A_j for i <= j only: the A_i are
    symmetric, so a product in their span is symmetric too and the
    algebra is commutative (Delsarte 1973).
  * The coefficients of E_j depend on (n, k, j) only, never on an
    overlap; they are computed once and shared by the float and exact
    projectors and by the unambiguous certificates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combin import binomial, distance_matrix

__all__ = [
    "SchemeBasis",
    "Eigenmatrices",
    "SchemeClosureError",
    "valency",
    "multiplicity",
    "scheme_basis",
    "hahn_polynomial",
    "eigenmatrices",
    "scheme_projector",
    "scheme_projector_exact",
    "verify_bose_mesner_closure",
]


class SchemeClosureError(Exception):
    """A product of adjacency matrices left the span of the scheme."""


@dataclass(frozen=True)
class SchemeBasis:
    """The k+1 adjacency matrices of the scheme on k-subsets of {1..n}."""

    n: int
    k: int
    adjacency: tuple[np.ndarray, ...]  # A_0..A_k, each N x N of 0/1


@dataclass(frozen=True)
class Eigenmatrices:
    """Exact eigenmatrices: P[j][i] = p_i(j), Q[i][j] = q_j(i)."""

    n: int
    k: int
    P: tuple[tuple[Fraction, ...], ...]
    Q: tuple[tuple[Fraction, ...], ...]


def valency(n: int, k: int, i: int) -> int:
    """Number of patterns at distance i from a fixed pattern."""
    return binomial(k, i) * binomial(n - k, i)


def multiplicity(n: int, j: int) -> int:
    """Multiplicity m_j = C(n, j) - C(n, j-1) of the j-th eigenvalue."""
    return binomial(n, j) - binomial(n, j - 1)


def scheme_basis(n: int, k: int) -> SchemeBasis:
    """All adjacency matrices A_0..A_k, read off the distance matrix as D == i."""
    D = distance_matrix(n, k)
    adjacency = tuple((D == i).astype(np.uint8) for i in range(k + 1))
    return SchemeBasis(n=n, k=k, adjacency=adjacency)


def hahn_polynomial(j: int, x: int, n: int, k: int) -> Fraction:
    """Hahn polynomial value Q_j(x) for the scheme on k-subsets of {1..n}.

    3F2(-j, j-n-1, -x; -n+k, -k; 1); degree 1 is 1 - n x / (k(n-k)).  The
    series stops at m = min(j, x, n+1-j), and term m+1 is term m times
    -(j-m)(x-m)(n+1-j-m) / ((n-k-m)(k-m)(m+1)).  Horner's rule from the top
    term keeps the partial sum as U/V in integers; one Fraction at the end.
    A series that reaches past m = n-k, where (-n+k)_m vanishes, has no
    value (j > n-k when k > n/2) and raises ValueError.
    """
    if not 0 <= j <= k:
        raise ValueError(f"hahn_polynomial: degree {j} out of range [0, {k}]")
    if not 0 <= x <= k:
        raise ValueError(f"hahn_polynomial: distance {x} out of range [0, {k}]")
    cutoff = min(j, x, n + 1 - j)
    if cutoff > n - k:
        raise ValueError(
            f"hahn_polynomial: Q_{j}({x}) undefined for (n, k) = ({n}, {k}): "
            f"the series reaches m = {cutoff} > n - k"
        )
    U = V = 1  # H_cutoff = 1, H_m = 1 + (a/b) H_{m+1}, the sum is H_0
    for m in range(cutoff - 1, -1, -1):
        a = -(j - m) * (x - m) * (n + 1 - j - m)
        b = (n - k - m) * (k - m) * (m + 1)
        U, V = b * V + a * U, b * V
    return Fraction(U, V)


def eigenmatrices(n: int, k: int) -> Eigenmatrices:
    """Exact P and Q with p_i(j) = k_i Q_j(i) and q_j(i) = m_j Q_j(i).

    P @ Q == C(n,k) * Identity by Hahn orthogonality.
    """
    qvals = [[hahn_polynomial(j, i, n, k) for i in range(k + 1)] for j in range(k + 1)]
    P = tuple(
        tuple(valency(n, k, i) * qvals[j][i] for i in range(k + 1))
        for j in range(k + 1)
    )
    Q = tuple(
        tuple(multiplicity(n, j) * qvals[j][i] for j in range(k + 1))
        for i in range(k + 1)
    )
    return Eigenmatrices(n=n, k=k, P=P, Q=Q)


@functools.lru_cache(maxsize=1024)
def _projector_coefficients(n: int, k: int, j: int) -> tuple[Fraction, ...]:
    """The k+1 exact entries q_j(i) / N of E_j, one per subset distance i.

    They depend on (n, k, j) only, so each tuple is computed once and
    shared.  Exceptions are not cached: an index with no Hahn series
    (j > n-k when k > n/2) raises ValueError on every call.
    """
    if not 0 <= j <= k:
        raise ValueError(f"scheme_projector: index {j} out of range [0, {k}]")
    N = binomial(n, k)
    m_j = multiplicity(n, j)
    return tuple(Fraction(m_j * hahn_polynomial(j, i, n, k), N) for i in range(k + 1))


def scheme_projector(n: int, k: int, j: int) -> np.ndarray:
    """Float projector E_j = (1/N) sum_i q_j(i) A_i onto the j-th eigenspace.

    Each of the k+1 exact coefficients is rounded once, so the result
    equals the exact projector converted to float.
    """
    coeffs = np.array([float(c) for c in _projector_coefficients(n, k, j)])
    return coeffs.take(distance_matrix(n, k))


def scheme_projector_exact(n: int, k: int, j: int) -> np.ndarray:
    """E_j as an object ndarray of Fractions (rank and trace both equal m_j).

    The object-dtype form of scheme_projector: the k+1 exact coefficients
    gathered by the distance matrix.
    """
    return np.array(_projector_coefficients(n, k, j), dtype=object).take(distance_matrix(n, k))


def verify_bose_mesner_closure(basis: SchemeBasis) -> dict[tuple[int, int], list[int]]:
    """Intersection numbers p_ij^l with A_i A_j = sum_l p_ij^l A_l.

    Returns {(i, j): [p_ij^0, ..., p_ij^k]} for every ordered pair.  Raises
    SchemeClosureError if an A_l is not symmetric, if the A_l overlap, if
    any product leaves the span or if any coefficient is not a
    non-negative integer (all signal a construction bug).  Only the
    products with i <= j are formed: one in the span of the symmetric A_l
    is symmetric, so A_j A_i = (A_i A_j)^T = A_i A_j and the algebra
    commutes.
    """
    k = basis.k
    for l, A in enumerate(basis.adjacency):
        if not np.array_equal(A, A.T):
            raise SchemeClosureError(
                f"A_{l} is not symmetric for (n, k) = ({basis.n}, {basis.k})"
            )
    # 0/1 entries and counts <= N < 2^53: float64 (BLAS) products are exact
    mats = np.array(basis.adjacency, dtype=np.float64)
    cover = mats.sum(axis=0)
    if (cover > 1).any():
        raise SchemeClosureError(
            f"adjacency matrices overlap for (n, k) = ({basis.n}, {basis.k})"
        )
    # A_l have disjoint supports, so p_ij^l can be read off one entry where
    # A_l is 1 and then checked globally; sum_l p_ij^l A_l is the
    # coefficient vector indexed by each entry's class label.  Entries in
    # no class get the extra label k+1, whose coefficient is 0.
    labels = np.where(cover == 1, mats.argmax(axis=0), k + 1)
    reps = [int(A.argmax()) if A.any() else None for A in basis.adjacency]
    numbers: dict[tuple[int, int], list[int]] = {}
    for i in range(k + 1):
        for j in range(i, k + 1):
            prod = (mats[i] @ mats[j]).astype(np.int64)
            coeffs = []
            for l, rep in enumerate(reps):
                if rep is None:  # empty distance class (k near n)
                    coeffs.append(0)
                    continue
                val = int(prod.flat[rep])
                if val < 0:
                    raise SchemeClosureError(
                        f"negative intersection number p_{i}{j}^{l} = {val}"
                    )
                coeffs.append(val)
            recon = np.array(coeffs + [0])[labels]
            if not np.array_equal(prod, recon):
                raise SchemeClosureError(
                    f"A_{i} A_{j} is not in the span of the scheme for "
                    f"(n, k) = ({basis.n}, {basis.k})"
                )
            numbers[(i, j)] = coeffs
            numbers[(j, i)] = list(coeffs)  # a copy: a caller may edit one entry
    return numbers
