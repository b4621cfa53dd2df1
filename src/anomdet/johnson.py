"""Johnson association scheme machinery.

Adjacency matrices of the generalized Johnson graphs on k-subsets of
{1..n} (indexed by subset distance), the Bose-Mesner algebra they span,
Hahn polynomial values, the eigenmatrices P and Q, and the orthogonal
projector basis E_j.

Index conventions used throughout:
  * A_i connects patterns at subset distance i (so A_0 is the identity).
  * J(n, k) and J(n, n-k) are one scheme (complementing both patterns
    keeps their distance), so there are m + 1 classes, m = min(k, n-k).
  * Eigenvalue index j runs 0..m with multiplicity m_j = C(n,j) - C(n,j-1);
    j = 0 is the Perron eigenvalue (all-ones eigenvector).
  * Hahn polynomials carry parameters (-n+k-1, -k-1, k): this is the
    parameter set that simultaneously reproduces the known degree-1
    closed form 1 - n x / (k(n-k)) and the adjacency spectra, and it is
    validated against a dense eigensolver in the tests.  Each value is
    its terminating 3F2 summed by Horner's rule in integers, with one
    Fraction at the end.
  * The closure check takes 0/1 classes that partition J, symmetric, with
    A_0 = I and constant row sums, and forms A_i A_j for i <= j < m only:
    a product in the span of symmetric classes is symmetric, so the algebra
    commutes (Delsarte 1973), and each p_im^l is an entry of A_i A_m, a
    count of walks, so no sign check is needed.
  * Every entry point checks n and k with combin._counts, then an index
    argument with combin._integer, in the same wording.  P, Q and the
    coefficients of every E_j depend on (n, k) only: one table per (n, k),
    built from (m+1)^2 Hahn values on a miss, serves every reader of them
    (each N x N builder asks distance_matrix first, so an N past the Gram
    size cap is refused before its table is built),
    and each exact E_j, one gather of its coefficients by D, is built once
    per (n, k, j) and shared read-only, never per overlap.  Both are held
    by combin._bounded_cache, whose builders trust their checked keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .combin import (_bounded_cache, _counts, _integer, _multiplicities, _out_of_range, binomial,
                     distance_matrix)

__all__ = [
    "SchemeBasis",
    "Eigenmatrices",
    "SchemeClosureError",
    "valency",
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
    """The m+1 adjacency matrices of the scheme on k-subsets of {1..n}, m = min(k, n-k):
    N x N classes of 0s and 1s that partition J, symmetric, with A_0 = I and constant
    row sums, so every p_ij^l is an entry of A_i A_j, a count of walks, never negative."""

    n: int
    k: int
    adjacency: tuple[np.ndarray, ...]  # A_0..A_m


class Eigenmatrices(NamedTuple):
    """Exact eigenmatrices: P[j][i] = p_i(j), Q[i][j] = q_j(i)."""

    n: int
    k: int
    P: tuple[tuple[Fraction, ...], ...]
    Q: tuple[tuple[Fraction, ...], ...]


def valency(n: int, k: int, i: int) -> int:
    """Number of patterns at distance i from a fixed pattern."""
    n, k, _ = _counts(n, k)
    i = _integer(i, "i")
    return binomial(k, i) * binomial(n - k, i)


def scheme_basis(n: int, k: int) -> SchemeBasis:
    """All adjacency matrices A_0..A_m, read off the distance matrix as D == i."""
    n, k, _ = _counts(n, k)
    D = distance_matrix(n, k)
    adjacency = tuple((D == i).astype(np.uint8) for i in range(min(k, n - k) + 1))
    return SchemeBasis(n=n, k=k, adjacency=adjacency)


def hahn_polynomial(j: int, x: int, n: int, k: int) -> Fraction:
    """Hahn polynomial value Q_j(x) for the scheme on k-subsets of {1..n}.

    3F2(-j, j-n-1, -x; -n+k, -k; 1), symmetric in k and n-k; degree 1 is
    1 - n x / (k(n-k)).  The degree j runs 0..min(k, n-k), so j <= n+1-j and
    the series stops at s = min(j, x), before (-n+k)_s or (-k)_s vanishes;
    term s+1 is term s times -(j-s)(x-s)(n+1-j-s) / ((n-k-s)(k-s)(s+1)).
    Horner's rule from the top term keeps the partial sum as U/V in
    integers; one Fraction at the end.
    """
    n, k, _ = _counts(n, k)
    j, x = _integer(j, "j"), _integer(x, "x")
    if not 0 <= j <= k or j > n - k:  # j in [0, min(k, n-k)]
        raise _out_of_range("hahn_polynomial: degree", j, min(k, n - k))
    if not 0 <= x <= k:
        raise _out_of_range("hahn_polynomial: distance", x, k)
    U = V = 1  # H_top = 1, H_s = 1 + (a/b) H_{s+1}, the sum is H_0
    for s in range(min(j, x) - 1, -1, -1):
        a = -(j - s) * (x - s) * (n + 1 - j - s)
        b = (n - k - s) * (k - s) * (s + 1)
        U, V = b * V + a * U, b * V
    return Fraction(U, V)


@_bounded_cache
def _scheme(n: int, k: int) -> tuple[Eigenmatrices, tuple[tuple[Fraction, ...], ...]]:
    """P, Q and each E_j's m+1 entries q_j(i) / N for checked n and k, the (n, k) table."""
    classes = range(min(k, n - k) + 1)
    N, mults = binomial(n, k), _multiplicities(n, classes[-1])
    qvals = [[hahn_polynomial(j, i, n, k) for i in classes] for j in classes]
    P = tuple(tuple(valency(n, k, i) * qvals[j][i] for i in classes) for j in classes)
    Q = tuple(tuple(mults[j] * qvals[j][i] for j in classes) for i in classes)
    return Eigenmatrices(n=n, k=k, P=P, Q=Q), tuple(tuple(q / N for q in col) for col in zip(*Q))


def eigenmatrices(n: int, k: int) -> Eigenmatrices:
    """Exact P and Q with p_i(j) = k_i Q_j(i) and q_j(i) = m_j Q_j(i).

    P @ Q == C(n,k) * Identity by Hahn orthogonality; both are (m+1) x (m+1),
    m = min(k, n-k), and the same for k and n-k.  Read off the (n, k) table.
    """
    n, k, _ = _counts(n, k)
    return _scheme(n, k)[0]


def _projector_key(n: int, k: int, j: int) -> tuple[int, int, int]:
    """(n, k, j) checked for E_j: n and k by _counts, then j in [0, min(k, n - k)],
    so that a bad index is refused before D or the (n, k) table is read."""
    n, k, _ = _counts(n, k)
    if 0 <= (j := _integer(j, "j")) <= (m := min(k, n - k)):
        return n, k, j
    raise _out_of_range("scheme_projector: index", j, m)


def _projector_coefficients(n: int, k: int, j: int) -> tuple[Fraction, ...]:
    """E_j's m+1 exact entries q_j(i) / N, one per subset distance i, off the (n, k) table."""
    n, k, j = _projector_key(n, k, j)
    return _scheme(n, k)[1][j]


def scheme_projector(n: int, k: int, j: int) -> np.ndarray:
    """Float projector E_j = (1/N) sum_i q_j(i) A_i onto the j-th eigenspace.

    Each of the m+1 exact coefficients is rounded once, so the result
    equals the exact projector converted to float.  The key is checked
    first, then D, so that an N past the Gram size cap is refused before
    the (n, k) table is built.
    """
    n, k, j = _projector_key(n, k, j)
    D = distance_matrix(n, k)
    return np.array([float(c) for c in _projector_coefficients(n, k, j)]).take(D)


def scheme_projector_exact(n: int, k: int, j: int) -> np.ndarray:
    """E_j as an object ndarray of Fractions (rank and trace both equal m_j).

    The object-dtype form of scheme_projector: the m+1 exact coefficients
    gathered by the distance matrix.  E_j depends on (n, k, j) only, so each
    is built once and shared read-only, like D (copy it to modify it).
    """
    return _exact_projector(*_projector_key(n, k, j))


@_bounded_cache
def _exact_projector(n: int, k: int, j: int) -> np.ndarray:
    """E_j for checked n, k and j, built on a miss of scheme_projector_exact, D first
    as in scheme_projector (np.fromiter skips np.array's probing)."""
    D = distance_matrix(n, k)
    return np.fromiter(_projector_coefficients(n, k, j), object).take(D)


def verify_bose_mesner_closure(basis: SchemeBasis) -> dict[tuple[int, int], list[int]]:
    """Intersection numbers p_ij^l with A_i A_j = sum_l p_ij^l A_l.

    Returns {(i, j): [p_ij^0, ..., p_ij^m]} for every ordered pair, m + 1 =
    len(basis.adjacency).  Raises SchemeClosureError, a construction bug, if
    the basis breaks the SchemeBasis contract (the 0/1 rule first, in any
    dtype; an empty class too) or a product leaves the span of the classes.

    The classes partition J, so labels = sum_l l A_l is each entry's class:
    symmetry and A_0 = I are read off it once.  Only A_i A_j with
    1 <= i <= j <= m-1 are formed: one in the span of the symmetric A_l is
    symmetric, so A_j A_i = (A_i A_j)^T = A_i A_j.  A_0 = I gives p_0j^l =
    [j == l], and A_i J = v_i J gives p_im^l = v_i - sum_{j<m} p_ij^l, an
    entry of A_i A_m, so never negative.  The float32 products are exact:
    every partial sum is a count of at most N < 2^24 (N^2 fits in memory).
    """
    where = f"(n, k) = ({basis.n}, {basis.k})"
    same = len({np.shape(A) for A in basis.adjacency}) == 1  # one or more classes, one shape
    classes = np.array(basis.adjacency if same else [])
    adjacency, N = classes.astype(bool), classes.shape[-1]  # A_0..A_m stacked
    if not N or classes.shape[1:] != (N, N) or not np.array_equal(classes, adjacency):
        raise SchemeClosureError(f"adjacency matrices must be one or more N x N arrays"
                                 f" of 0s and 1s for {where}")
    m, dtype = len(adjacency) - 1, np.min_scalar_type(len(adjacency))  # holds a count or label
    cover = adjacency.sum(axis=0, dtype=dtype)  # how many classes hold each entry
    if (cover > 1).any():
        raise SchemeClosureError(f"adjacency matrices overlap for {where}")
    if (cover < 1).any():
        raise SchemeClosureError(f"adjacency matrices leave a pair uncovered for {where}")
    labels = np.einsum("l,lab->ab", np.arange(m + 1, dtype=dtype), adjacency.view(np.uint8))
    if (asymmetric := labels != labels.T).any():
        raise SchemeClosureError(f"A_{labels[asymmetric].min()} is not symmetric for {where}")
    if labels.diagonal().any() or np.count_nonzero(labels) != N * N - N:
        raise SchemeClosureError(f"A_0 is not the identity for {where}")
    valencies = []
    for l, rows in enumerate(adjacency.sum(axis=2, dtype=np.int64)):
        if (rows != rows[0]).any():
            raise SchemeClosureError(f"A_{l} has unequal row sums for {where}")
        if rows[0] == 0:
            raise SchemeClosureError(f"A_{l} is empty for {where}")
        valencies.append(int(rows[0]))
    # p_ij^l is read off one entry where A_l is 1, then checked through labels
    reps = [int(A.argmax()) for A in adjacency]
    numbers = {(0, j): [int(l == j) for l in range(m + 1)] for j in range(m + 1)}
    mats = [A.astype(np.float32) for A in adjacency[1:m]]  # own arrays: slices multiply slower
    for i in range(1, m):
        for j in range(i, m):
            prod = mats[i - 1] @ mats[j - 1]
            coeffs = [int(prod.flat[rep]) for rep in reps]
            if not np.array_equal(prod, np.array(coeffs, dtype=np.float32).take(labels)):
                raise SchemeClosureError(f"A_{i} A_{j} is not in the span of the scheme"
                                         f" for {where}")
            numbers[(i, j)] = coeffs
    for i in range(1, m + 1):  # A_i A_m = v_i J - sum_{j<m} A_i A_j, for i = m last
        row = [numbers[min(i, j), max(i, j)] for j in range(m)]
        numbers[(i, m)] = [valencies[i] - sum(p[l] for p in row) for l in range(m + 1)]
    # every key gets its own list, so that a caller may edit one entry
    return {key: list(coeffs) for (i, j), coeffs in sorted(numbers.items())
            for key in ((i, j), (j, i))}
