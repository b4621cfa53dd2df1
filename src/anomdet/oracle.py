"""Brute-force verification from explicit states and density matrices.

Nothing in this module uses the closed forms: hypothesis states are
literal tensor products, written in the weight-<=k sector (the
computational-basis strings with at most k ones, where every state with
k anomalies lives) and built on their 2^k-string support; measurements
are literal square-root measurements; and the universal hypotheses come
from the occupation-number (Dicke) basis of the symmetric subspaces,
whose square-root measurement universal_holevo_violation certifies by
Holevo's conditions.  The square root of a Gram matrix comes from the
singular values of the stack of states: either row norms in the
eigenbasis of the stack's own support pattern, whose columns fall into
classes by support size and whose eigenvectors fall into groups by their
integer class values, so that the pattern's part is factored once and
kept under the packed pattern itself as N x G group columns (G = m + 1
for hypothesis stacks), and each call weighs the classes by one amplitude
each, forms one singular value per group and certifies the result; or one
thin SVD of the stack.  No Gram, closed form, Hahn value or scheme object
enters, so the oracle stays independent of the spectral machinery it is
used to check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .combin import (_bounded_cache, _counts, _number_text, _power_text, binomial,
                     enumerate_patterns, pattern_indicator)
from .gram import GRAM_SIZE_CAP, ProblemInstance, _real_array, direct_spectrum

__all__ = [
    "SrmResult",
    "all_hypothesis_states",
    "srm_success_oracle",
    "universal_holevo_violation",
    "universal_success_oracle",
]

# Largest n for the explicit-state oracles: the largest n at which
# srm_success_oracle accepts the stack of every k, C(n, n // 2) <= GRAM_SIZE_CAP
# (14 at 5000).  The search stops at n = 2b, b the cap's bit length:
# C(2b, b) >= 4^b / (2b + 1) > cap.  The sector stack is narrow (1001 x 1471
# at (14, 4)), so the cap guards no 2^n row width; `anomdet verify`'s --max-n
# stops here.
STATE_QUBITS_CAP = max(n for n in range(2 * GRAM_SIZE_CAP.bit_length() + 1)
                       if binomial(n, n // 2) <= GRAM_SIZE_CAP)
DENSITY_DIM_CAP = 4096
SUPPORT_THRESHOLD = 1e-10
UNIT_NORM_TOL = 1e-10  # SRM oracle: how far a state's squared norm may be off 1
UNIT_ROUNDOFF = 2.0**-53  # float64; scales the support basis's certificate


@_bounded_cache
def _sector_layout(n: int, k: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Where the 2^k support entries of the C(n, k) hypothesis states go.

    Returns (index, M, bits), the arrays read-only.  bits is the k x 2^k
    table whose column b holds the bits b_1..b_k of b, b_1 most significant
    (the np.kron fold's order).  Row a of index lists, as flat positions in
    the C(n, k) x M sector stack, the ranks among all M = sum_{j<=k} C(n, j)
    strings of weight <= k (ascending integer order) of the strings that are
    0 off the a-th pattern's positions p_1 < ... < p_k: weights @ bits with
    weights[a, i] = 2^(n-1-p_i).  Every such string lies under some pattern,
    so the ranks run over 0..M-1.  Built once per (n, k) and shared by a
    _bounded_cache; the index takes the smallest unsigned dtype of its largest
    entry, up to the qubit cap uint32 at most (38 759 077 at (14, 8)).
    """
    X = pattern_indicator(n, k)
    rows = X.shape[0]
    weights = 2 ** (n - 1 - np.nonzero(X)[1].reshape(rows, k))  # 2^(n-1-p_i)
    bits = (np.arange(2**k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    sector, rank = np.unique(weights @ bits, return_inverse=True)
    index = np.arange(rows)[:, None] * sector.size + rank.reshape(rows, -1)
    return index.astype(np.min_scalar_type(index.max())), sector.size, bits


def all_hypothesis_states(instance: ProblemInstance) -> np.ndarray:
    """The C(n,k) hypothesis vectors (lexicographic pattern order) in the weight-<=k sector.

    Qubit embedding: reference |0>, anomaly c|0> + sqrt(1-c^2)|1>; only
    the overlap c matters for the known-states problem, so qubits suffice
    for any d.  Returns an N x M array, M = sum_{j<=k} C(n, j): column j
    holds the amplitude of the j-th string of weight <= k in ascending
    integer order, position 1 the most significant bit.  Row a is nonzero
    only on the 2^k strings that are 0 off its anomaly positions; there the
    entry of b in {0, 1}^k is phi1[b_1] * ... * phi1[b_k], formed left to
    right by one multiply reduction over the rows of phi1.take(bits) (1.0
    at k = 0) and scattered by index, both from _sector_layout.  The
    skipped factors |0> = (1, 0) are exactly 1.0 or 0.0, so every column is
    bit-identical to the same column of the np.kron left fold, whose other
    columns are all zero; at c = 0 or 1 some sector columns are zero too.
    """
    n, k = instance.n, instance.k
    if n > STATE_QUBITS_CAP:
        raise ValueError(f"all_hypothesis_states: n={_number_text(n)} exceeds cap {STATE_QUBITS_CAP}")
    index, width, bits = _sector_layout(n, k)
    c = float(instance.c)
    phi1 = np.array([c, math.sqrt(max(0.0, 1 - c * c))])
    core = np.multiply.reduce(phi1.take(bits), axis=0)
    states = np.zeros((index.shape[0], width))
    states.ravel()[index] = core
    return states


class SrmResult(NamedTuple):
    """Square-root measurement on a stack of states V (one state per row)."""

    success: float
    diagonal: np.ndarray  # diagonal of sqrt(V V^T): per-hypothesis amplitudes
    eigenvalues: np.ndarray  # squared singular values of V, ascending, N of them


@_bounded_cache
def _support_basis(shape: tuple[int, int], pattern: bytes) -> tuple[np.ndarray, ...]:
    """What srm_success_oracle needs of a support pattern, computed once per pattern.

    P is the 0/1 matrix of `shape` that np.packbits packed into `pattern`,
    with no all-zero column.  U is eigh's eigenbasis of P P^T, whose entries
    count the strings two states share: integers below 2^53, so the product
    is exact and does not depend on the column order.  The columns of P fall
    into C classes by their support size, ascending; with P_c the columns of
    class c and T_c = U^T P_c, the C x N rows d_c = diag(T_c T_c^T) give each
    eigenvector r its class vector (d_c[r])_c.  P_c P_c^T is an integer
    matrix, so an exact eigenbasis has integer class vectors; the
    eigenvectors fall into G groups by the rounded vector, in its
    lexicographic order (one stable np.lexsort, then one comparison of
    neighbours), and the group's value theta_g is that rounded vector.
    Returns (W, positions, label, first, theta, sizes, spread, off):
    the N x G sums W[:, g] = sum_{r in g} U[:, r]^2 (the diagonal of the
    group's projector U_g U_g^T), the flat positions of P's nonzeros in
    row-major order, the class of each, the index among them of each class's
    first, the C x G values theta, the G group sizes, the C spreads
    s_c = max_r |d_c[r] - theta_c,g(r)| and the C norms
    o_c = ||offdiag(T_c T_c^T)||_F.  Neither U, T nor D is kept, and no
    N x N array: for hypothesis stacks the groups are the m + 1 eigenspaces
    of the Johnson scheme, of sizes _multiplicities(n, m) (see
    srm_success_oracle), so W is N x (m + 1).  One product gives every T_c,
    with P's columns sorted by class, and each T_c T_c^T is formed in the
    one N x N buffer that held P P^T.

    A _bounded_cache keeps the entry under its own key, the pattern's bytes
    counted against the byte bound, also when the basis fails the
    certificate; an entry over that bound is returned and used, not kept.
    """
    N, M = shape
    P = np.unpackbits(np.frombuffer(pattern, np.uint8), count=N * M).reshape(shape).view(bool)
    support = np.add.reduce(P, axis=0, dtype=np.intp)
    sizes, column_class = np.unique(support, return_inverse=True)
    positions = np.flatnonzero(P)
    label = column_class.take(positions % M)
    first = np.unique(label, return_index=True)[1]
    P = P[:, np.argsort(column_class, kind="stable")].astype(np.float64)  # classes in blocks
    buffer = P @ P.T
    U = np.linalg.eigh(buffer)[1]
    T = U.T @ P
    D, off = np.empty((sizes.size, N)), np.empty(sizes.size)
    for c, Tc in enumerate(np.split(T, np.cumsum(np.bincount(column_class))[:-1], axis=1)):
        np.matmul(Tc, Tc.T, out=buffer)
        D[c] = buffer.diagonal()
        np.fill_diagonal(buffer, 0.0)
        off[c] = np.linalg.norm(buffer)
    rounded = np.rint(D)
    order = np.lexsort(rounded[::-1])  # row 0 first, the order of np.unique(axis=1)
    ranked = rounded.take(order, axis=1)
    starts = np.r_[True, np.logical_or.reduce(ranked[:, 1:] != ranked[:, :-1], axis=0)]
    theta, group = ranked[:, starts], np.empty(N, np.intp)
    group[order] = np.cumsum(starts) - 1
    counts = np.bincount(group)
    spread = np.maximum.reduce(np.abs(D - rounded), axis=1)
    U *= U
    W = U @ (group[:, None] == np.arange(counts.size))
    return W, positions, label, first, theta, counts, spread, off


def srm_success_oracle(states: np.ndarray) -> SrmResult:
    """Square-root-measurement success probability from explicit
    unit-norm states, uniform prior.

    The SRM vectors are the polar factor of the N x M stack V (Eldar &
    Forney 2001): with V = U diag(sigma) Y^T, the Gram's square root is
    S = U diag(sigma) U^T, its diagonal (U o U) sigma, and (1/N) sum_r S_rr^2
    the success probability; S_rr = <m_r|Psi_r> for the POVM vectors
    |m_r> = sum_s (S^+)_{sr} |Psi_s>.  Each sigma_j is a row norm of a
    matrix of the same singular values or comes from an SVD of V, never the
    square root of a Gram eigenvalue, so it is accurate to about u ||V||
    (u = 2^-53) also where sigma_j^2 lies below the rounding of V V^T, as
    near c = 1.

    U is the eigenbasis of the support pattern P = (V != 0), factored once
    per pattern with all else that depends on P alone (_support_basis).
    With the columns of P in classes by support size, V' = P diag(f), where
    f_c is the first nonzero of class c (row-major), is V up to
    delta = ||V - V'||_F, summed over P's nonzeros.  Z' = U^T V' has the
    column blocks f_c T_c, T_c = U^T P_c, so its squared row norms are
    sum_c f_c^2 d_c, d_c = diag(T_c T_c^T), a sum of non-negative terms, and
    ||offdiag(Z' Z'^T)||_F <= sum_c f_c^2 o_c, o_c the norm of
    offdiag(T_c T_c^T).  The eigenvectors fall into G groups by their
    rounded class vectors theta_g (integers: the d_c of an exact eigenbasis
    are eigenvalues of the integer matrices P_c P_c^T), with s_c the largest
    |d_c - theta_c| over the eigenvectors; each group takes one singular
    value, sigma_g^2 = sum_c f_c^2 theta_c,g, and the diagonal of S is
    W sigma for the N x G columns W[:, g] = sum_{r in g} U[:, r]^2.  theta,
    W, s_c and o_c are the certificate's per-pattern part; f, delta (a pass
    over P's nonzeros) and the sums, O(C G), are its per-call part, besides
    the input checks and the N G of W sigma.  U is accepted when

        sum_c f_c^2 (o_c + s_c) + 2 sqrt(N) delta <= (4 N^(5/2) + N M) u.

    The bound is all that rounding puts off the diagonal of Z' Z'^T for an
    exact singular basis: eigh leaves U orthogonal to N u and T_c = U^T P_c
    adds gamma_N |U|^T P_c (Higham 2002, section 3.5), so Z' is within
    2 N^2 u of a matrix with orthogonal rows, moving the off-diagonal by
    2 ||V'||_2 2 N^2 u, and the products T_c T_c^T add
    sum_c f_c^2 gamma_{M_c} ||T_c||_F^2 <= gamma_M ||Z'||_F^2 = N M u
    (||V'||_2^2 <= ||V'||_F^2 = N up to delta).  The eigenvalues of V' V'^T
    then lie within sum_c f_c^2 o_c of the squared row norms (Weyl), which
    lie within sum_c f_c^2 s_c of the sigma_g^2 (Weyl again, for the
    diagonal difference), and |sigma_i(V) - sigma_i(V')| <= ||V - V'||_2
    <= delta (Weyl), which with sigma_i(V), sigma_i(V') <= sqrt(N) moves the
    squares by at most 2 sqrt(N) delta to first order: an accepted sigma^2
    lies within the bound of the eigenvalues of V V^T.  A basis whose
    eigenvectors do not group, as where P P^T has irrational eigenvalues,
    fails the s_c term.  For hypothesis states the class of column x is its
    weight |x|, of support C(n - |x|, k - |x|), strictly decreasing in |x|
    for k < n; the entries of one class are the same k factors multiplied
    in different orders, so delta <= 2 gamma_k sqrt(N) and 2 sqrt(N) delta
    is about 4 k N u, below 4 N^(5/2) u.  There P_c P_c^T = C(k - D, |x|)
    and P P^T = 2^(k-D) are functions of the subset distance D, in the
    commutative Bose-Mesner algebra of the Johnson scheme (Bannai & Ito
    1984), whose m + 1 eigenspaces, of multiplicities m_j (m = min(k, n-k)),
    each give every P_c P_c^T one integer eigenvalue.  So U passes wherever
    P P^T's eigenvalues tell the eigenspaces apart, and the groups are the
    eigenspaces (no two share a class vector on the scheme grid to n = 12):
    G = m + 1, with W[:, g] the diagonal m_j / N of the eigenspace's
    projector.  At c = 0 or 1 one class is left; at k = n (N = 1) every
    column has support 1 but the entries differ, so delta fails the bound.
    Where U fails it, one thin SVD of V gives sigma and U, and W = U o U
    with groups of one.  An entry over the cache's byte bound is built and
    used on every call, not kept, so such a pattern is factored each time:
    a dense 1500 x 1500 stack, whose entry exceeds the bound and fails the
    certificate, takes about 2.6 s per call instead of the SVD's 1.7 s
    (2-core x86-64, one BLAS thread).  The result does not depend on what
    the cache holds.  Columns zero in every state (in a sector stack, only
    at c = 0 or 1) are dropped first, so that every class holds nonzeros
    and any embedding of the states (sector stack, 2^n fold, padding) has
    one pattern, one SVD inner dimension and the same bits.

    Complex states, NaN or infinite entries, a squared norm that overflows
    and one off 1 by more than UNIT_NORM_TOL (the error names the row)
    raise ValueError.  eigenvalues holds sigma^2 ascending, each sigma_g^2
    repeated by its group's size, zero-padded to N when the SVD gives fewer,
    so eigenvalues[0] >= 0 is the smallest eigenvalue of V V^T.
    """
    V = _real_array(states, "srm_success_oracle")
    if V.ndim != 2:
        raise ValueError("srm_success_oracle: expected a 2-D stack of states, "
                         f"got shape {V.shape}")
    N = V.shape[0]
    if N == 0:
        raise ValueError("srm_success_oracle: the stack holds no states")
    if N > GRAM_SIZE_CAP:
        raise ValueError(f"srm_success_oracle: {N} states exceed cap {GRAM_SIZE_CAP}")
    pattern = V != 0  # NaN and inf are nonzero: their columns stay
    live = np.logical_or.reduce(pattern, axis=0)
    if not np.logical_and.reduce(live):
        V, pattern = V[:, live], pattern[:, live]
    norms = np.einsum("ij,ij->i", V, V)  # NaN or inf in a row with a NaN or inf entry
    if not np.maximum.reduce(np.abs(norms - 1.0)) <= UNIT_NORM_TOL:  # NaN and inf too
        if not np.logical_and.reduce(np.isfinite(V), axis=None):
            raise ValueError("srm_success_oracle: states have NaN or infinite entries")
        if not np.logical_and.reduce(np.isfinite(norms)):
            raise ValueError("srm_success_oracle: matrix has NaN or infinite entries")
        r = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))[0]
        raise ValueError(f"srm_success_oracle: row {r} has squared norm {norms[r]}, not 1")
    W, positions, label, first, theta, sizes, spread, off = _support_basis(
        V.shape, np.packbits(pattern).tobytes())
    values = V.take(positions)
    f = values.take(first)
    deviation = values - f.take(label)
    f2 = f * f
    tol = (4 * N**2.5 + N * V.shape[1]) * UNIT_ROUNDOFF
    if f2 @ (off + spread) + 2 * math.sqrt(N * (deviation @ deviation)) <= tol:
        sigma = np.sqrt(f2 @ theta)
    else:
        W, sigma, _ = np.linalg.svd(V, full_matrices=False)
        W *= W
        sizes = 1
    diag = W @ sigma
    squares = np.repeat(sigma * sigma, sizes)
    eigenvalues = np.zeros(N)  # the SVD gives min(N, M) values
    eigenvalues[N - squares.size:] = squares
    eigenvalues.sort()
    return SrmResult(float(np.add.reduce(diag**2) / N), diag, eigenvalues)


def _isometry(pattern, n: int, d: int) -> np.ndarray:
    """d^n x r isometry B_S with one nonzero, 1/sqrt(|class of x|), per row x.

    `pattern` holds the 1-based anomaly positions, as enumerate_patterns
    gives them.  A string x in [d]^n (position 1 most significant, as in
    np.kron) is labelled by its letter counts on the reference and on the
    pattern positions, i.e. by x with each group sorted.  The columns are
    the Dicke states of Sym^(n-k) (x) Sym^k, legs in place (Harrow,
    arXiv:1308.6595), and rho_S = B_S B_S^T / r is the averaged hypothesis.
    """
    inside = np.isin(np.arange(1, n + 1), pattern)
    digits = np.indices((d,) * n).reshape(n, -1).T
    canonical = np.hstack([np.sort(digits[:, ~inside], axis=1), np.sort(digits[:, inside], axis=1)])
    code = canonical @ d ** np.arange(n - 1, -1, -1)  # < d^n: no overflow
    _, label, count = np.unique(code, return_inverse=True, return_counts=True)
    B = np.zeros((d**n, len(count)))
    B[np.arange(d**n), label] = 1 / np.sqrt(count[label])
    return B


def _support_inverse_sqrt(rho: np.ndarray) -> np.ndarray:
    """rho^(-1/2) on the support of rho (eigenvalues >= SUPPORT_THRESHOLD), 0 off it.

    Raises ValueError when an eigenvalue falls in the dead zone between
    numerical zero and the threshold, where the support is ambiguous.
    """
    vals, vecs = np.linalg.eigh(rho)
    ambiguous = np.sum((vals > 1e-12) & (vals < SUPPORT_THRESHOLD))
    if ambiguous:
        raise ValueError(
            f"{ambiguous} eigenvalues of rho in the "
            f"support-detection dead zone [1e-12, {SUPPORT_THRESHOLD:.0e}]"
        )
    support = vals >= SUPPORT_THRESHOLD
    inv_sqrt = np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)
    return (vecs * inv_sqrt) @ vecs.T


def _universal_srm(n: int, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Isometries B_S of all hypotheses (lexicographic pattern order), one
    array, and R = rho^(-1/2) on the support of rho = sum_S B_S B_S^T / r,
    the counts validated by _counts, as UniversalInstance does, before the
    lookup in _universal_build's cache, through which both oracles share one build.

    d^n > DENSITY_DIM_CAP raises ValueError.  A d of b >= 2 bits has
    d^n >= 2^(n (b-1)), so n (b-1) >= DENSITY_DIM_CAP.bit_length() is refused
    without forming d^n (2^(10^7) takes 5 s to form); below it d^n < 2^24.  The
    message names d^n as combin._power_text prints it: in full up to 192 bits,
    else as d^n with d and n."""
    n, k, d = _counts(n, k, d)
    if n * (d.bit_length() - 1) >= DENSITY_DIM_CAP.bit_length() or d**n > DENSITY_DIM_CAP:
        raise ValueError(f"universal_success_oracle: d^n = {_power_text(d, n)} "
                         f"exceeds cap {DENSITY_DIM_CAP}")
    return _universal_build(n, k, d)


@_bounded_cache
def _universal_build(n: int, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The isometries and R of _universal_srm for validated counts."""
    isometries = np.stack([_isometry(p, n, d) for p in enumerate_patterns(n, k)])
    stacked = np.hstack(isometries)
    return isometries, _support_inverse_sqrt(stacked @ stacked.T / isometries.shape[2])


def universal_success_oracle(n: int, k: int, d: int) -> float:
    """Square-root measurement on the explicit averaged hypotheses: the mean
    of tr(rho_S R rho_S R) = ||B_S^T R B_S||_F^2 / r^2, R = rho^(-1/2)."""
    isometries, R = _universal_srm(n, k, d)
    r = isometries[0].shape[1]
    return sum(float(np.sum((B.T @ R @ B) ** 2)) for B in isometries) / (len(isometries) * r * r)


def universal_holevo_violation(n: int, k: int, d: int) -> float:
    """How far the universal SRM misses Holevo's optimality conditions.

    The SRM's witness is Y = sym(sum_S R rho_S R rho_S), R = rho^(-1/2) on
    the support; with RB_S = R B_S and C_S = B_S^T RB_S each term is
    RB_S C_S B_S^T / r^2, so no d^n x d^n product is formed.  The SRM is
    optimal when Y - rho_S >= 0 for every S (Holevo 1973; Eldar & Forney
    2001); returns max(0, -min_S lambda_min(Y - rho_S)), each lambda_min
    from direct_spectrum, which rejects NaN or infinite entries.
    """
    isometries, R = _universal_srm(n, k, d)
    r = isometries[0].shape[1]
    Y = sum((RB := R @ B) @ (B.T @ RB) @ B.T for B in isometries)
    Y = (Y + Y.T) / (2 * r * r)
    worst = min(float(direct_spectrum(Y - B @ B.T / r)[-1]) for B in isometries)
    return max(0.0, -worst)
