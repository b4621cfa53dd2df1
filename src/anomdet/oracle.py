"""Brute-force verification from explicit states and density matrices.

Nothing in this module uses the closed forms: hypothesis states are
literal tensor products, written in the weight-<=k sector (the
computational-basis strings with at most k ones, where every state with
k anomalies lives) and built on their 2^k-string support; measurements
are literal square-root measurements; and the universal hypotheses come
from the occupation-number (Dicke) basis of the symmetric subspaces.
This keeps the oracle independent of the spectral machinery it is used
to check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .combin import enumerate_patterns, pattern_indicator
from .gram import GRAM_SIZE_CAP, ProblemInstance, _finite_square, _real_array, direct_spectrum
from .universal import UniversalInstance

__all__ = [
    "SrmResult",
    "HolevoReport",
    "all_hypothesis_states",
    "srm_success_oracle",
    "universal_success_oracle",
    "holevo_check",
]

# Largest n for the explicit-state oracles.  The sector stack is narrow
# (1001 x 1471 at (14, 4)), so the cap no longer guards a 2^n row width; it
# bounds the run time of `anomdet verify`, whose --max-n stops here.
STATE_QUBITS_CAP = 14
DENSITY_DIM_CAP = 4096
SUPPORT_THRESHOLD = 1e-10
PSD_CLAMP = 1e-10  # relative size of negative Gram eigenvalues the SRM oracle clamps to zero
HOLEVO_TOL = 1e-9


@functools.lru_cache(maxsize=32)
def _sector_layout(n: int, k: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Where the 2^k support entries of the C(n, k) hypothesis states go.

    Returns (index, M, bits), all read-only.  bits is the k x 2^k table whose
    column b holds the bits b_1..b_k of b, b_1 most significant (the order of
    the np.kron fold).  M = sum_{j<=k} C(n, j) strings of weight <= k, and
    index is a C(n, k) x 2^k array of flat positions in the C(n, k) x M
    sector stack.  Row a lists the strings that are 0 off the a-th pattern's
    positions p_1 < ... < p_k, weights @ bits with weights[a, i] = 2^(n-1-p_i);
    each string is replaced by its rank among all strings of weight <= k, in
    ascending integer order.  Every such string lies under some pattern, so
    the ranks run over 0..M-1.  The layout depends on (n, k) only, so it is
    built once and shared.
    """
    X = pattern_indicator(n, k)
    rows = X.shape[0]
    weights = 2 ** (n - 1 - np.nonzero(X)[1].reshape(rows, k))  # 2^(n-1-p_i)
    bits = (np.arange(2**k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    sector, rank = np.unique(weights @ bits, return_inverse=True)
    index = np.arange(rows)[:, None] * sector.size + rank.reshape(rows, -1)
    index.flags.writeable = bits.flags.writeable = False
    return index, sector.size, bits


def all_hypothesis_states(instance: ProblemInstance) -> np.ndarray:
    """The C(n,k) hypothesis vectors (lexicographic pattern order) in the weight-<=k sector.

    Qubit embedding: reference |0>, anomaly c|0> + sqrt(1-c^2)|1>; only
    the overlap c matters for the known-states problem, so qubits suffice
    for any d.  Returns an N x M array, M = sum_{j<=k} C(n, j): column j
    holds the amplitude of the j-th computational-basis string of weight
    <= k in ascending integer order, position 1 the most significant bit.
    No state has weight outside that sector: row a is nonzero only on the
    2^k strings that are 0 off its anomaly positions.  There the entry of
    b in {0, 1}^k is the product phi1[b_1] * ... * phi1[b_k], formed left
    to right in increasing position order by one multiply reduction over
    the rows of phi1.take(bits) (k = 0 reduces nothing and gives 1.0), and
    scattered by index, both from _sector_layout.  The skipped factors
    |0> = (1, 0) are exactly 1.0 or 0.0 and the products run in the fold's
    order, so every column is bit-identical to the same column of the
    np.kron left fold; at c = 0 or 1 some sector columns are all zero.
    """
    n, k = instance.n, instance.k
    if n > STATE_QUBITS_CAP:
        raise ValueError(f"all_hypothesis_states: n={n} exceeds cap {STATE_QUBITS_CAP}")
    index, width, bits = _sector_layout(n, k)
    c = float(instance.c)
    phi1 = np.array([c, math.sqrt(max(0.0, 1 - c * c))])
    core = np.multiply.reduce(phi1.take(bits), axis=0)
    states = np.zeros((index.shape[0], width))
    states.ravel()[index] = core
    return states


@dataclass(frozen=True)
class SrmResult:
    """Square-root measurement on a stack of states V (one state per row)."""

    success: float
    diagonal: np.ndarray  # diagonal of sqrt(Gram): per-hypothesis amplitudes
    eigenvalues: np.ndarray  # Gram eigenvalues, ascending, as eigh returns them (not clamped)


def srm_success_oracle(states: np.ndarray) -> SrmResult:
    """Square-root-measurement success probability from explicit states.

    Builds the Gram matrix G = U diag(w) U^T from inner products; its
    square root S = U diag(sqrt w) U^T has diagonal (U o U) sqrt(w), and
    (1/N) sum_r S_rr^2 is the success probability.  S_rr = <m_r|Psi_r>
    for the POVM vectors |m_r> = sum_s (S^+)_{sr} |Psi_s>.  Columns that
    are zero in every state (in a sector stack, only at c = 0 or 1) are
    dropped before G is formed: they would add only exact zeros, but a
    longer inner dimension regroups BLAS's partial sums, moving G by an
    ulp and the diagonal of its square root by far more.  So any embedding
    of the states (the sector stack, the 2^n fold, extra padding) gives
    the same bits.  Complex states raise ValueError instead of losing their
    imaginary parts.  Eigenvalues of G in [-PSD_CLAMP * scale, 0), scale =
    max(1, max |G|), are clamped to zero (rank collapse near c = 1); a Gram
    with NaN or infinite entries (overflow) or a materially negative
    eigenvalue raises ValueError.  The result also carries w as eigh
    returns it, before the clamp, so w[0] is the smallest eigenvalue of G.

    The function lets go of the stack once G is formed, so a stack passed
    as a temporary (srm_success_oracle(all_hypothesis_states(...))) is
    freed before the eigensolve, and U o U is formed in U's own storage.
    """
    V = _real_array(states, "srm_success_oracle")
    del states  # from here only V refers to the stack, so `del V` below can free it
    if V.ndim != 2:
        raise ValueError(
            f"srm_success_oracle: expected a 2-D stack of states, got shape {V.shape}"
        )
    N = V.shape[0]
    if N == 0:
        raise ValueError("srm_success_oracle: the stack holds no states")
    if N > GRAM_SIZE_CAP:
        raise ValueError(f"srm_success_oracle: {N} states exceed cap {GRAM_SIZE_CAP}")
    if not np.logical_and.reduce(np.isfinite(V), axis=None):
        raise ValueError("srm_success_oracle: states have NaN or infinite entries")
    live = np.logical_or.reduce(V, axis=0)
    if not np.logical_and.reduce(live):
        V = V[:, live]
    G = V @ V.T  # exactly symmetric (BLAS syrk on one operand), so eigh reads one triangle
    del V
    _, size = _finite_square(G, "srm_success_oracle")
    w, U = np.linalg.eigh(G)  # ascending
    if w[0] < -PSD_CLAMP * max(1.0, size):
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]})")
    U *= U
    diag = U @ np.sqrt(np.maximum(w, 0.0))  # eigenvalues of S are sqrt(w)
    return SrmResult(success=float(np.add.reduce(diag**2) / N), diagonal=diag, eigenvalues=w)


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
            "support-detection dead zone [1e-12, 1e-10]"
        )
    support = vals >= SUPPORT_THRESHOLD
    inv_sqrt = np.where(support, 1.0 / np.sqrt(np.where(support, vals, 1.0)), 0.0)
    return (vecs * inv_sqrt) @ vecs.T


def _universal_srm(n: int, k: int, d: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Isometries B_S of all hypotheses (lexicographic pattern order) and
    R = rho^(-1/2) on the support of rho = sum_S B_S B_S^T / r.  The counts
    are validated as UniversalInstance validates them."""
    instance = UniversalInstance(n, k, d)
    n, k, d = instance.n, instance.k, instance.d
    if d**n > DENSITY_DIM_CAP:
        raise ValueError(f"universal_success_oracle: d^n = {d**n} exceeds cap {DENSITY_DIM_CAP}")
    if n < 2 * k:
        raise ValueError(f"universal_success_oracle: requires n >= 2k, got n={n}, k={k}")
    isometries = [_isometry(p, n, d) for p in enumerate_patterns(n, k)]
    stacked = np.hstack(isometries)
    return isometries, _support_inverse_sqrt(stacked @ stacked.T / isometries[0].shape[1])


def universal_success_oracle(n: int, k: int, d: int) -> float:
    """Square-root measurement on the explicit averaged hypotheses: the mean
    of tr(rho_S R rho_S R) = ||B_S^T R B_S||_F^2 / r^2, R = rho^(-1/2)."""
    isometries, R = _universal_srm(n, k, d)
    r = isometries[0].shape[1]
    return sum(float(np.sum((B.T @ R @ B) ** 2)) for B in isometries) / (len(isometries) * r * r)


@dataclass(frozen=True)
class HolevoReport:
    feasible: bool
    worst_violation: float  # most negative eigenvalue of Y - rho_sigma


def holevo_check(Y: np.ndarray, hypotheses) -> HolevoReport:
    """Check the optimality conditions Y - rho_sigma >= 0 for all hypotheses
    (feasible when no eigenvalue of Y - rho_sigma is below -HOLEVO_TOL).

    Each smallest eigenvalue comes from direct_spectrum, which rejects a
    NaN or infinite entry instead of letting it compare as no violation.
    """
    worst = 0.0
    for h in hypotheses:
        if Y.shape != h.shape:
            raise ValueError(f"dimension mismatch: {Y.shape} vs {h.shape}")
        worst = min(worst, float(direct_spectrum(Y - h)[-1]))
    return HolevoReport(feasible=worst >= -HOLEVO_TOL, worst_violation=worst)
