"""Brute-force verification from explicit states and density matrices.

Nothing in this module uses the closed forms: hypothesis states are
built as literal tensor products, measurements as literal square-root
measurements, and the universal hypotheses from the occupation-number
(Dicke) basis of the symmetric subspaces, with no irrep dimension.
This keeps the oracle independent of the spectral machinery it is used
to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combin import enumerate_patterns, normalize_pattern, pattern_indicator
from .gram import ProblemInstance, _psd_eigh

__all__ = [
    "SrmResult",
    "HolevoReport",
    "hypothesis_state",
    "all_hypothesis_states",
    "srm_success_oracle",
    "universal_hypothesis",
    "universal_success_oracle",
    "holevo_check",
]

STATE_QUBITS_CAP = 14
DENSITY_DIM_CAP = 4096
SUPPORT_THRESHOLD = 1e-10
HOLEVO_TOL = 1e-9


def _product_states(instance: ProblemInstance, indicator: np.ndarray) -> np.ndarray:
    """One 2^n tensor-product state per row of a 0/1 (patterns x n) indicator.

    Qubit embedding: reference |0>, anomaly c|0> + sqrt(1-c^2)|1>; only
    the overlap c matters for the known-states problem, so qubits
    suffice for any d.  Position by position, every row is multiplied
    out with the factor its indicator picks, which is np.kron applied to
    all rows at once.
    """
    n = instance.n
    if n > STATE_QUBITS_CAP:
        raise ValueError(f"hypothesis_state: n={n} exceeds cap {STATE_QUBITS_CAP}")
    c = float(instance.c)
    factors = np.array([[1.0, 0.0], [c, math.sqrt(max(0.0, 1 - c * c))]])
    states = np.ones((indicator.shape[0], 1))
    for pos in range(n):
        factor = factors[indicator[:, pos]]  # phi1 at anomalies, phi0 elsewhere
        states = (states[:, :, None] * factor[:, None, :]).reshape(len(states), -1)
    return states


def hypothesis_state(instance: ProblemInstance, pattern) -> np.ndarray:
    """Explicit 2^n state vector for one anomaly pattern (see _product_states)."""
    n = instance.n
    pat = normalize_pattern(pattern, n)
    if len(pat) != instance.k:
        raise ValueError(f"pattern {pat} has wrong cardinality for k={instance.k}")
    indicator = np.zeros((1, n), dtype=np.uint8)
    indicator[0, [pos - 1 for pos in pat]] = 1
    return _product_states(instance, indicator)[0]


def all_hypothesis_states(instance: ProblemInstance) -> np.ndarray:
    """Stack of all C(n,k) hypothesis vectors in lexicographic pattern order."""
    return _product_states(instance, pattern_indicator(instance.n, instance.k))


@dataclass(frozen=True)
class SrmResult:
    success: float
    diagonal: np.ndarray  # diagonal of sqrt(Gram): per-hypothesis amplitudes
    measurement_vectors: np.ndarray  # rows are the POVM vectors |m_r> in the ambient space


def srm_success_oracle(states: np.ndarray) -> SrmResult:
    """Square-root-measurement success probability from explicit states.

    Builds the Gram matrix G = U diag(w) U^T from inner products; its
    square root S = U diag(sqrt w) U^T has diagonal (U o U) sqrt(w), and
    (1/N) sum_r S_rr^2 is the success probability.  The measurement
    vectors (the POVM is |m_r><m_r|) are returned for completeness
    checks; they resolve the identity on the span of the states.  All
    of it comes from the one eigendecomposition of G.
    """
    V = np.array(states, dtype=float)
    N = V.shape[0]
    if N > 5000:
        raise ValueError(f"srm_success_oracle: too many states ({N})")
    w, U = _psd_eigh(V @ V.T)
    root = np.sqrt(w)  # eigenvalues of S
    # |m_r> = sum_s (S^+)_{sr} |Psi_s>, so that <m_r|Psi_s> = S_rs
    support = root > SUPPORT_THRESHOLD
    inv = np.where(support, 1.0 / np.where(support, root, 1.0), 0.0)
    m_vectors = ((U * inv) @ U.T) @ V
    diag = (U * U) @ root
    return SrmResult(
        success=float(np.sum(diag**2) / N),
        diagonal=diag,
        measurement_vectors=m_vectors,
    )


def _isometry(pattern, n: int, k: int, d: int) -> np.ndarray:
    """d^n x r isometry B_S with one nonzero, 1/sqrt(|class of x|), per row x.

    A string x in [d]^n (position 1 most significant, as in np.kron) is
    labelled by its letter counts on the reference and on the pattern
    positions, i.e. by x with each group sorted.  The columns are the Dicke
    states of Sym^(n-k) (x) Sym^k, legs in place (Harrow, arXiv:1308.6595).
    """
    if d**n > DENSITY_DIM_CAP:
        raise ValueError(f"universal_hypothesis: d^n = {d**n} exceeds cap {DENSITY_DIM_CAP}")
    if n < 2 * k:
        raise ValueError(f"universal_hypothesis: requires n >= 2k, got n={n}, k={k}")
    pat = normalize_pattern(pattern, n)
    if len(pat) != k:
        raise ValueError(f"pattern {pat} has wrong cardinality for k={k}")
    inside = np.isin(np.arange(1, n + 1), pat)
    digits = np.indices((d,) * n).reshape(n, -1).T
    canonical = np.hstack([np.sort(digits[:, ~inside], axis=1), np.sort(digits[:, inside], axis=1)])
    code = canonical @ d ** np.arange(n - 1, -1, -1)  # < d^n: no overflow
    _, label, count = np.unique(code, return_inverse=True, return_counts=True)
    B = np.zeros((d**n, len(count)))
    B[np.arange(d**n), label] = 1 / np.sqrt(count[label])
    return B


def universal_hypothesis(pattern, n: int, k: int, d: int) -> np.ndarray:
    """Averaged density matrix rho_S = B_S B_S^T / r for the hypothesis with
    anomalies at `pattern` (see _isometry); r = rank = number of labels."""
    B = _isometry(pattern, n, k, d)
    return B @ B.T / B.shape[1]


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
    R = rho^(-1/2) on the support of rho = sum_S B_S B_S^T / r."""
    isometries = [_isometry(p, n, k, d) for p in enumerate_patterns(n, k)]
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
    (feasible when no eigenvalue of Y - rho_sigma is below -HOLEVO_TOL)."""
    worst = 0.0
    for h in hypotheses:
        if Y.shape != h.shape:
            raise ValueError(f"dimension mismatch: {Y.shape} vs {h.shape}")
        low = float(np.linalg.eigvalsh(Y - h)[0])
        worst = min(worst, low)
    return HolevoReport(feasible=worst >= -HOLEVO_TOL, worst_violation=worst)
