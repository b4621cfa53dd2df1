"""Brute-force verification from explicit states and density matrices.

Nothing in this module uses the closed forms: hypothesis states are
built as literal tensor products, measurements as literal square-root
measurements, and symmetric projectors by averaging permutation
operators.  This keeps the oracle independent of the spectral machinery
it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .combin import binomial, enumerate_patterns, normalize_pattern, pattern_indicator
from .gram import ProblemInstance, _psd_eigh

__all__ = [
    "SrmResult",
    "HolevoReport",
    "hypothesis_state",
    "all_hypothesis_states",
    "srm_success_oracle",
    "symmetric_projector",
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


def symmetric_projector(m: int, d: int) -> np.ndarray:
    """Projector onto the fully symmetric subspace of m d-level parties.

    Built as (1/m!) sum over all m! permutation operators; trace is
    C(m+d-1, d-1).
    """
    if d**m > DENSITY_DIM_CAP:
        raise ValueError(f"symmetric_projector: d^m = {d**m} exceeds cap {DENSITY_DIM_CAP}")
    if math.factorial(m) > 50000:
        raise ValueError(f"symmetric_projector: {m}! permutation operators is too many")
    dim = d**m
    ident = np.eye(dim).reshape([d] * (2 * m))
    acc = np.zeros_like(ident)
    for sigma in permutations(range(m)):
        # permutation operator: sigma applied to the row legs of the identity
        acc += ident.transpose(list(sigma) + list(range(m, 2 * m)))
    return acc.reshape(dim, dim) / math.factorial(m)


def _permute_legs(matrix: np.ndarray, perm: list[int], n: int, d: int) -> np.ndarray:
    """Conjugate a d^n x d^n matrix by the permutation that sends leg i to perm[i]."""
    dim = d**n
    tensor = matrix.reshape([d] * (2 * n))
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    axes = inv + [n + i for i in inv]
    return tensor.transpose(axes).reshape(dim, dim)


def universal_hypothesis(pattern, n: int, k: int, d: int) -> np.ndarray:
    """Averaged density matrix for the hypothesis with anomalies at `pattern`.

    The symmetric projector on the n-k reference parties tensor the
    symmetric projector on the k anomalous parties, legs rearranged so
    the anomalous parties sit at the pattern positions, normalized to
    unit trace.
    """
    if d**n > DENSITY_DIM_CAP:
        raise ValueError(f"universal_hypothesis: d^n = {d**n} exceeds cap {DENSITY_DIM_CAP}")
    if n < 2 * k:
        raise ValueError(f"universal_hypothesis: requires n >= 2k, got n={n}, k={k}")
    pat = normalize_pattern(pattern, n)
    if len(pat) != k:
        raise ValueError(f"pattern {pat} has wrong cardinality for k={k}")
    base = np.kron(symmetric_projector(n - k, d), symmetric_projector(k, d))
    # base legs: first n-k reference, last k anomalous; send them to their slots
    reference = [pos for pos in range(1, n + 1) if pos not in pat]
    perm = [pos - 1 for pos in reference] + [pos - 1 for pos in pat]
    rho = _permute_legs(base, perm, n, d)
    norm = binomial(n - k + d - 1, d - 1) * binomial(k + d - 1, d - 1)
    return rho / norm


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


def universal_success_oracle(n: int, k: int, d: int) -> float:
    """Square-root measurement on the explicit averaged hypotheses.

    Builds rho = sum_sigma rho_sigma, its pseudo-inverse square root R on
    the support, and averages tr(rho_sigma Pi_sigma), Pi_sigma = R rho_sigma R.
    """
    pats = enumerate_patterns(n, k)
    hyps = [universal_hypothesis(p, n, k, d) for p in pats]
    R = _support_inverse_sqrt(np.sum(hyps, axis=0))
    total = 0.0
    for h in hyps:
        pi = R @ h @ R
        total += float(np.tensordot(h, pi))
    return total / len(hyps)


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
