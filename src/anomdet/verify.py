"""The check registry behind both `anomdet verify` and the acceptance gate.

CHECKS is the one table of oracle-equivalence checks.  Each Check names
a family of instances, `grid(max_n)`, and a residual for one instance;
an instance passes when its residual is at most the check's tolerance
(0 for the exact checks).  A residual compares an analytic value
against an independently computed one.  `anomdet verify` prints one
line per instance; tests/test_acceptance.py runs the same checks, one
named subset per release criterion, so the two cannot drift apart.  A
residual that raises fails its instance with an ERROR line instead of
ending the run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import johnson
from .combin import SCOPES, _CACHES, _bounded_cache, _multiplicities, binomial, distance_matrix
from .gram import ProblemInstance, closed_form_spectrum, direct_spectrum, gram_matrix
from .oracle import (
    STATE_QUBITS_CAP,
    SrmResult,
    all_hypothesis_states,
    srm_success_oracle,
    universal_holevo_violation,
    universal_success_oracle,
)
from .protocols import (
    explicit_success_k123,
    min_error_asymptotic,
    min_error_success,
    unambiguous_success,
    verify_unambiguous_certificates,
)
from .universal import UniversalInstance, average_known_success, universal_success

__all__ = ["Check", "CheckResult", "CHECKS", "SCOPES", "run_scope"]

C_GRID = (0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9)
HIGH_C_GRID = (0.999, 0.9999, 0.99999, 1.0)  # where the Gram's small eigenvalues reach rounding
REFERENCE_OVERLAPS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


@dataclass(frozen=True)
class CheckResult:
    name: str
    instance: str
    residual: float
    passed: bool
    error: str | None = None  # "<ExcType>: <message>" when the residual raised

    def line(self) -> str:
        if self.error is not None:
            return f"ERROR {self.name} {self.instance} {self.error}"
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} {self.instance} {self.residual:.3e}"


@dataclass(frozen=True)
class Check:
    """One registry row.  `grid(max_n)` yields instances as keyword
    arguments of `residual`; an instance passes when its residual is at
    most `tolerance`; one whose residual raises fails with the error."""

    name: str
    scope: str
    tolerance: float
    grid: Callable[[int], Iterator[dict]]
    residual: Callable[..., float]

    def run(self, max_n: int) -> list[CheckResult]:
        out = []
        for inst in self.grid(max_n):
            tag = ",".join(f"{key}={value}" for key, value in inst.items())
            try:
                residual = float(self.residual(**inst))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                out.append(CheckResult(self.name, tag, math.nan, False, error))
                continue
            out.append(CheckResult(self.name, tag, residual, residual <= self.tolerance))
        return out


# --- grids ---------------------------------------------------------------

def _classes(n: int, k: int) -> range:
    """The class (and eigenvalue) indices 0..m of J(n, k), m = min(k, n - k)."""
    return range(min(k, n - k) + 1)


def _scheme_grid(max_n: int, ends: bool = False) -> Iterator[dict]:
    """2 <= n <= max_n with 1 <= k <= min(4, n//2), then the mirrored cells
    n <= min(max_n, 10) with max(n//2 + 1, n - 4) <= k <= n - 1, and k = 0
    and k = n among them when `ends`.  The mirrored k are the complements
    n - k of the first part's k < n/2: the same scheme and closed forms by
    complement symmetry, reached through m = min(k, n - k)."""
    for n in range(2, max_n + 1):
        for k in range(1, min(4, n // 2) + 1):
            yield {"n": n, "k": k}
    for n in range(2, min(max_n, 10) + 1):
        mirrored = range(max(n // 2 + 1, n - 4), n)
        for k in (0, *mirrored, n) if ends else mirrored:
            yield {"n": n, "k": k}


def _adjacency_grid(max_n: int) -> Iterator[dict]:
    for inst in _scheme_grid(max_n):
        for i in _classes(inst["n"], inst["k"]):
            yield {**inst, "i": i}


def _overlap_grid(max_n: int) -> Iterator[dict]:
    """The scheme grid with k in {0, n} among its mirrored cells, at each c of C_GRID."""
    for inst in _scheme_grid(max_n, ends=True):
        for c in C_GRID:
            yield {**inst, "c": c}


def _srm_grid(max_n: int) -> Iterator[dict]:
    """The overlap grid, then n <= min(max_n, 10), 1 <= k <= n-1 at each c of HIGH_C_GRID."""
    yield from _overlap_grid(max_n)
    for n in range(2, min(max_n, 10) + 1):
        for k in range(1, n):
            for c in HIGH_C_GRID:
                yield {"n": n, "k": k, "c": c}


def _explicit_grid(max_n: int) -> Iterator[dict]:
    """k = 1, 2, 3 from the smallest n each explicit form accepts up to max(60, max_n)."""
    for k in (1, 2, 3):
        for n in range(max(2 * k - 1, k + 1), max(60, max_n) + 1):
            for c in C_GRID:
                yield {"n": n, "k": k, "c": c}


def _reference_grid(max_n: int) -> Iterator[dict]:
    """Exact overlaps, n <= 20, k <= 5."""
    for n in range(2, 21):
        for k in range(1, min(5, n // 2) + 1):
            for c in REFERENCE_OVERLAPS:
                yield {"n": n, "k": k, "c": c}


def _universal_grid(max_n: int) -> Iterator[dict]:
    """1 <= k <= n - 1 for qubits at n <= min(max_n, 7) and qutrits at
    n <= min(max_n, 5) (d^n-wide matrices); k > n/2 by complement symmetry."""
    for d, top in ((2, 7), (3, 5)):
        for n in range(2, min(max_n, top) + 1):
            for k in range(1, n):
                yield {"n": n, "k": k, "d": d}


def _fixed(*instances: dict) -> Callable[[int], Iterator[dict]]:
    return lambda max_n: iter(instances)


# --- residuals: Johnson scheme -------------------------------------------

@_bounded_cache
def _intersection_numbers(n: int, k: int) -> dict[tuple[int, int], list[int]]:
    """verify_bose_mesner_closure(scheme_basis(n, k)), once per (n, k) for two rows."""
    return johnson.verify_bose_mesner_closure(johnson.scheme_basis(n, k))


def _bose_mesner_closure(n: int, k: int) -> float:
    """0 if A_i A_j stays in the span with non-negative integer coefficients
    (verify_bose_mesner_closure raises SchemeClosureError otherwise)."""
    try:
        _intersection_numbers(n, k)
    except johnson.SchemeClosureError:
        return 1.0
    return 0.0


def _pq_identity(n: int, k: int) -> float:
    """P Q = N I, exactly."""
    em, classes = johnson.eigenmatrices(n, k), _classes(n, k)
    N = binomial(n, k)
    return float(max(
        abs(sum(em.P[j][i] * em.Q[i][jp] for i in classes) - (N if j == jp else 0))
        for j in classes
        for jp in classes
    ))


def _johnson_eigenvalue(n: int, k: int) -> float:
    """P[j][1] against the Johnson-graph eigenvalue (k-j)(n-k-j) - j."""
    P = johnson.eigenmatrices(n, k).P
    return float(max(abs(P[j][1] - ((k - j) * (n - k - j) - j)) for j in _classes(n, k)))


def _eigenvalue_recurrence(n: int, k: int) -> float:
    """P[j][1] P[j][i] = sum_l p_1i^l P[j][l] (A_1 A_i on the j-th eigenspace).

    The intersection numbers are counted from the adjacency matrices, so
    this is independent of the Hahn values behind P, each its 3F2 summed in
    integers (Delsarte 1973).  1 if the basis has no intersection numbers
    (verify_bose_mesner_closure raises SchemeClosureError).
    """
    P, classes = johnson.eigenmatrices(n, k).P, _classes(n, k)
    try:
        p = _intersection_numbers(n, k)
    except johnson.SchemeClosureError:
        return 1.0
    return float(max(
        abs(P[j][1] * P[j][i] - sum(p[(1, i)][l] * P[j][l] for l in classes))
        for j in classes
        for i in classes
    ))


def _projector_algebra(n: int, k: int) -> float:
    """Float E_j: E_j E_j = E_j and sum_j E_j = I."""
    projs = [johnson.scheme_projector(n, k, j) for j in _classes(n, k)]
    res = float(np.abs(sum(projs) - np.eye(len(projs[0]))).max())
    return max(res, *(float(np.abs(E @ E - E).max()) for E in projs))


def _projector_algebra_exact(n: int, k: int) -> float:
    """Exact E_j: idempotency, completeness and tr E_j = m_j.

    F_j = L E_j, with L the lcm of the denominators of the m+1
    coefficients of every E_j, has integer entries: F_j F_j = L F_j,
    sum_j F_j = L I and tr F_j = L m_j.  The float64 arithmetic on F_j
    is exact while every partial sum, at most N max|F|^2 (and L max|F|
    for L F_j), stays below 2^53; beyond that ValueError is raised.
    """
    coeffs = [johnson._projector_coefficients(n, k, j) for j in _classes(n, k)]
    L = math.lcm(*(x.denominator for row in coeffs for x in row))
    scaled = [[int(x * L) for x in row] for row in coeffs]
    N = binomial(n, k)
    top = max(abs(v) for row in scaled for v in row)
    if max(N * top * top, L * top) >= 2**53:
        raise ValueError(f"integer projectors exceed float64 exactness at n={n}, k={k}")
    D = distance_matrix(n, k)
    F = [np.array(row, dtype=np.float64).take(D) for row in scaled]
    res = float(np.abs(sum(F) - L * np.eye(N)).max())
    for Fj, m_j in zip(F, _multiplicities(n, min(k, n - k))):
        res = max(res, float(np.abs(Fj @ Fj - L * Fj).max()), abs(int(np.trace(Fj)) - L * m_j))
    return float(res)


def _adjacency_spectrum(n: int, k: int, i: int) -> float:
    """Dense spectrum of A_i against column i of P with multiplicities m_j."""
    P = johnson.eigenmatrices(n, k).P
    dense = direct_spectrum((distance_matrix(n, k) == i).astype(float))
    classes = _classes(n, k)
    expected = np.repeat([float(P[j][i]) for j in classes], _multiplicities(n, classes[-1]))
    return float(np.abs(dense - np.sort(expected)[::-1]).max())


# --- residuals: Gram spectrum --------------------------------------------

def _spectrum_equivalence(n: int, k: int, c: float) -> float:
    inst = ProblemInstance(n, k, c)
    closed = closed_form_spectrum(inst).as_multiset()
    return float(np.abs(closed - direct_spectrum(gram_matrix(inst))).max())


def _spectral_reconstruction(n: int, k: int, c: float) -> float:
    """G = sum_j lambda_j E_j."""
    inst = ProblemInstance(n, k, c)
    G = gram_matrix(inst)
    recon = sum(value * johnson.scheme_projector(n, k, j)
                for j, value in enumerate(closed_form_spectrum(inst).values))
    return float(np.abs(G - recon).max())


def _reference_spectrum(n: int, k: int, c: Fraction) -> float:
    """Exact rows j = 0, k-1, k and their multiplicities against textbook forms."""
    z = c * c
    spec = closed_form_spectrum(ProblemInstance(n, k, c))
    if len(spec.values) != k + 1:
        return 1.0
    expected = {
        0: sum(z**i * binomial(k, i) * binomial(n - k, i) for i in range(k + 1)),
        k - 1: (1 - z) ** (k - 1) * (1 + z * (n + 1 - 2 * k)),
        k: (1 - z) ** k,
    }
    return float(max(
        abs(spec.values[j] - value)
        + abs(spec.multiplicities[j] - (binomial(n, j) - binomial(n, j - 1)))
        for j, value in expected.items()
    ))


# --- residuals: detection --------------------------------------------------

@lru_cache(maxsize=sum(1 for _ in _srm_grid(STATE_QUBITS_CAP)))
def _srm(n: int, k: int, c: float) -> SrmResult:
    """srm_success_oracle on the explicit states, once per (n, k, c) for three rows.

    The cache holds the whole _srm_grid at the qubit cap, so the later
    detection rows read every result the first one computed.  It is the
    run memo of those rows, sized to their grid, not an (n, k) table: under
    the entry bound of a _bounded_cache each row would evict what the next
    reads, and each (n, k, c) would be factored three times.  The oracle
    itself factors one support pattern per (n, k) (one more each at c = 0
    and 1, where whole columns vanish); for each c it weighs the pattern's
    column classes by one amplitude each, certifies the result and reads
    the singular values of the stack off it.
    """
    return srm_success_oracle(all_hypothesis_states(ProblemInstance(n, k, c)))


_CACHES.append(_srm)  # combin._clear_caches empties the run memo with the (n, k) tables


def _min_error_vs_srm(n: int, k: int, c: float) -> float:
    return abs(min_error_success(ProblemInstance(n, k, c)).value - _srm(n, k, c).success)


def _srm_optimality_gap(n: int, k: int, c: float) -> float:
    """Duality gap of the SRM, |max(S) mean(S) - mean(S^2)| for S the diagonal of sqrt(G).

    mean(S^2) is the SRM's success, as _srm holds it, and Y = (max(S)/N) Q G^(1/2) Q^T, with
    Psi = Q G^(1/2) the states and Q an isometry, is feasible for the dual
    (Y >= psi_r psi_r^T / N for every r) with value tr Y = max(S) mean(S).
    The gap is zero exactly when S is constant, so that the SRM is optimal
    (Holevo 1973; Yuen, Kennedy & Lax 1975; Eldar, Megretski & Verghese
    2003).
    """
    result = _srm(n, k, c)
    S = result.diagonal
    return abs(float(S.max() * S.mean()) - result.success)


def _explicit_vs_spectral(n: int, k: int, c: float) -> float:
    inst = ProblemInstance(n, k, c)
    return abs(explicit_success_k123(inst).value - min_error_success(inst).value)


def _unambiguous_vs_min_eigenvalue(n: int, k: int, c: float) -> float:
    """Zero-error value against the smallest eigenvalue of V V^T from explicit states.

    The eigenvalue is the SRM oracle's smallest squared singular value of
    the stack V: the smallest of sum_c f_c^2 d_c, the class-weighted squared
    row norms in the certified basis of the stack's support pattern, or the
    SVD's smallest (0 when V has fewer columns than rows) if that basis
    fails.  It is shared through _srm, so the states are built and factored
    once per (n, k, c) for every detection row that reads them.
    """
    value = unambiguous_success(ProblemInstance(n, k, c)).value
    return abs(value - float(_srm(n, k, c).eigenvalues[0]))


def _unambiguous_certificates(n: int, k: int, c: float) -> float:
    report = verify_unambiguous_certificates(ProblemInstance(n, k, c))
    return report.gap if report.optimal else 1.0


def _asymptotic_ratio(n: int, k: int, c: float) -> float:
    """|r(n)/r(4n) - 4|, r = |exact - two-term expansion|; an O(1/n) remainder gives 4."""
    r = [abs(min_error_success(inst).value - min_error_asymptotic(inst).value)
         for inst in (ProblemInstance(n, k, c), ProblemInstance(4 * n, k, c))]
    return abs(r[0] / r[1] - 4)


# --- residuals: universal protocol ---------------------------------------

def _universal_vs_density(n: int, k: int, d: int) -> float:
    closed = float(universal_success(UniversalInstance(n, k, d)))
    return abs(closed - universal_success_oracle(n, k, d))


def _universal_two_systems(n: int, k: int, d: int) -> float:
    """Two preparations, one anomalous: exactly 1/2 for every d."""
    return float(abs(universal_success(UniversalInstance(n, k, d)) - Fraction(1, 2)))


def _universal_asymptote_gap(n: int, k: int, d: int) -> float:
    return abs(float(universal_success(UniversalInstance(n, k, d))) - (d - 1) / (d - 1 + k))


def _average_quadrature(k: int, d: int) -> float:
    return abs(average_known_success(k, d) - float(Fraction(d - 1, d - 1 + k)))


CHECKS: tuple[Check, ...] = (
    Check("bose-mesner-closure", "scheme", 0.0, _scheme_grid, _bose_mesner_closure),
    Check("eigenmatrix-PQ-identity", "scheme", 0.0, _scheme_grid, _pq_identity),
    Check("johnson-eigenvalue", "scheme", 0.0, _scheme_grid, _johnson_eigenvalue),
    Check("eigenvalue-recurrence", "scheme", 0.0, _scheme_grid, _eigenvalue_recurrence),
    Check("projector-algebra", "scheme", 1e-10, _scheme_grid, _projector_algebra),
    Check("projector-algebra-exact", "scheme", 0.0, _scheme_grid, _projector_algebra_exact),
    Check("adjacency-spectrum", "scheme", 1e-9, _adjacency_grid, _adjacency_spectrum),
    Check("spectrum-equivalence", "gram", 1e-9, _overlap_grid, _spectrum_equivalence),
    Check("spectral-reconstruction", "gram", 1e-10,
          lambda max_n: ({**inst, "c": 0.5} for inst in _scheme_grid(max_n)),
          _spectral_reconstruction),
    Check("reference-spectrum", "gram", 0.0, _reference_grid, _reference_spectrum),
    Check("min-error-vs-srm-oracle", "detection", 1e-10, _srm_grid, _min_error_vs_srm),
    Check("min-error-srm-optimality-gap", "detection", 1e-10, _srm_grid, _srm_optimality_gap),
    Check("explicit-k123-vs-spectral", "detection", 1e-12, _explicit_grid,
          _explicit_vs_spectral),
    Check("unambiguous-vs-min-eigenvalue", "detection", 1e-10, _srm_grid,
          _unambiguous_vs_min_eigenvalue),
    Check("unambiguous-certificates", "detection", 1e-10, _overlap_grid,
          _unambiguous_certificates),
    Check("asymptotic-residual-ratio", "detection", 1.0,
          _fixed({"n": 100, "k": 2, "c": 0.5}, {"n": 400, "k": 2, "c": 0.5}),
          _asymptotic_ratio),
    Check("universal-vs-density-oracle", "universal", 1e-8, _universal_grid,
          _universal_vs_density),
    Check("universal-holevo-certificate", "universal", 1e-9, _universal_grid,
          universal_holevo_violation),
    Check("universal-two-systems", "universal", 0.0,
          _fixed(*({"n": 2, "k": 1, "d": d} for d in (2, 3, 4))), _universal_two_systems),
    Check("universal-asymptote-gap", "universal", 0.01,
          _fixed(*({"n": 500, "k": k, "d": 2} for k in (1, 2, 3))), _universal_asymptote_gap),
    Check("average-overlap-quadrature", "universal", 1e-8,
          _fixed(*({"k": k, "d": d} for d in (2, 3, 4) for k in range(5))),
          _average_quadrature),
)


def run_scope(scope: str, max_n: int) -> list[CheckResult]:
    """Every instance of every check in `scope` ("all" for the whole registry).

    Raises ValueError for an unknown scope, and for a max_n outside
    [2, STATE_QUBITS_CAP], the explicit-state oracles' qubit cap.
    """
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected all|{'|'.join(SCOPES)}")
    if not 2 <= max_n <= STATE_QUBITS_CAP:
        raise ValueError(f"--max-n must be in [2, {STATE_QUBITS_CAP}] "
                         f"(the explicit-state oracles' qubit cap), got {max_n}")
    return [r for check in CHECKS if scope in ("all", check.scope) for r in check.run(max_n)]
