"""Oracle-equivalence check suites behind the `verify` CLI command.

Each suite returns a list of CheckResult; a check compares an analytic
value against an independently computed one and records the residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import johnson
from .gram import ProblemInstance, closed_form_spectrum, direct_spectrum, gram_matrix
from .oracle import all_hypothesis_states, srm_success_oracle, universal_success_oracle
from .protocols import (
    explicit_success_k123,
    min_error_success,
    unambiguous_success,
    verify_unambiguous_certificates,
)
from .universal import UniversalInstance, average_known_success, universal_success

__all__ = ["CheckResult", "run_scope", "SCOPES"]

C_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass(frozen=True)
class CheckResult:
    name: str
    instance: str
    residual: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} {self.instance} {self.residual:.3e}"


def _check(name: str, instance: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(name=name, instance=instance, residual=float(residual),
                       passed=bool(residual <= tol))


def scheme_checks(max_n: int) -> list[CheckResult]:
    """Bose-Mesner closure, projector algebra, P.Q = N.I, Hahn duality."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, min(4, n // 2) + 1):
            tag = f"n={n},k={k}"
            basis = johnson.scheme_basis(n, k)
            try:
                johnson.verify_bose_mesner_closure(basis)
                out.append(_check("bose-mesner-closure", tag, 0.0, 0.0))
            except johnson.SchemeClosureError:
                out.append(_check("bose-mesner-closure", tag, 1.0, 0.0))

            em = johnson.eigenmatrices(n, k)
            N = basis.size
            pq_err = max(
                abs(sum(em.P[j][i] * em.Q[i][jp] for i in range(k + 1))
                    - (N if j == jp else 0))
                for j in range(k + 1)
                for jp in range(k + 1)
            )
            out.append(_check("eigenmatrix-PQ-identity", tag, float(pq_err), 0.0))

            dual_err = max(
                abs(johnson.dual_hahn_polynomial(i, j, n, k)
                    - johnson.hahn_polynomial(j, i, n, k))
                for i in range(k + 1)
                for j in range(k + 1)
            )
            out.append(_check("hahn-duality", tag, float(dual_err), 0.0))

            projs = [johnson.scheme_projector(n, k, j) for j in range(k + 1)]
            res = float(np.abs(np.sum(projs, axis=0) - np.eye(N)).max())
            for j, E in enumerate(projs):
                res = max(res, float(np.abs(E @ E - E).max()))
            out.append(_check("projector-algebra", tag, res, 1e-10))

            # adjacency spectra match the eigenmatrix rows
            for i in range(k + 1):
                ev = direct_spectrum(basis.adjacency[i].astype(float))
                pv = []
                for j in range(k + 1):
                    pv += [float(em.P[j][i])] * johnson.multiplicity(n, j)
                pv = np.sort(np.array(pv))[::-1]
                out.append(_check("adjacency-spectrum", f"{tag},i={i}",
                                  float(np.abs(ev - pv).max()), 1e-9))
    return out


def gram_checks(max_n: int) -> list[CheckResult]:
    """Closed-form spectrum vs dense eigendecomposition, reconstruction, SRM trace."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, min(4, n // 2) + 1):
            for c in C_GRID:
                inst = ProblemInstance(n=n, k=k, c=c)
                tag = f"n={n},k={k},c={c}"
                spec = closed_form_spectrum(inst)
                G = gram_matrix(inst)
                res = float(np.abs(spec.as_multiset() - direct_spectrum(G)).max())
                out.append(_check("spectrum-equivalence", tag, res, 1e-9))

            # spectral reconstruction G = sum_j lambda_j E_j at one overlap
            inst = ProblemInstance(n=n, k=k, c=0.5)
            G = gram_matrix(inst)
            spec = closed_form_spectrum(inst)
            recon = np.zeros_like(G)
            for e in spec.entries:
                recon += float(e.value) * johnson.scheme_projector(n, k, e.j)
            out.append(_check("spectral-reconstruction", f"n={n},k={k},c=0.5",
                              float(np.abs(G - recon).max()), 1e-10))
    return out


def detection_checks(max_n: int) -> list[CheckResult]:
    """Minimum-error and unambiguous values vs the state-level oracle."""
    out = []
    for n in range(2, max_n + 1):
        for k in range(1, min(3, n // 2) + 1):
            for c in C_GRID:
                inst = ProblemInstance(n=n, k=k, c=c)
                tag = f"n={n},k={k},c={c}"
                closed = min_error_success(inst).value
                oracle = srm_success_oracle(all_hypothesis_states(inst)).success
                out.append(_check("min-error-vs-srm-oracle", tag,
                                  abs(closed - oracle), 1e-10))
                out.append(_check("explicit-k123-vs-spectral", tag,
                                  abs(explicit_success_k123(inst).value - closed),
                                  1e-12))
                ua = unambiguous_success(inst).value
                lam_min = float(direct_spectrum(gram_matrix(inst))[-1])
                out.append(_check("unambiguous-vs-min-eigenvalue", tag,
                                  abs(ua - lam_min), 1e-10))
                report = verify_unambiguous_certificates(inst)
                cert_res = report.gap if report.optimal else 1.0
                out.append(_check("unambiguous-certificates", tag, cert_res, 1e-10))
    return out


def universal_checks(max_n: int) -> list[CheckResult]:
    """Closed-form universal value vs the density-matrix oracle; averages."""
    out = []
    for n in range(2, min(max_n, 6) + 1):
        for k in range(1, n // 2 + 1):
            tag = f"n={n},k={k},d=2"
            closed = float(universal_success(UniversalInstance(n=n, k=k, d=2)))
            oracle = universal_success_oracle(n, k, 2)
            out.append(_check("universal-vs-density-oracle", tag,
                              abs(closed - oracle), 1e-8))
    for n in (2, 3, 4):
        for k in range(1, min(2, n // 2) + 1):
            tag = f"n={n},k={k},d=3"
            closed = float(universal_success(UniversalInstance(n=n, k=k, d=3)))
            oracle = universal_success_oracle(n, k, 3)
            out.append(_check("universal-vs-density-oracle", tag,
                              abs(closed - oracle), 1e-8))
    for d in (2, 3, 4):
        for k in range(5):
            tag = f"k={k},d={d}"
            avg = average_known_success(k, d)
            expected = float(Fraction(d - 1, d - 1 + k))
            out.append(_check("average-overlap-quadrature", tag,
                              abs(avg - expected), 1e-8))
    return out


SCOPES = {
    "scheme": scheme_checks,
    "gram": gram_checks,
    "detection": detection_checks,
    "universal": universal_checks,
}


def run_scope(scope: str, max_n: int) -> list[CheckResult]:
    if scope == "all":
        results = []
        for fn in SCOPES.values():
            results.extend(fn(max_n))
        return results
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected all|{'|'.join(SCOPES)}")
    return SCOPES[scope](max_n)
