"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here and nowhere else."""

import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from anomdet.cli import main as cli_main
from anomdet.combin import binomial
from anomdet.gram import ProblemInstance, closed_form_spectrum, direct_spectrum, gram_matrix
from anomdet.johnson import (
    dual_hahn_polynomial,
    eigenmatrices,
    hahn_polynomial,
    multiplicity,
    scheme_basis,
    scheme_projector_exact,
    verify_bose_mesner_closure,
)
from anomdet.oracle import all_hypothesis_states, srm_success_oracle, universal_success_oracle
from anomdet.protocols import (
    explicit_success_k123,
    min_error_asymptotic,
    min_error_success,
    unambiguous_success,
    verify_unambiguous_certificates,
)
from anomdet.universal import UniversalInstance, average_known_success, universal_success

C_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def _grid(max_n=9, max_k=4):
    for n in range(2, max_n + 1):
        for k in range(1, min(max_k, n // 2) + 1):
            for c in C_GRID:
                yield ProblemInstance(n=n, k=k, c=c)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} acceptance: {name} {detail}".rstrip())
    assert ok, f"acceptance criterion failed: {name} {detail}"


def test_criterion_1_spectrum_equivalence():
    worst = 0.0
    for inst in _grid():
        closed = closed_form_spectrum(inst).as_multiset()
        dense = direct_spectrum(gram_matrix(inst))
        worst = max(worst, float(np.abs(closed - dense).max()))
    _report("spectrum equivalence", worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_2_min_error_equivalence():
    worst_oracle = 0.0
    for inst in _grid():
        closed = min_error_success(inst).value
        oracle = srm_success_oracle(all_hypothesis_states(inst)).success
        worst_oracle = max(worst_oracle, abs(closed - oracle))
    worst_explicit = 0.0
    for k in (1, 2, 3):
        for n in range(max(2 * k - 1, k + 1), 61):
            for c in C_GRID:
                inst = ProblemInstance(n=n, k=k, c=c)
                worst_explicit = max(
                    worst_explicit,
                    abs(explicit_success_k123(inst).value - min_error_success(inst).value),
                )
    ok = worst_oracle < 1e-10 and worst_explicit < 1e-12
    _report(
        "minimum-error equivalence",
        ok,
        f"oracle residual {worst_oracle:.2e}, explicit residual {worst_explicit:.2e}",
    )


def test_criterion_3_reference_spectra_exact():
    ok = True
    overlaps = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    # single anomaly: eigenvalues 1 + (n-1)c^2 and 1 - c^2, multiplicities 1, n-1
    for n in range(2, 21):
        for c in overlaps:
            z = c * c
            entries = closed_form_spectrum(ProblemInstance(n, 1, c)).entries
            ok &= [(e.value, e.multiplicity) for e in entries] == [
                (1 + (n - 1) * z, 1),
                (1 - z, n - 1),
            ]
    # extreme eigenvalue rows, exact for n <= 20, k <= 5
    for n in range(2, 21):
        for k in range(1, min(5, n // 2) + 1):
            for c in overlaps:
                z = c * c
                entries = {e.j: e.value for e in closed_form_spectrum(ProblemInstance(n, k, c)).entries}
                ok &= entries[k] == (1 - z) ** k
                ok &= entries[k - 1] == (1 - z) ** (k - 1) * (1 + z * (n + 1 - 2 * k))
                ok &= entries[0] == sum(
                    z**i * binomial(k, i) * binomial(n - k, i) for i in range(k + 1)
                )
    _report("reference spectra exact", ok)


def test_criterion_4_unambiguous_optimality():
    worst_eig = 0.0
    worst_gap = 0.0
    all_feasible = True
    for inst in _grid():
        ua = unambiguous_success(inst).value
        V = all_hypothesis_states(inst)
        lam_min = float(direct_spectrum(V @ V.T)[-1])
        worst_eig = max(worst_eig, abs(ua - lam_min))
        report = verify_unambiguous_certificates(inst)
        all_feasible &= report.optimal
        worst_gap = max(worst_gap, report.gap)
    ok = worst_eig < 1e-10 and worst_gap <= 1e-10 and all_feasible
    _report(
        "unambiguous optimality",
        ok,
        f"eigenvalue residual {worst_eig:.2e}, certificate gap {worst_gap:.2e}",
    )


def test_criterion_5_asymptotic_law():
    residuals = []
    for n in (100, 400, 1600):
        inst = ProblemInstance(n, 2, 0.5)
        residuals.append(abs(min_error_success(inst).value - min_error_asymptotic(inst).value))
    ratios = [r_n / r_4n for r_n, r_4n in zip(residuals, residuals[1:])]
    ok = all(3 <= r <= 5 for r in ratios)
    ok &= (1 - 0.25) ** 2 == 0.5625 and (1 - 0.25) ** 3 == 0.421875
    _report("asymptotic law", ok, f"residual ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_6_universal_protocol():
    worst = 0.0
    for n in range(2, 7):
        for k in range(1, n // 2 + 1):
            closed = float(universal_success(UniversalInstance(n, k, 2)))
            worst = max(worst, abs(closed - universal_success_oracle(n, k, 2)))
    for n in (2, 3, 4):
        for k in range(1, min(2, n // 2) + 1):
            closed = float(universal_success(UniversalInstance(n, k, 3)))
            worst = max(worst, abs(closed - universal_success_oracle(n, k, 3)))
    exact_half = universal_success(UniversalInstance(2, 1, 2)) == Fraction(1, 2)
    ok = worst < 1e-8 and exact_half
    _report("universal protocol", ok, f"worst oracle residual {worst:.2e}")


def test_criterion_7_asymptote_agreement():
    ok = True
    for k in (1, 2, 3):
        gap = abs(float(universal_success(UniversalInstance(500, k, 2))) - 1 / (k + 1))
        ok &= gap < 0.01
    for d in (2, 3, 4):
        for k in range(5):
            quad = average_known_success(k, d)
            ok &= abs(quad - (d - 1) / (d - 1 + k)) < 1e-8
    _report("asymptote agreement", ok)


def test_criterion_8_scheme_algebra():
    ok = True
    for n in range(2, 9):
        for k in range(1, min(4, n // 2) + 1):
            basis = scheme_basis(n, k)
            numbers = verify_bose_mesner_closure(basis)
            ok &= all(
                isinstance(v, int) and v >= 0 for coeffs in numbers.values() for v in coeffs
            )
            N = basis.size
            em = eigenmatrices(n, k)
            for j in range(k + 1):
                for jp in range(k + 1):
                    entry = sum(em.P[j][i] * em.Q[i][jp] for i in range(k + 1))
                    ok &= entry == (N if j == jp else 0)
            for i in range(k + 1):
                for j in range(k + 1):
                    ok &= dual_hahn_polynomial(i, j, n, k) == hahn_polynomial(j, i, n, k)
            projs = [scheme_projector_exact(n, k, j) for j in range(k + 1)]
            for j, E in enumerate(projs):
                ok &= sum(E[a][a] for a in range(N)) == multiplicity(n, j)
            # idempotency and completeness, exact, on F_j = L E_j with L the
            # lcm of all entry denominators: E_j E_j = E_j <=> F_j F_j = L F_j
            # and sum_j E_j = I <=> sum_j F_j = L I, in Python-int arithmetic
            L = math.lcm(*(x.denominator for E in projs for row in E for x in row))
            scaled = [[[x * L for x in row] for row in E] for E in projs]
            ok &= all(x.denominator == 1 for F in scaled for row in F for x in row)
            ints = [np.array([[int(x) for x in row] for row in F], dtype=object) for F in scaled]
            for F in ints:
                ok &= (F @ F == L * F).all()
            ident = np.array([[L * int(a == b) for b in range(N)] for a in range(N)], dtype=object)
            ok &= (np.sum(ints, axis=0) == ident).all()
    _report("scheme algebra exact", bool(ok))


def test_criterion_9_figure_reproduction():
    runner = CliRunner()
    ok = True
    # success-vs-n curves for 2 and 3 anomalies at overlap 1/2
    outputs = {}
    for k, limit in ((2, 0.5625), (3, 0.421875)):
        args = ["sweep", "--protocol", "minerr", "--n-range", f"{2*k+1}:400:20",
                "--k", str(k), "--c-grid", "0.5"]
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        ok &= first.exit_code == 0 and first.output == second.output
        rows = [l.split(",") for l in first.output.strip().splitlines()[1:]]
        values = [float(r[4]) for r in rows if r[3] == "minerr"]
        limits = {float(r[4]) for r in rows if r[3] == "minerr_limit"}
        ok &= all(a > b for a, b in zip(values, values[1:]))  # monotone decreasing
        ok &= limits == {limit}
        ok &= all(v > limit for v in values)
        outputs[k] = values
    # universal curve for one anomaly, qubits
    args = ["sweep", "--protocol", "universal", "--n-range", "2:60:2", "--k", "1", "--d", "2"]
    result = runner.invoke(cli_main, args)
    ok &= result.exit_code == 0
    rows = [l.split(",") for l in result.output.strip().splitlines()[1:]]
    values = [float(r[4]) for r in rows if r[3] == "universal"]
    asymptotes = {float(r[4]) for r in rows if r[3] == "universal_asymptote"}
    ok &= values[0] == 0.5
    # monotone increasing once past the shallow dip after the degenerate n = 2 point
    ok &= all(a < b for a, b in zip(values[1:], values[2:]))
    ok &= asymptotes == {0.5}
    _report("figure reproduction", bool(ok))
