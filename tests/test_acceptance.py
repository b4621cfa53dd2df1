"""Acceptance gate: one test per release criterion.

Criteria 1-8 each run a named subset of the check registry
`anomdet.verify.CHECKS` at GATE_MAX_N, printing one PASS/FAIL line per
instance; `anomdet verify` runs the same registry, and every grid and
tolerance lives there.  Criterion 9 reproduces the figures through the
CLI, which imports the registry, so it cannot be a registry check.

A registry row is the one copy of an oracle-equivalence check; no unit
test re-runs a row on part of its grid.  Unit tests cover what no row
does: error paths, k > n/2, frozen exact values, bitwise identities and
non-vacuity plants (a deliberately wrong input that a check must fail).
"""

import dataclasses
from fractions import Fraction

import pytest
from click.testing import CliRunner

from anomdet import johnson, verify
from anomdet.cli import main as cli_main

GATE_MAX_N = 9

CRITERIA = {
    1: ("spectrum-equivalence", "spectral-reconstruction"),
    2: ("min-error-vs-srm-oracle", "explicit-k123-vs-spectral"),
    3: ("reference-spectrum",),
    4: ("unambiguous-vs-min-eigenvalue", "unambiguous-certificates"),
    5: ("asymptotic-residual-ratio",),
    6: ("universal-vs-density-oracle", "universal-holevo-certificate", "universal-two-systems"),
    7: ("universal-asymptote-gap", "average-overlap-quadrature"),
    8: ("bose-mesner-closure", "eigenmatrix-PQ-identity", "johnson-eigenvalue",
        "eigenvalue-recurrence", "projector-algebra", "projector-algebra-exact",
        "adjacency-spectrum"),
}


def run_criterion(number: int) -> None:
    """Run the criterion's checks from the registry; fail on any FAIL line."""
    names = CRITERIA[number]
    checks = [check for check in verify.CHECKS if check.name in names]
    assert sorted(check.name for check in checks) == sorted(names)
    results = [r for check in checks for r in check.run(GATE_MAX_N)]
    for r in results:
        print(r.line())
    failed = [r.line() for r in results if not r.passed]
    assert results and not failed, f"criterion {number} failed: {failed}"


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} acceptance: {name} {detail}".rstrip())
    assert ok, f"acceptance criterion failed: {name} {detail}"


def test_criterion_1_spectrum_equivalence():
    run_criterion(1)


def test_criterion_2_min_error_equivalence():
    run_criterion(2)


def test_criterion_3_reference_spectra_exact():
    run_criterion(3)


def test_criterion_4_unambiguous_optimality():
    run_criterion(4)


def test_criterion_5_asymptotic_law():
    run_criterion(5)


def test_criterion_6_universal_protocol():
    run_criterion(6)


def test_criterion_7_asymptote_agreement():
    run_criterion(7)


def test_criterion_8_scheme_algebra():
    run_criterion(8)


def test_every_check_is_gated():
    gated = [name for names in CRITERIA.values() for name in names]
    assert len(gated) == len(set(gated))
    assert set(gated) == {check.name for check in verify.CHECKS}


def test_planted_error_fails_cli_and_gate(monkeypatch):
    """A residual that misses its tolerance fails `anomdet verify` and its criterion."""
    target = next(check for check in verify.CHECKS if check.name == "spectrum-equivalence")

    def missed(**inst):
        return target.residual(**inst) + 2 * target.tolerance

    planted = dataclasses.replace(target, residual=missed)
    monkeypatch.setattr(
        verify, "CHECKS", tuple(planted if c is target else c for c in verify.CHECKS)
    )
    result = CliRunner().invoke(cli_main, ["verify", "--scope", "gram", "--max-n", "4"])
    assert result.exit_code == 1
    failed = [line for line in result.output.splitlines() if line.startswith("FAIL")]
    assert failed and all(line.startswith("FAIL spectrum-equivalence ") for line in failed)
    with pytest.raises(AssertionError, match="criterion 1 failed"):
        run_criterion(1)


def test_perturbed_projector_coefficient_fails_exact_row(monkeypatch):
    """One wrong coefficient of E_1 at (n, k) = (6, 2) fails projector-algebra-exact."""
    true_coefficients = johnson._projector_coefficients

    def perturbed(n, k, j):
        coeffs = true_coefficients(n, k, j)
        if (n, k, j) == (6, 2, 1):
            return (coeffs[0] + Fraction(1, coeffs[0].denominator), *coeffs[1:])
        return coeffs

    monkeypatch.setattr(johnson, "_projector_coefficients", perturbed)
    assert verify._projector_algebra_exact(6, 2) > 0
    assert verify._projector_algebra_exact(6, 3) == 0
    with pytest.raises(AssertionError,
                       match="criterion 8 failed.*'FAIL projector-algebra-exact n=6,k=2 "):
        run_criterion(8)


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
