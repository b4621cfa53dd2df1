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

import numpy as np
import pytest
from click.testing import CliRunner

from anomdet import combin, gram, johnson, oracle, protocols, verify
from anomdet.cli import main as cli_main
from anomdet.gram import ProblemInstance

GATE_MAX_N = 9

CRITERIA = {
    1: ("spectrum-equivalence", "spectral-reconstruction"),
    2: ("min-error-vs-srm-oracle", "min-error-srm-optimality-gap", "explicit-k123-vs-spectral"),
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


def test_perturbed_state_fails_the_optimality_gap_row(monkeypatch, cold):
    """One state of (8, 2, 0.5) moved by 1e-3 on its support, then renormalised:
    the diagonal of sqrt(G) is no longer constant, and the SRM's duality gap
    fails min-error-srm-optimality-gap while (8, 2, 0.7) still passes."""
    states = verify.all_hypothesis_states

    def perturbed(inst):
        V = states(inst)
        if inst.c == 0.5:
            V[0, V[0] != 0] += 1e-3
            V[0] /= np.linalg.norm(V[0])
        return V

    check = next(check for check in verify.CHECKS if check.name == "min-error-srm-optimality-gap")
    planted = dataclasses.replace(check, grid=verify._fixed({"n": 8, "k": 2, "c": 0.5},
                                                            {"n": 8, "k": 2, "c": 0.7}))
    monkeypatch.setattr(verify, "all_hypothesis_states", perturbed)
    failed, passed = planted.run(8)
    assert not failed.passed and failed.residual > 1e4 * check.tolerance, failed.line()
    assert passed.passed, passed.line()


def test_halved_srm_fails_the_holevo_row(monkeypatch):
    """R = rho^(-1/2) halved scales the SRM's witness Y by 1/4, so Y - rho_S has
    the eigenvalue -3/(4r) on every instance: the Holevo row and criterion 6 fail."""
    srm = oracle._universal_srm

    def halved(n, k, d):
        isometries, R = srm(n, k, d)
        return isometries, R / 2

    monkeypatch.setattr(oracle, "_universal_srm", halved)
    check = next(check for check in verify.CHECKS if check.name == "universal-holevo-certificate")
    results = check.run(GATE_MAX_N)
    assert results and all(not r.passed and r.residual > 1e-3 for r in results)
    with pytest.raises(AssertionError,
                       match="criterion 6 failed.*'FAIL universal-holevo-certificate "):
        run_criterion(6)


def test_scaled_adjacency_fails_the_closure_row(monkeypatch, cold):
    """A_1 scaled by 65537 wraps to A_1 in an int16 cover sum: every
    bose-mesner-closure cell fails at the 0/1 rule, and so does every cell of
    eigenvalue-recurrence, which reads the same intersection numbers."""
    basis_of = johnson.scheme_basis

    def scaled(n, k):
        A0, A1, *rest = (basis := basis_of(n, k)).adjacency  # m >= 1 on the scheme grid
        return dataclasses.replace(basis, adjacency=(A0, A1.astype(np.int64) * 65537, *rest))

    monkeypatch.setattr(johnson, "scheme_basis", scaled)
    lines = {check.name: [r.line() for r in check.run(GATE_MAX_N)] for check in verify.CHECKS
             if check.name in ("bose-mesner-closure", "eigenvalue-recurrence")}
    with pytest.raises(AssertionError, match="criterion 8 failed.*'FAIL bose-mesner-closure "):
        run_criterion(8)
    closure, recurrence = lines["bose-mesner-closure"], lines["eigenvalue-recurrence"]
    assert closure and all(line.startswith("FAIL bose-mesner-closure ") for line in closure)
    assert len(recurrence) == len(closure)
    assert all(line.startswith("FAIL eigenvalue-recurrence ") for line in recurrence)


def test_scaled_class_weight_fails_the_srm_rows(monkeypatch, capsys, cold):
    """The class values theta_c of the (4, 2) support pattern's first class
    (the weight-2 strings, of support 1, which alone carry the smallest
    singular value) scaled by 1 + 1e-6 in the SRM oracle's entry for that
    pattern: every (4, 2) cell of C_GRID prints FAIL, not ERROR, in
    min-error-vs-srm-oracle, unambiguous-vs-min-eigenvalue and
    spectrum-equivalence, every other cell of spectrum-equivalence passes, and
    criteria 1, 2 and 4 fail."""
    V = oracle.all_hypothesis_states(ProblemInstance(4, 2, 0.5))
    planted_key = (V.shape, np.packbits(V != 0).tobytes())
    build = oracle._support_basis

    def planted(*key):
        entry = build(*key)
        if key != planted_key:
            return entry
        *head, theta, sizes, spread, off = entry
        theta = theta.copy()
        theta[0] *= 1 + 1e-6
        return (*head, theta, sizes, spread, off)

    monkeypatch.setattr(oracle, "_support_basis", planted)
    rows = ((1, "spectrum-equivalence"), (2, "min-error-vs-srm-oracle"),
            (4, "unambiguous-vs-min-eigenvalue"))
    for number, row in rows:
        with pytest.raises(AssertionError, match=f"criterion {number} failed.*'FAIL {row} "):
            run_criterion(number)
    printed = capsys.readouterr().out.splitlines()
    assert not [line for line in printed if line.startswith("ERROR")]
    for _, row in rows:
        for c in verify.C_GRID:
            assert f"FAIL {row} n=4,k=2,c={c} " in "\n".join(printed), (row, c)
    cells = [(inst["n"], inst["k"]) for inst in verify._overlap_grid(GATE_MAX_N)]
    assert _verdicts("spectrum-equivalence") == [
        "FAIL" if cell == (4, 2) else "PASS" for cell in cells]
    assert cells.count((4, 2)) == 7 and len(cells) == 364


def test_planted_binomial_fails_the_explicit_row(monkeypatch, cold):
    """C(n, 2) + 1 for the one binomial of the k = 2 form, C(n - 2, 2), read
    through protocols' name: every k = 2 cell of explicit-k123-vs-spectral
    prints FAIL, not ERROR, and so does every k = 3 cell, whose form reads
    C(n - 4, 2) and C(n - 3, 2); every k = 1 cell, whose form reads no
    binomial, passes.  The row reaches no cached builder: every cache of
    combin's registry is still empty after it."""
    binomial = protocols.binomial
    monkeypatch.setattr(protocols, "binomial", lambda n, r: binomial(n, r) + (r == 2))
    check = next(check for check in verify.CHECKS if check.name == "explicit-k123-vs-spectral")
    results = check.run(GATE_MAX_N)
    assert not any(memo.cache for memo in combin._CACHES)
    lines = {k: [r.line() for r in results if f",k={k}," in r.instance] for k in (1, 2, 3)}
    assert sum(map(len, lines.values())) == len(results)
    assert lines[1] and all(line.startswith("PASS ") for line in lines[1])
    for k in (2, 3):
        assert lines[k] and all(line.startswith("FAIL explicit-k123-vs-spectral ")
                                for line in lines[k]), k


def _assert_fails(fails: dict) -> None:
    """Each named row at GATE_MAX_N: FAIL exactly where fails[name][0] holds, PASS
    elsewhere (no ERROR), with fails[name][1] = (cells that fail, cells)."""
    for name, (fail, counts) in fails.items():
        check = next(check for check in verify.CHECKS if check.name == name)
        cells = list(zip(check.grid(GATE_MAX_N), check.run(GATE_MAX_N)))
        assert [r.line().split()[0] for _, r in cells] == [
            "FAIL" if fail(inst) else "PASS" for inst, _ in cells], name
        assert (sum(fail(inst) for inst, _ in cells), len(cells)) == counts, name


def test_planted_hahn_value_fails_the_scheme_rows(monkeypatch, cold):
    """Q_1(1) + 1/1000 through johnson's hahn_polynomial reaches P, Q and E_1 off the
    cached (n, k) table: exactly the cells marked below FAIL, none ERRORs (E_m is the
    dual witness of unambiguous-certificates), and the rows that read no Hahn value pass."""
    hahn = johnson.hahn_polynomial
    monkeypatch.setattr(johnson, "hahn_polynomial", lambda j, x, n, k:
                        hahn(j, x, n, k) + Fraction(1, 1000) * ((j, x) == (1, 1)))
    fails = {  # row -> whether a cell fails, and (cells that fail, cells)
        "eigenmatrix-PQ-identity": (lambda inst: True, (36, 36)),
        "johnson-eigenvalue": (lambda inst: True, (36, 36)),
        "projector-algebra": (lambda inst: True, (36, 36)),
        "projector-algebra-exact": (lambda inst: True, (36, 36)),
        "spectral-reconstruction": (lambda inst: True, (36, 36)),
        "adjacency-spectrum": (lambda inst: inst["i"] == 1, (36, 106)),
        "unambiguous-certificates": (lambda inst: min(inst["k"], inst["n"] - inst["k"]) == 1,
                                     (105, 364)),
        "bose-mesner-closure": (lambda inst: False, (0, 36)),
        "spectrum-equivalence": (lambda inst: False, (0, 364)),
        "reference-spectrum": (lambda inst: False, (0, 225)),
    }
    _assert_fails(fails)


def test_planted_intersection_number_fails_the_rows_that_read_it(monkeypatch, cold):
    """p_11^0 + 1 through verify's _intersection_numbers: eigenvalue-recurrence,
    projector-algebra-exact and the i = 1 cells of adjacency-spectrum read the numbers,
    so one wrong count fails them together, none ERRORs, and bose-mesner-closure,
    which only asks whether they exist, passes."""
    counted = verify._intersection_numbers

    def planted(n, k):
        p = counted(n, k)  # cached and shared: plant in a copy
        return {**p, (1, 1): [p[1, 1][0] + 1, *p[1, 1][1:]]}

    monkeypatch.setattr(verify, "_intersection_numbers", planted)
    fails = {  # row -> whether a cell fails, and (cells that fail, cells)
        "eigenvalue-recurrence": (lambda inst: True, (36, 36)),
        "adjacency-spectrum": (lambda inst: inst["i"] == 1, (36, 106)),
        "projector-algebra-exact": (lambda inst: True, (36, 36)),
        "bose-mesner-closure": (lambda inst: False, (0, 36)),
    }
    _assert_fails(fails)


def _verdicts(name: str) -> list[str]:
    """PASS, FAIL or ERROR for each cell of the named registry row at GATE_MAX_N."""
    check = next(check for check in verify.CHECKS if check.name == name)
    return [r.line().split()[0] for r in check.run(GATE_MAX_N)]


def test_universal_numerator_read_as_d_fails_the_universal_rows(monkeypatch, cold):
    """R_m = d/(m+d-1) in place of (d-1)/(m+d-1), so the closed form times d/(d-1):
    every cell of universal-vs-density-oracle, universal-two-systems and
    universal-asymptote-gap prints FAIL, and criterion 7 fails."""
    closed = verify.universal_success
    monkeypatch.setattr(verify, "universal_success",
                        lambda inst: closed(inst) * Fraction(inst.d, inst.d - 1))
    assert _verdicts("universal-vs-density-oracle") == ["FAIL"] * 31
    assert _verdicts("universal-two-systems") == ["FAIL"] * 3
    assert _verdicts("universal-asymptote-gap") == ["FAIL"] * 3
    with pytest.raises(AssertionError, match="criterion 7 failed.*'FAIL universal-asymptote-gap "):
        run_criterion(7)


def test_dropped_quadrature_node_fails_the_quadrature_row(monkeypatch, cold):
    """The last Gauss-Legendre node and weight dropped: that node lies by u = 1,
    where the integrand vanishes to order k + d - 2, so exactly the three cells
    with k + d - 2 <= 1 of average-overlap-quadrature print FAIL."""
    rule = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda points: tuple(a[:-1] for a in rule(points)))
    cells = [(k, d) for d in (2, 3, 4) for k in range(5)]
    assert _verdicts("average-overlap-quadrature") == [
        "FAIL" if k + d - 2 <= 1 else "PASS" for k, d in cells]


def test_overlap_cubed_fails_the_reference_row(monkeypatch, cold):
    """c2 = c^3 in place of c^2 on every ProblemInstance: the textbook forms square
    c themselves, so every cell of reference-spectrum prints FAIL, and criterion 3 fails.
    The explicit states read c, not c2, so spectrum-equivalence prints FAIL at every cell
    with m >= 1 and PASS at k = 0 and k = n (N = 1, G = [1] at every c), and criterion 1
    fails."""
    setup = gram.ProblemInstance.__post_init__

    def cubed(instance):
        setup(instance)
        object.__setattr__(instance, "c2", instance.c ** 3)

    monkeypatch.setattr(gram.ProblemInstance, "__post_init__", cubed)
    assert _verdicts("reference-spectrum") == ["FAIL"] * 225
    with pytest.raises(AssertionError, match="criterion 3 failed.*'FAIL reference-spectrum "):
        run_criterion(3)
    ends = [inst["k"] in (0, inst["n"]) for inst in verify._overlap_grid(GATE_MAX_N)]
    assert _verdicts("spectrum-equivalence") == ["PASS" if end else "FAIL" for end in ends]
    assert (ends.count(False), ends.count(True)) == (252, 112)
    with pytest.raises(AssertionError, match="criterion 1 failed.*'FAIL spectrum-equivalence "):
        run_criterion(1)


def test_multiplicity_off_by_one_fails_both_spectrum_rows(monkeypatch, cold):
    """m_m + 1 for the last multiplicity, read through the name of each row's module:
    through gram's, the closed-form multiset holds N + 1 values, and every cell of
    spectrum-equivalence prints FAIL, not ERROR; through verify's, the zeroth moment
    is N + 1 against tr A_0 = N, and every cell of adjacency-spectrum prints FAIL."""
    multiplicities = combin._multiplicities

    def one_more(n, k):
        *head, last = multiplicities(n, k)
        return (*head, last + 1)

    for module, row in ((gram, "spectrum-equivalence"), (verify, "adjacency-spectrum")):
        with monkeypatch.context() as patch:
            patch.setattr(module, "_multiplicities", one_more)
            verdicts = _verdicts(row)
        assert verdicts and verdicts == ["FAIL"] * len(verdicts), row


def test_scaled_asymptotic_coefficient_fails_the_ratio_row(monkeypatch, cold):
    """The coefficient 2k of the expansion's second term times 1.1: both cells of
    asymptotic-residual-ratio print FAIL, and criterion 5 fails.  The row's
    tolerance of 1 lets a smaller plant through: at 1.03 the n = 100 cell passes."""
    expansion = verify.min_error_asymptotic

    def scaled(instance):
        result = expansion(instance)
        lead = (1 - float(instance.c2)) ** instance.k
        return dataclasses.replace(result, value=lead + 1.1 * (result.value - lead))

    monkeypatch.setattr(verify, "min_error_asymptotic", scaled)
    assert _verdicts("asymptotic-residual-ratio") == ["FAIL"] * 2
    with pytest.raises(AssertionError, match="criterion 5 failed"):
        run_criterion(5)


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
