"""The SRM rows share one SRM oracle call per (n, k, c), the caches hold
the grids that verify walks, and each failure branch of a row fails it."""

import dataclasses
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from anomdet import combin, johnson, oracle, verify
from anomdet.oracle import STATE_QUBITS_CAP

SRM_ROWS = ("spectrum-equivalence", "min-error-vs-srm-oracle", "min-error-srm-optimality-gap",
            "unambiguous-vs-min-eigenvalue")


def test_detection_rows_build_and_factor_once_per_instance(monkeypatch, cold):
    built, factored = Counter(), []
    states, srm = verify.all_hypothesis_states, verify.srm_success_oracle

    def counting_states(inst):
        built[(inst.n, inst.k, inst.c)] += 1
        return states(inst)

    def counting_srm(V):
        factored.append(V.shape)
        return srm(V)

    monkeypatch.setattr(verify, "all_hypothesis_states", counting_states)
    monkeypatch.setattr(verify, "srm_success_oracle", counting_srm)
    rows = [check for check in verify.CHECKS if check.name in SRM_ROWS]
    results = [r for check in rows for r in check.run(9)]
    grid = {(inst["n"], inst["k"], inst["c"]) for inst in verify._srm_grid(9)}
    assert len(rows) == 4 and len(results) == 3 * len(grid) + len(list(verify._overlap_grid(9)))
    assert all(r.passed for r in results)
    assert built == Counter(grid) and len(factored) == len(grid)


def test_scheme_and_gram_scopes_take_no_eigvalsh(monkeypatch, cold):
    # adjacency-spectrum reads the moments of A_i off the intersection numbers, and
    # spectrum-equivalence the SRM oracle's singular values: no dense eigensolve
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: calls.append(args) or eigvalsh(*args))
    for scope in ("scheme", "gram"):
        assert all(r.passed for r in verify.run_scope(scope, 9)), scope
    assert not calls


def test_srm_cache_holds_the_overlap_grid_at_the_cap(cold):
    # every instance of `verify --max-n 14`, the overlap grid and the high-overlap
    # sub-grid, keeps its entry until the last detection row reads it: a second
    # pass over them builds nothing
    grid = {tuple(inst.values()) for inst in verify._srm_grid(STATE_QUBITS_CAP)}
    assert {tuple(inst.values()) for inst in verify._overlap_grid(STATE_QUBITS_CAP)} < grid
    assert len(grid) == 726
    first = {key: verify._srm(*key) for key in grid}
    assert all(verify._srm(*key) is first[key] for key in grid)


def test_nk_caches_hold_the_scheme_grid_at_the_cap(monkeypatch, cold):
    # every row of `verify --max-n 14` walks these cells, the mirrored ones of
    # the scheme grid included, and the detection rows those of the high-overlap
    # sub-grid (k > min(4, n//2) too, k = 0 and k = n at n <= 10); a second
    # pass over them builds neither a distance matrix nor a sector layout again
    cells = list(dict.fromkeys((inst["n"], inst["k"]) for grid in (verify._scheme_grid,
                                                                   verify._srm_grid)
                               for inst in grid(STATE_QUBITS_CAP)))
    assert len(cells) == 40 + 39
    calls = Counter()
    indicator = combin.pattern_indicator

    def counting(n, k):
        calls[n, k] += 1
        return indicator(n, k)

    monkeypatch.setattr(combin, "pattern_indicator", counting)
    monkeypatch.setattr(oracle, "pattern_indicator", counting)
    for _ in range(2):
        for n, k in cells:
            combin.distance_matrix(n, k)
            oracle._sector_layout(n, k)
    assert calls == Counter({nk: 2 for nk in cells})  # one per cell per builder


def test_no_row_walks_more_cells_than_the_nk_caches_hold(cold):
    # a row that walks more than a cache holds evicts each entry before the
    # next row comes back to it.  The rows whose instances stop at --max-n
    # build the explicit per-(n, k) objects; the closed-form rows (explicit
    # forms, reference spectra, large-n fixed instances) run past it.  After
    # one pass of every row at the qubit cap, a second pass builds nothing:
    # every cache holds the same entries, the same objects
    walks = {}
    for check in verify.CHECKS:
        for max_n in (9, 12, STATE_QUBITS_CAP):
            cells = {(inst["n"], inst["k"]) for inst in check.grid(max_n) if "n" in inst}
            if cells and max(n for n, _ in cells) <= max_n:
                walks[check.name, max_n] = len(cells)
    assert walks["min-error-vs-srm-oracle", 12] == 71
    assert walks["min-error-vs-srm-oracle", STATE_QUBITS_CAP] == 79
    passes = []
    for _ in range(2):
        assert all(r.passed for r in verify.run_scope("all", STATE_QUBITS_CAP))
        passes.append({memo.__name__: dict(memo.cache) for memo in combin._CACHES})
    assert passes[0].keys() == passes[1].keys()
    for name, held in passes[0].items():
        assert list(held) == list(passes[1][name]), name
        assert all(passes[1][name][key] is value for key, value in held.items()), name


def test_scheme_rows_sum_each_hahn_value_once(monkeypatch, cold):
    # the (n, k) table of P, Q and the projector coefficients: (m+1)^2 Hahn
    # values per cell of the scheme grid, none on a second pass
    hahn, calls = johnson.hahn_polynomial, []
    monkeypatch.setattr(johnson, "hahn_polynomial", lambda *args: calls.append(args) or hahn(*args))
    passes = [[r.line() for r in verify.run_scope("scheme", 9)] for _ in range(2)]
    cells = {(inst["n"], inst["k"]) for inst in verify._scheme_grid(9)}
    assert len(calls) == sum((min(k, n - k) + 1) ** 2 for n, k in cells)
    assert len(set(calls)) == len(calls) and passes[0] == passes[1]
    assert all(line.startswith("PASS ") for line in passes[0])


def test_unknown_scope_is_refused():
    with pytest.raises(ValueError, match=r"^unknown scope 'bogus'; expected all\|scheme\|"):
        verify.run_scope("bogus", 9)


def test_closure_error_fails_the_closure_row(monkeypatch):
    def not_closed(n, k):
        raise johnson.SchemeClosureError("planted")

    assert verify._bose_mesner_closure(4, 2) == 0.0
    monkeypatch.setattr(verify, "_intersection_numbers", not_closed)
    assert verify._bose_mesner_closure(4, 2) == 1.0


def test_short_spectrum_fails_the_reference_row(monkeypatch):
    spectrum = verify.closed_form_spectrum

    def short(instance):  # lambda_k and m_k dropped
        spec = spectrum(instance)
        return dataclasses.replace(spec, values=spec.values[:-1],
                                   multiplicities=spec.multiplicities[:-1])

    assert verify._reference_spectrum(6, 2, Fraction(1, 2)) == 0.0
    monkeypatch.setattr(verify, "closed_form_spectrum", short)
    assert verify._reference_spectrum(6, 2, Fraction(1, 2)) == 1.0


def test_exact_projector_row_fails_a_2_53_denominator(monkeypatch):
    # a planted denominator 2^53 in E_0 makes the lcm L at least 2^53, past float64's
    # exact integers; the row sums the coefficients in Python ints, so it still sees the miss
    true_coefficients = johnson._projector_coefficients

    def planted(n, k, j):
        coeffs = true_coefficients(n, k, j)
        return (coeffs[0] + Fraction(1, 2**53), *coeffs[1:]) if j == 0 else coeffs

    assert verify._projector_algebra_exact(4, 2) == 0.0
    monkeypatch.setattr(johnson, "_projector_coefficients", planted)
    assert verify._projector_algebra_exact(4, 2) > 0


def test_exact_projector_row_builds_no_n_by_n_object(monkeypatch, cold):
    # with the intersection numbers and the (n, k) tables warm, the row reads
    # m + 1 coefficients per projector: a distance matrix it asked for would raise
    cells = [(inst["n"], inst["k"]) for inst in verify._scheme_grid(9)]
    for n, k in cells:
        verify._intersection_numbers(n, k)
        johnson._scheme(n, k)

    def refused(n, k):
        raise AssertionError(f"distance matrix built at n={n}, k={k}")

    monkeypatch.setattr(combin, "_distances", refused)
    assert [verify._projector_algebra_exact(n, k) for n, k in cells] == [0.0] * len(cells)
