import math
from fractions import Fraction

import numpy as np
import pytest

from anomdet import protocols
from anomdet.gram import ProblemInstance, direct_spectrum, gram_matrix
from anomdet.protocols import (
    AsymptoticRegimeWarning,
    explicit_success_k123,
    min_error_asymptotic,
    min_error_success,
    unambiguous_success,
    verify_unambiguous_certificates,
)


class TestMinError:
    def test_orthogonal(self):
        assert min_error_success(ProblemInstance(6, 2, 0.0)).value == pytest.approx(1.0, abs=1e-14)

    def test_identical(self):
        inst = ProblemInstance(6, 2, 1.0)
        assert min_error_success(inst).value == pytest.approx(1 / inst.N, abs=1e-13)

    def test_frozen_value_4_2_half(self):
        # cross-checked against the brute-force measurement oracle
        assert min_error_success(ProblemInstance(4, 2, 0.5)).value == pytest.approx(
            0.947662716995912, abs=1e-12
        )

    def test_monotone_in_overlap(self):
        for n, k in [(6, 2), (9, 3)]:
            values = [
                min_error_success(ProblemInstance(n, k, c)).value
                for c in np.linspace(0, 1, 21)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_dominates_unambiguous(self):
        for n in range(3, 13):
            for k in range(1, min(4, n // 2) + 1):
                for c in (0.2, 0.5, 0.8):
                    inst = ProblemInstance(n, k, c)
                    assert (
                        min_error_success(inst).value
                        >= unambiguous_success(inst).value - 1e-12
                    )


class TestAsymptotic:
    def test_leading_terms(self):
        # the flat dashed lines at c = 1/2: (3/4)^k
        assert (1 - 0.25) ** 2 == pytest.approx(0.5625)
        assert (1 - 0.25) ** 3 == pytest.approx(0.421875)

    def test_k1_formula(self):
        n, c = 64, 0.3
        got = min_error_asymptotic(ProblemInstance(n, 1, c)).value
        expected = (1 - c * c) + 2 * c * math.sqrt(1 - c * c) / math.sqrt(n)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_regime_warning(self):
        with pytest.warns(AsymptoticRegimeWarning):
            min_error_asymptotic(ProblemInstance(6, 2, 0.5))

    def test_no_clamping(self):
        # faithful two-term value may exceed 1 at small n
        with pytest.warns(AsymptoticRegimeWarning):
            assert min_error_asymptotic(ProblemInstance(5, 2, 0.5)).value > 1

    def test_k_equal_n_rejected(self):
        with pytest.raises(ValueError):
            min_error_asymptotic(ProblemInstance(3, 3, 0.5))


class TestExplicitK123:
    def test_k1_closed_form(self):
        n, c = 7, 0.4
        z = c * c
        expected = (
            (n - 1) * math.sqrt(1 - z) + math.sqrt(1 + (n - 1) * z)
        ) ** 2 / n**2
        got = explicit_success_k123(ProblemInstance(n, 1, c)).value
        assert got == pytest.approx(expected, abs=1e-15)

    def test_k1_orthogonal(self):
        assert explicit_success_k123(ProblemInstance(5, 1, 0.0)).value == pytest.approx(
            1.0, abs=1e-14
        )

    def test_k4_rejected(self):
        with pytest.raises(ValueError):
            explicit_success_k123(ProblemInstance(9, 4, 0.5))


class TestUnambiguous:
    def test_orthogonal(self):
        assert unambiguous_success(ProblemInstance(5, 2, 0.0)).value == 1.0

    def test_k2_half(self):
        assert unambiguous_success(ProblemInstance(6, 2, 0.5)).value == pytest.approx(
            9 / 16, abs=1e-15
        )

    def test_equals_min_gram_eigenvalue(self):
        for n in range(3, 10):
            for k in range(1, min(4, n // 2) + 1):
                inst = ProblemInstance(n, k, 0.45)
                lam_min = direct_spectrum(gram_matrix(inst))[-1]
                assert abs(unambiguous_success(inst).value - lam_min) < 1e-10


class TestCertificates:
    def test_near_orthogonal(self):
        report = verify_unambiguous_certificates(ProblemInstance(5, 2, 0.01))
        assert report.optimal
        assert report.primal_value == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_endpoints(self):
        zero = verify_unambiguous_certificates(ProblemInstance(5, 2, 0.0))
        assert zero.optimal and zero.primal_value == 1.0 and zero.gap == 0.0
        one = verify_unambiguous_certificates(ProblemInstance(5, 2, 1.0))
        assert one.optimal and one.primal_value == 0.0 and one.gap == 0.0

    def test_diagonal_check_is_not_vacuous(self, monkeypatch):
        true_coefficients = protocols._projector_coefficients

        def wrong_at_distance_zero(n, k, j):
            coeffs = true_coefficients(n, k, j)
            return (coeffs[0] + Fraction(1, 10**9),) + coeffs[1:]

        monkeypatch.setattr(protocols, "_projector_coefficients", wrong_at_distance_zero)
        report = verify_unambiguous_certificates(ProblemInstance(7, 3, Fraction(1, 3)))
        assert report.primal_feasible and not report.dual_feasible

    def test_dual_witness_checked_once_per_nk(self):
        protocols._dual_witness_checks.cache_clear()
        first = verify_unambiguous_certificates(ProblemInstance(9, 3, 0.3))
        second = verify_unambiguous_certificates(ProblemInstance(9, 3, 0.6))
        info = protocols._dual_witness_checks.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert first.optimal and second.optimal
        assert second.primal_value == pytest.approx(0.64**3, rel=1e-14)
        assert second.gap <= 1e-10

    def test_dual_witness_cache_entry_holds_scalars(self):
        coeffs = protocols._projector_coefficients(8, 3, 3)
        diag_ok, y_min = protocols._dual_witness_checks(8, 3, coeffs)
        assert type(diag_ok) is bool and type(y_min) is float
        assert diag_ok and abs(y_min) <= 1e-10

    def test_endpoints_stay_analytic_with_a_warm_cache(self):
        verify_unambiguous_certificates(ProblemInstance(5, 2, 0.5))
        before = protocols._dual_witness_checks.cache_info()
        zero = verify_unambiguous_certificates(ProblemInstance(5, 2, 0.0))
        one = verify_unambiguous_certificates(ProblemInstance(5, 2, 1.0))
        assert zero == protocols.CertificateReport(True, True, 1.0, 1.0, 0.0)
        assert one == protocols.CertificateReport(True, True, 0.0, 0.0, 0.0)
        assert protocols._dual_witness_checks.cache_info() == before

    @pytest.mark.parametrize("distance", [0, 3])
    def test_wrong_witness_coefficient_after_warm_cache(self, monkeypatch, distance):
        # distance 0 breaks diag(Y) = 1, distance 3 makes Y indefinite
        inst = ProblemInstance(7, 3, 0.5)
        assert verify_unambiguous_certificates(inst).dual_feasible
        true_coefficients = protocols._projector_coefficients

        def perturbed(n, k, j):
            coeffs = list(true_coefficients(n, k, j))
            coeffs[distance] += Fraction(1, 1000)
            return tuple(coeffs)

        monkeypatch.setattr(protocols, "_projector_coefficients", perturbed)
        report = verify_unambiguous_certificates(inst)
        assert report.primal_feasible and not report.dual_feasible

    @pytest.mark.parametrize("c", [0.3, 0.5, Fraction(1, 3)])
    def test_whole_domain(self, c):
        # k > n/2 included: the witness is built at m = min(k, n-k)
        for n in range(1, 10):
            for k in range(n + 1):
                inst = ProblemInstance(n, k, c)
                report = verify_unambiguous_certificates(inst)
                assert report.optimal, (n, k)
                assert report.gap <= 1e-10, (n, k)
                assert report.primal_value == unambiguous_success(inst).value, (n, k)
