from fractions import Fraction

import pytest

from anomdet.universal import (
    UniversalInstance,
    average_known_success,
    average_min_error_curve,
    universal_asymptote,
    universal_success,
)


class TestUniversalSuccess:
    def test_no_anomalies(self):
        assert universal_success(UniversalInstance(5, 0, 2)) == 1

    def test_four_systems_one_anomaly(self):
        # cross-checked against the explicit 16-dimensional density-matrix oracle
        assert universal_success(UniversalInstance(4, 1, 2)) == Fraction(7, 16)

    def test_rejects_too_many_anomalies(self):
        with pytest.raises(ValueError):
            universal_success(UniversalInstance(3, 2, 2))

    def test_increases_with_n(self):
        # a shallow dip sits right after n = 2k; the curve is monotone
        # increasing from n = 2k + 3 onward
        for k, d in [(1, 2), (2, 2), (2, 3)]:
            prev = Fraction(0)
            for n in range(2 * k + 3, 43, 3):
                val = universal_success(UniversalInstance(n, k, d))
                assert 0 < val <= 1
                assert val > prev
                prev = val

    def test_approaches_asymptote(self):
        for k, d in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            limit = universal_asymptote(k, d)
            gap_small_n = abs(universal_success(UniversalInstance(4 * k, k, d)) - limit)
            gap_large_n = abs(universal_success(UniversalInstance(200, k, d)) - limit)
            assert gap_large_n < gap_small_n
            assert gap_large_n < Fraction(1, 50)


class TestAsymptote:
    def test_qubit_limit(self):
        for k in range(5):
            assert universal_asymptote(k, 2) == Fraction(1, k + 1)

    def test_no_anomalies(self):
        assert universal_asymptote(0, 7) == 1

    def test_large_dimension(self):
        assert universal_asymptote(3, 1000) > Fraction(99, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            universal_asymptote(-1, 2)
        with pytest.raises(ValueError):
            universal_asymptote(2, 1)


class TestAverageKnownSuccess:
    def test_qubit_one_anomaly(self):
        assert average_known_success(1, 2) == pytest.approx(0.5, abs=1e-12)

    def test_measure_normalization(self):
        for d in (2, 3, 4):
            assert average_known_success(0, d) == pytest.approx(1.0, abs=1e-12)

    def test_beta_integral(self):
        assert average_known_success(3, 2) == pytest.approx(0.25, abs=1e-12)


class TestAverageMinErrorCurve:
    def test_no_anomalies(self):
        assert average_min_error_curve(5, 0, 2) == pytest.approx(1.0, abs=1e-10)

    def test_dominates_universal(self):
        for n in range(2, 11):
            for k in range(1, min(3, n // 2) + 1):
                avg = average_min_error_curve(n, k, 2)
                assert avg >= float(universal_success(UniversalInstance(n, k, 2))) - 1e-10

    def test_four_one_qubit_value(self):
        avg = average_min_error_curve(4, 1, 2)
        assert avg > 7 / 16

    @pytest.mark.parametrize("d", [1, 0])
    def test_rejects_dimension_below_two(self, d):
        with pytest.raises(ValueError, match="need d >= 2"):
            average_min_error_curve(5, 1, d)

    def test_approaches_half_for_single_anomaly(self):
        assert average_min_error_curve(400, 1, 2) == pytest.approx(0.5, abs=0.06)
