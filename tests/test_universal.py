import math
from fractions import Fraction

import numpy as np
import pytest

from anomdet.universal import (
    UniversalInstance,
    average_known_success,
    average_min_error_curve,
    universal_asymptote,
    universal_success,
)


def _term_by_term(n: int, k: int, d: int) -> Fraction:
    """The universal_success docstring's sum, one Fraction per factor."""
    return sum(
        Fraction(n - 2 * l + 1, n - l + 1) ** 2
        * Fraction(math.comb(n - l + d - 1, d - 1), math.comb(n - k + d - 1, d - 1))
        * Fraction(math.comb(n, l), math.comb(n, k))
        * Fraction(math.comb(l + d - 2, d - 2), math.comb(k + d - 1, d - 1))
        for l in range(k + 1)
    )


def _common_denominator_sum(n: int, k: int, d: int) -> Fraction:
    """The same sum as integers over L = lcm((n-l+1)^2), the binomials stepped in l."""
    L = math.lcm(*range(n - k + 1, n + 2)) ** 2
    numerator, sym, rest = 0, math.comb(n + d - 1, d - 1), 1  # C(n-l+d-1,d-1), C(n,l) C(l+d-2,d-2)
    for l in range(k + 1):
        numerator += (n - 2 * l + 1) ** 2 * (L // (n - l + 1) ** 2) * sym * rest
        sym, rest = sym * (n - l) // (n - l + d - 1), rest * (n - l) * (l + d - 1) // (l + 1) ** 2
    return Fraction(numerator, L * math.comb(n - k + d - 1, d - 1) * math.comb(n, k)
                    * math.comb(k + d - 1, d - 1))


class TestUniversalInstance:
    @pytest.mark.parametrize("field, args", [
        ("n", (6.0, 2, 2)),
        ("k", (6, 2.5, 2)),
        ("d", (6, 2, 2.0)),
        ("d", (6, 2, True)),
        ("d", (6, 2, Fraction(3))),
    ])
    def test_rejects_non_integral_values(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            UniversalInstance(*args)

    @pytest.mark.parametrize("call, args, message", [
        (average_known_success, (1.5, 2), "^k must be an integer"),
        (average_known_success, (True, 2), "^k must be an integer"),
        (average_known_success, (1, 2.5), "^d must be an integer"),
        (average_min_error_curve, (10, 1, 2.5), "^d must be an integer"),
        (universal_asymptote, (1.5, 2), "^k must be an integer"),
    ])
    def test_entry_points_read_counts_as_the_instance_does(self, call, args, message):
        with pytest.raises(ValueError, match=message):
            call(*args)

    def test_accepts_numpy_integers_as_ints(self):
        inst = UniversalInstance(np.int64(6), np.int32(2), np.uint8(3))
        assert inst == UniversalInstance(6, 2, 3)
        assert all(type(v) is int for v in (inst.n, inst.k, inst.d))
        assert universal_success(inst) == universal_success(UniversalInstance(6, 2, 3))


class TestUniversalSuccess:
    def test_no_anomalies(self):
        assert universal_success(UniversalInstance(5, 0, 2)) == 1

    def test_four_systems_one_anomaly(self):
        # cross-checked against the explicit 16-dimensional density-matrix oracle
        assert universal_success(UniversalInstance(4, 1, 2)) == Fraction(7, 16)

    def test_rejects_too_many_anomalies(self):
        with pytest.raises(ValueError):
            universal_success(UniversalInstance(3, 2, 2))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_equals_term_by_term_sum(self, d):
        for n in range(1, 31):
            for k in range(n + 1):
                instance = UniversalInstance(n, k, d)
                if n < 2 * k:
                    with pytest.raises(ValueError, match="requires n >= 2k"):
                        universal_success(instance)
                    continue
                value = universal_success(instance)
                assert isinstance(value, Fraction)
                assert value == _term_by_term(n, k, d), (n, k)

    @pytest.mark.parametrize("n,k,d", [(10_000, 200, 5), (10_000, 110, 4)])
    def test_equals_term_by_term_sum_large(self, n, k, d):
        assert universal_success(UniversalInstance(n, k, d)) == _term_by_term(n, k, d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equals_common_denominator_sum(self, d):
        for k in (0, 1, 2, 3, 7, 20, 50, 110, 200):
            for n in sorted({2 * k, 2 * k + 1, 3 * k + 2, 10_000} - {0}):
                assert universal_success(UniversalInstance(n, k, d)) == _common_denominator_sum(
                    n, k, d), (n, k)

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
