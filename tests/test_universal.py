import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from anomdet.gram import ProblemInstance
from anomdet.universal import (
    QUADRATURE_POINTS,
    UNIVERSAL_BITS_CAP,
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

    @pytest.mark.parametrize("call, args, message", [
        (ProblemInstance, (0, 0, 0.5), r"^n must be >= 1, got 0$"),
        (UniversalInstance, (0, 0, 2), r"^n must be >= 1, got 0$"),
        (average_min_error_curve, (-1, 0, 2), r"^n must be >= 1, got -1$"),
        (ProblemInstance, (4, 5, 0.5), r"^k must be in \[0, n\], got k=5, n=4$"),
        (UniversalInstance, (4, -1, 2), r"^k must be in \[0, n\], got k=-1, n=4$"),
        (average_min_error_curve, (3, 5, 2), r"^k must be in \[0, n\], got k=5, n=3$"),
        (universal_asymptote, (-1, 2), r"^k must be in \[0, n\], got k=-1$"),
        (average_known_success, (-2, 2), r"^k must be in \[0, n\], got k=-2$"),
        (UniversalInstance, (4, 1, 1), r"^d must be >= 2, got 1$"),
        (universal_asymptote, (1, 0), r"^d must be >= 2, got 0$"),
        (average_known_success, (1, 1), r"^d must be >= 2, got 1$"),
        (average_min_error_curve, (4, 1, -3), r"^d must be >= 2, got -3$"),
    ])
    def test_one_wording_per_count_rule(self, call, args, message):
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
        with pytest.raises(ValueError, match=r"^k must be in \[0, n\], got k=4, n=3$"):
            universal_success(UniversalInstance(3, 4, 2))

    def test_k_above_half_by_complement(self):
        # three systems, two anomalous: the value of one anomaly among three
        assert UniversalInstance(3, 2, 2).m == 1
        assert universal_success(UniversalInstance(3, 2, 2)) == Fraction(4, 9)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_equals_term_by_term_sum(self, d):
        # k > n/2 too: the value at k is the value at n - k
        for n in range(1, 31):
            for k in range(n + 1):
                value = universal_success(UniversalInstance(n, k, d))
                assert isinstance(value, Fraction)
                assert value == universal_success(UniversalInstance(n, n - k, d)), (n, k)
                assert value == _term_by_term(n, min(k, n - k), d), (n, k)

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

    @pytest.mark.parametrize("n, k, d", [
        (10**6, 5 * 10**5, 2),    # a Horner pair of about 5e7 bits
        (10**5, 10**4, 2),        # 2.5 s without the cap
        (10**400, 10**399, 2),
    ])
    def test_refuses_integers_beyond_the_bit_cap(self, n, k, d):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"beyond {UNIVERSAL_BITS_CAP} bits, got n={n},"):
            universal_success(UniversalInstance(n, k, d))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n, k, d", [
        # refused while the value was formed from binomials of up to 2e6 bits
        (10**6, 200, 10**6),
        (10**6, 200, 10**5),
        (73926, 1, 73927),
        (10**400, 1, 10**400),
    ])
    def test_accepts_huge_binomials(self, n, k, d):
        # the docstring's sum over l = 0..k by mpmath's binomials, at 50 digits
        # beyond the digits of n + d, which the binomials' exponents take
        value = universal_success(UniversalInstance(n, k, d))
        with mpmath.workdps(50 + len(str(n + d))):
            C = mpmath.binomial
            reference = mpmath.fsum(
                mpmath.mpf(n - 2 * l + 1) ** 2 / mpmath.mpf(n - l + 1) ** 2
                * C(n - l + d - 1, d - 1) / C(n - k + d - 1, d - 1) * C(n, l) / C(n, k)
                * C(l + d - 2, d - 2) / C(k + d - 1, d - 1)
                for l in range(k + 1))
            assert abs(mpmath.mpf(value.numerator) / value.denominator - reference) < 1e-45

    @pytest.mark.parametrize("n, k, d", [
        (10_000, 200, 5),        # the largest closed_form benchmark instance
        (10**6, 64, 64),         # the property test's corner
        (10**400, 1, 2),         # a huge n with few anomalies stays cheap
        (10**20, 3, 5),
    ])
    def test_accepts_large_but_cheap_instances(self, n, k, d):
        assert universal_success(UniversalInstance(n, k, d)) == _term_by_term(n, k, d)

    @pytest.mark.parametrize("d", [2, 10**6])
    def test_bit_bound_covers_the_denominator(self, monkeypatch, d):
        # the loop's denominator is the product of its per-step factors
        # (n-l+1)^4 (l+d-2); a cap one bit below its length must refuse, and
        # the bound stays within 2.5 times that length (2.2 at m = 1, d = 2)
        for m in (1, 2, 3, 10, 50, 300):
            n = 2 * m
            V = math.prod((n - l + 1) ** 4 * (l + d - 2) for l in range(1, m + 1))
            monkeypatch.setattr("anomdet.universal.UNIVERSAL_BITS_CAP", V.bit_length() - 1)
            with pytest.raises(ValueError, match="beyond"):
                universal_success(UniversalInstance(n, m, d))
            monkeypatch.setattr("anomdet.universal.UNIVERSAL_BITS_CAP", 5 * V.bit_length() // 2)
            assert universal_success(UniversalInstance(n, m, d)) == _term_by_term(n, m, d)

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

    def test_exact_at_the_rule_degree(self):
        # k + d - 2 = 127 = 2 QUADRATURE_POINTS - 1, the rule's largest exact degree
        assert 65 + 64 - 2 == 2 * QUADRATURE_POINTS - 1
        assert abs(average_known_success(65, 64) - 63 / 128) <= 1e-13

    @pytest.mark.parametrize("k, d", [(0, 10**6), (10**6, 3), (100, 1000), (66, 64)])
    def test_refuses_degrees_the_rule_cannot_integrate(self, k, d):
        # the rule returned 1.0e-148, 2.1e-154 and 0.9090050 for the first three,
        # against (d-1)/(d-1+k) = 1, 2.0e-6 and 0.9090082
        with pytest.raises(ValueError, match=f"^average_known_success: degree k \\+ d - 2 = "
                                             f"{k + d - 2} exceeds 127"):
            average_known_success(k, d)


class TestAverageMinErrorCurve:
    def test_no_anomalies(self):
        assert average_min_error_curve(5, 0, 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n, k, d", [(10, 0, 50), (10, 10, 50), (50, 0, 1000), (1, 1, 2)])
    def test_one_hypothesis_gives_exactly_one(self, n, k, d):
        # the quadrature of P = 1 alone gave 1 + 3 ulp at (10, 0, 50), 1 + 84 at (50, 0, 1000)
        assert average_min_error_curve(n, k, d) == 1.0

    @pytest.mark.parametrize("n, k", [(0, 0), (-1, 0), (3, 5)])
    def test_rejects_counts_that_are_no_instance(self, n, k):
        with pytest.raises(ValueError, match="^n must be >= 1|^k must be in"):
            average_min_error_curve(n, k, 2)

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
        with pytest.raises(ValueError, match="^d must be >= 2"):
            average_min_error_curve(5, 1, d)

    def test_approaches_half_for_single_anomaly(self):
        assert average_min_error_curve(400, 1, 2) == pytest.approx(0.5, abs=0.06)

    @pytest.mark.parametrize("n, expected", [(10, 0.70817429539970907),
                                             (100, 0.57390188311873874)])
    def test_frozen_mpmath_values(self, n, expected):
        # 40-digit mpmath quadrature of the exact k = 1 form, averaged over
        # c^2 with d = 2: ((n-1) t + sqrt(1 + (n-1)(1-t^2)))^2 / n^2,
        # t = sqrt(1-c^2); a 64-point rule on c^2 was 2.2e-7 and 7.6e-8 off
        assert abs(average_min_error_curve(n, 1, 2) - expected) <= 1e-12
