import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from anomdet import combin, gram, johnson, protocols, universal
from anomdet.combin import _multiplicities, distance_matrix
from anomdet.gram import ProblemInstance, closed_form_spectrum, direct_spectrum, gram_matrix
from anomdet.protocols import (
    AsymptoticRegimeWarning,
    explicit_success_k123,
    min_error_asymptotic,
    min_error_success,
    unambiguous_success,
    verify_unambiguous_certificates,
)
from anomdet.universal import UniversalInstance, universal_asymptote, universal_success


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


@pytest.mark.parametrize("protocol, n, k", [
    (min_error_success, 22, 9),
    (min_error_success, 99, 50),
    (explicit_success_k123, 183, 3),
    (explicit_success_k123, 1473, 3),
])
def test_value_is_exactly_one_at_orthogonal_states(protocol, n, k):
    # the rounded terms summed to 1 + 2 ulp at these (n, k); the value is at most 1
    for c in (0.0, 1e-153):
        assert protocol(ProblemInstance(n, k, c)).value == 1.0, c


def _two_pass_log_ratios(n, k):
    """log(C(n, j) / C(n, k)), j = 0..k <= n/2: the downward Kahan sum of log(j / (n-j+1))."""
    ratios = [0.0] * (k + 1)
    total = comp = 0.0
    for j in range(k, 0, -1):
        y = math.log(j / (n - j + 1)) - comp
        t = total + y
        comp = (t - total) - y
        total = ratios[j - 1] = t
    return ratios


def _two_pass_min_error(inst):
    """The minimum-error value with its weights in two passes, the binomial ratios first,
    then log((n-2j+1)/(n-j+1)) added per term; log N at c = 1 from the ratios."""
    n, k, z = inst.n, inst.m, float(inst.c2)
    ratios = _two_pass_log_ratios(n, k)
    logs = (0.0 - ratios[0],) + (-math.inf,) * k if z == 1.0 else gram._log_eigenvalues(n, k, z)
    total = math.fsum(math.exp(ratio + math.log((n - 2 * j + 1) / (n - j + 1)) + log_value / 2)
                      for j, (ratio, log_value) in enumerate(zip(ratios, logs)))
    return min(total * total, 1.0)


def _seeded_cells(count, seed=13020):
    rng = random.Random(seed)
    return [(n, rng.randint(0, min(n, 600))) for n in (rng.randint(1, 10**5) for _ in range(count))]


_WEIGHT_CELLS = [(n, k) for n in range(1, 31) for k in range(n + 1)] + _seeded_cells(50)


class TestOnePassWeights:
    """gram._log_weights gives log(m_j/N) in one pass, bit for bit what the two passes gave."""

    @pytest.mark.parametrize("c", [0.0, 1.0, 0.001, 0.5, 0.9, 0.999,
                                   Fraction(1, 2), Fraction(3, 7)])
    def test_min_error_bits_equal_two_pass(self, c):
        for n, k in _WEIGHT_CELLS:
            inst = ProblemInstance(n, k, c)
            assert min_error_success(inst).value.hex() == _two_pass_min_error(inst).hex(), (n, k)

    def test_log_eigenvalues_at_one_bits_equal_two_pass(self):
        for n, k in _WEIGHT_CELLS:
            m = min(k, n - k)
            expected = (0.0 - _two_pass_log_ratios(n, m)[0],) + (-math.inf,) * m
            actual = gram._log_eigenvalues(n, m, 1.0)
            assert [x.hex() for x in actual] == [x.hex() for x in expected], (n, k)

    def test_weights_are_log_multiplicity_over_count(self):
        for n in range(1, 80):
            for k in range(n // 2 + 1):
                N, weights = math.comb(n, k), gram._log_weights(n, k)
                assert len(weights) == k + 1
                for j, weight in enumerate(weights):
                    m_j = math.comb(n, j) - (math.comb(n, j - 1) if j else 0)
                    expected = math.log(m_j / N)
                    assert weight == pytest.approx(expected, rel=1e-14, abs=1e-14), (n, k, j)


class TestAsymptotic:
    def test_k0_value_is_one(self):
        # the second term vanishes, also at c = 1, where (1-c^2)^(-1/2) is undefined
        for c in (0.0, 0.5, 1.0, Fraction(1)):
            assert min_error_asymptotic(ProblemInstance(4, 0, c)).value == 1.0

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


_QUOTIENT_BITS = 1 << 15  # bits of q^m up to which unambiguous_success once took the int quotient


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

    @pytest.mark.parametrize(
        "c", [*(i / 37 for i in range(38)), 1e-3, 0.999, 1, Fraction(1, 3), Fraction(5, 7),
              Fraction(99, 100), Fraction(2**60 - 1, 2**60)],
    )
    def test_bit_identical_to_fraction_power(self, c):
        # (q-p)^m / q^m for c^2 = p/q, correctly rounded by the fixed-point bounds,
        # is the float of the Fraction power, itself one correctly rounded quotient
        # (2, 0), (2, 2) and (4, 2) take the certificate's analytic branch at
        # c = 1 and, for (4, 2), its dense one at c = 1 - 2^-60 (float(c) == 1.0)
        for n, k in [(1, 0), (2, 0), (2, 1), (2, 2), (4, 2), (9, 4), (9, 7), (100, 37),
                     (1000, 500), (1200, 700)]:
            inst = ProblemInstance(n, k, c)
            expected = float((1 - Fraction(inst.c2)) ** min(k, n - k))
            assert unambiguous_success(inst).value == expected, (n, k)
            if n <= 9:
                assert verify_unambiguous_certificates(inst).primal_value == expected, (n, k)


    @staticmethod
    def _straddling_grid():
        """(m, c) with m q.bit_length() on both sides of 2^15 bits, c^2 = p/q, the size
        up to which an int quotient route once ran: for each target log2 value e, a
        float c with (1 - c^2)^m near 2^e and its Fraction to a 2^28 denominator, at
        the largest m under that size, the smallest over it and 4 times that; plus
        c = 0 and 1 far over it."""
        for e in (-1e-8, -0.5, -60.0, -1000.0, -1030.0, -1074.5, -1076.0, -1300.0):
            for m0 in (600, 3000):
                f = math.sqrt(-math.expm1(e / m0 * math.log(2)))
                for c in (f, Fraction(f).limit_denominator(2**28)):
                    p, q = ProblemInstance(2, 1, c).c2.as_integer_ratio()
                    below = _QUOTIENT_BITS // q.bit_length()
                    for m in (below, below + 1, 4 * (below + 1)):
                        yield m, c
        for c in (0.0, 1.0, Fraction(0), Fraction(1)):
            yield _QUOTIENT_BITS + 1, c

    def test_fixed_point_path_bit_identical_to_int_quotient(self):
        # over a grid that straddles 2^15 bits of q^m, from values near 1 through
        # normal and subnormal ones to underflow, float and Fraction c: the
        # fixed-point bounds give the int quotient's correctly rounded double
        kinds = set()
        for m, c in self._straddling_grid():
            inst = ProblemInstance(2 * m, m, c)
            p, q = inst.c2.as_integer_ratio()
            expected = (q - p) ** m / q**m
            assert unambiguous_success(inst).value == expected, (m, c)
            beyond = m * q.bit_length() > _QUOTIENT_BITS
            kinds.add((beyond, type(c), 0 < expected < 2**-1022, expected == 0, expected > 0.99))
        for beyond in (False, True):  # each kind of value on each side of 2^15 bits
            for flag in range(2, 5):
                for kind in (float, Fraction):
                    assert any(k[:2] == (beyond, kind) and k[flag] for k in kinds), (beyond, flag)

    @pytest.mark.parametrize("n, k, c", [
        # (3/4)^34 = 3^34 / 2^68: the odd numerator has 54 bits, so the value is the
        # midpoint of two doubles and rounds half to even; float and exact c
        (68, 34, 0.5), (68, 34, Fraction(1, 2)),
        # 1 - 2^-54 (c^2 = 2^-54, m = 1): the midpoint of 1 - 2^-53 and 1, to 1.0
        (2, 1, 2.0**-27), (2, 1, Fraction(1, 2**27)),
        # m = 0: 1.0, also 0^0 at c = 1
        *((5, k, c) for k in (0, 5) for c in (0.0, 1.0, Fraction(1, 3), 1 / 3)),
        # c = 1 at m >= 1: 0.0
        *((n, k, c) for n, k in ((2, 1), (9, 4), (9, 7), (4000, 2000)) for c in (1.0, Fraction(1))),
    ])
    def test_boundary_cases_equal_the_int_quotient(self, n, k, c):
        inst = ProblemInstance(n, k, c)
        p, q = inst.c2.as_integer_ratio()
        assert unambiguous_success(inst).value == (q - p) ** inst.m / q**inst.m

    def test_far_beyond_the_cap_in_bounded_memory(self):
        # (2e6, 1e6, 0.001): m q.bit_length() = 7.3e7 bits; the int quotient's
        # (q-p)^m alone took 9 MB (and 28 s)
        inst = ProblemInstance(2 * 10**6, 10**6, 0.001)
        tracemalloc.start()
        try:
            value = unambiguous_success(inst).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert f"{value:.12g}" == "0.367879257232"  # about 1/e


def _flat_diagonal_report(inst):
    """The certificate report with its primal test written as a gathered G whose
    diagonal is lowered in place by lambda_min - CERTIFICATE_TOL."""
    n, k = inst.n, inst.k
    m = min(k, n - k)
    lam_min = unambiguous_success(inst).value
    if m == 0 or inst.c2 in (0, 1):
        return protocols.CertificateReport(True, True, lam_min, lam_min, 0.0)
    powers = protocols._gram_powers(inst).astype(float)
    G = powers[distance_matrix(n, k)]
    G.flat[:: len(G) + 1] -= lam_min - protocols.CERTIFICATE_TOL
    try:
        np.linalg.cholesky(G)
        primal = True
    except np.linalg.LinAlgError:
        primal = False
    dual_feasible, weights = protocols._dual_witness(n, k)
    dual_value = math.fsum(w * p for w, p in zip(weights, powers.tolist()))
    return protocols.CertificateReport(primal, dual_feasible, lam_min, dual_value,
                                       abs(lam_min - dual_value))


class TestCertificates:
    @pytest.mark.parametrize("c", [0.3, 0.5, 0.9, Fraction(1, 3), Fraction(5, 7)])
    def test_equals_flat_diagonal_shift(self, c):
        for n in range(1, 10):
            for k in range(n + 1):
                inst = ProblemInstance(n, k, c)
                assert verify_unambiguous_certificates(inst) == _flat_diagonal_report(inst), (n, k)

    def test_equals_flat_diagonal_shift_at_the_boundary(self, monkeypatch):
        # (c^2)^0 moved by a few CERTIFICATE_TOL either way: both verdicts occur
        true_powers = protocols._gram_powers
        inst = ProblemInstance(7, 3, 0.5)
        verdicts = set()
        for shift in (-3, -1.5, -1, -0.5, 0, 0.5):
            def planted(instance, shift=shift):
                powers = true_powers(instance)
                powers[0] += shift * protocols.CERTIFICATE_TOL
                return powers

            monkeypatch.setattr(protocols, "_gram_powers", planted)
            report = verify_unambiguous_certificates(inst)
            assert report == _flat_diagonal_report(inst), shift
            verdicts.add(report.primal_feasible)
        assert verdicts == {True, False}

    def test_near_orthogonal(self):
        report = verify_unambiguous_certificates(ProblemInstance(5, 2, 0.01))
        assert report.optimal
        assert report.primal_value == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_endpoints(self):
        zero = verify_unambiguous_certificates(ProblemInstance(5, 2, 0.0))
        assert zero.optimal and zero.primal_value == 1.0 and zero.gap == 0.0
        one = verify_unambiguous_certificates(ProblemInstance(5, 2, 1.0))
        assert one.optimal and one.primal_value == 0.0 and one.gap == 0.0

    @pytest.mark.parametrize("c", [np.int64(1), np.int64(0), np.uint8(1)])
    def test_numpy_integer_overlap_matches_int(self, c):
        # a numpy integer c is the exact overlap of the equal int, not a float
        inst, reference = ProblemInstance(4, 2, c), ProblemInstance(4, 2, int(c))
        assert verify_unambiguous_certificates(inst) == verify_unambiguous_certificates(reference)
        assert unambiguous_success(inst) == unambiguous_success(reference)

    def test_size_cap(self):
        with pytest.raises(ValueError, match=r"^Gram size 155117520 exceeds cap"):
            verify_unambiguous_certificates(ProblemInstance(30, 15, 0.5))

    def test_diagonal_check_is_not_vacuous(self, monkeypatch, cold):
        # _dual_witness reads johnson's name; E_m + 1e-9 I stays PSD, so only
        # the exact diagonal test can fail the dual
        true_coefficients = johnson._projector_coefficients

        def wrong_at_distance_zero(n, k, j):
            coeffs = true_coefficients(n, k, j)
            return (coeffs[0] + Fraction(1, 10**9),) + coeffs[1:]

        monkeypatch.setattr(johnson, "_projector_coefficients", wrong_at_distance_zero)
        report = verify_unambiguous_certificates(ProblemInstance(7, 3, Fraction(1, 3)))
        assert report.primal_feasible and not report.dual_feasible

    def test_primal_certificate_can_fail(self, monkeypatch):
        # lambda_min(G) 1e-6 below (1-c^2)^m: the ansatz is infeasible, Y is untouched.
        # Distance 0 occurs on the diagonal of D only, so lowering the power
        # (c^2)^0 by 1e-6 makes G - 1e-6 I
        true_powers = protocols._gram_powers

        def lowered(instance):
            powers = true_powers(instance)
            powers[0] -= 1e-6
            return powers

        monkeypatch.setattr(protocols, "_gram_powers", lowered)
        report = verify_unambiguous_certificates(ProblemInstance(7, 3, 0.5))
        assert not report.primal_feasible and report.dual_feasible

    def test_cholesky_verdict_equals_eigenvalue_verdict(self, monkeypatch):
        # G + shift * tol * I, planted as (c^2)^0 + shift * tol (distance 0 is
        # the diagonal); the eigenvalue test flips at shift = -1 (scale = max|G| = 1)
        inst = ProblemInstance(7, 3, 0.5)
        G, powers = gram_matrix(inst), protocols._gram_powers(inst)
        lam_min, tol, eye = 0.75**3, protocols.CERTIFICATE_TOL, np.eye(len(G))
        verdicts = []
        for shift in (-10, -2, -0.5, 0, 0.5, 10):
            shifted = G + shift * tol * eye
            planted = powers.copy()
            planted[0] += shift * tol
            assert np.array_equal(planted[distance_matrix(7, 3)], shifted)
            monkeypatch.setattr(protocols, "_gram_powers", lambda _, p=planted: p)
            by_eigenvalue = bool(direct_spectrum(shifted - lam_min * eye)[-1] >= -tol)
            report = verify_unambiguous_certificates(inst)
            assert report.primal_feasible == by_eigenvalue, shift
            verdicts.append(report.primal_feasible)
        assert verdicts == [False, False, True, True, True, True]

    def test_cholesky_verdict_equals_eigenvalue_verdict_for_the_witness(self, monkeypatch, cold):
        # Y + delta (J - I), planted as y_d + delta at every distance d >= 1, keeps
        # the unit diagonal and has lambda_min = -delta for delta > 0 and
        # (N - 1) delta for delta < 0; the eigenvalue test is the reference
        n, k, m = 7, 3, 3
        inst = ProblemInstance(n, k, 0.5)
        N, m_m, D = inst.N, _multiplicities(n, m)[m], distance_matrix(n, k)
        true_coefficients, tol = johnson._projector_coefficients, protocols.CERTIFICATE_TOL
        verdicts = []
        for shift in (-0.1, -0.01, 0, 0.5, 2, 10):
            delta = Fraction(shift * tol)

            def planted(n, k, j, delta=delta):
                head, *tail = true_coefficients(n, k, j)
                return head, *(coeff + delta * m_m / N for coeff in tail)

            Y = np.array([float(N * coeff / m_m) for coeff in planted(n, k, m)]).take(D)
            by_eigenvalue = bool(direct_spectrum(Y)[-1] >= -tol)
            monkeypatch.setattr(johnson, "_projector_coefficients", planted)
            combin._clear_caches()  # the witness is kept per (n, k)
            report = verify_unambiguous_certificates(inst)
            assert report.dual_feasible == by_eigenvalue and report.primal_feasible, shift
            verdicts.append(report.dual_feasible)
        assert verdicts == [False, True, True, True, False, False]

    def test_dual_witness_checked_once_per_nk(self, monkeypatch, cold):
        # one build, counted by its one read of the projector coefficients; the
        # second overlap is served by the (n, k) entry
        builds = []
        true_coefficients = johnson._projector_coefficients

        def counted(n, k, j):
            builds.append((n, k, j))
            return true_coefficients(n, k, j)

        monkeypatch.setattr(johnson, "_projector_coefficients", counted)
        first = verify_unambiguous_certificates(ProblemInstance(9, 3, 0.3))
        second = verify_unambiguous_certificates(ProblemInstance(9, 3, 0.6))
        assert builds == [(9, 3, 3)]  # one miss; the second overlap was a hit
        assert list(protocols._dual_witness.cache) == [(9, 3)]
        assert first.optimal and second.optimal
        assert second.primal_value == pytest.approx(0.64**3, rel=1e-14)
        assert second.gap <= 1e-10

    def test_warm_certificate_hashes_no_fraction(self, monkeypatch):
        # a warm (n, k) is matched on the coefficient tuple itself, not by a
        # lookup keyed on k+1 Fractions
        inst = ProblemInstance(9, 4, 0.5)
        cold = verify_unambiguous_certificates(inst)
        hashes = []
        true_hash = Fraction.__hash__

        def counted(self):
            hashes.append(self)
            return true_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        assert verify_unambiguous_certificates(inst) == cold
        assert verify_unambiguous_certificates(ProblemInstance(9, 4, 0.7)).optimal
        assert hashes == []

    def test_dual_witness_cache_is_bounded(self, cold, small_caches):
        # every (n, 1) entry counts the same bytes, so `size` of them fit the bound
        cache, last = protocols._dual_witness.cache, 30
        witnesses = {}
        for n in range(2, last + 1):
            witnesses[n] = protocols._dual_witness(n, 1)
            feasible, weights = witnesses[n]
            assert feasible and len(weights) == 2, n
        nbytes = {combin._nbytes(entry) for entry in cache.items()}
        size = small_caches // nbytes.pop()
        assert not nbytes and 1 < size < last - 1
        assert list(cache) == [(n, 1) for n in range(last + 1 - size, last + 1)]
        # the most recently used is held; the least recently used was evicted
        assert protocols._dual_witness(last, 1) is witnesses[last]
        assert protocols._dual_witness(2, 1) is not witnesses[2]
        assert list(cache) == [(n, 1) for n in range(last + 2 - size, last + 1)] + [(2, 1)]

    def test_dual_witness_cache_entry_holds_scalars(self):
        feasible, weights = protocols._dual_witness(8, 3)
        assert feasible is True
        assert type(weights) is tuple and len(weights) == 4
        assert all(type(w) is float for w in weights)
        # tr(G Y)/N at c^2 = 0 (G = I) is the unit diagonal of Y; at c^2 = 1
        # (G = J) it is 1^T Y 1 / N = 0, as Y is orthogonal to the all-ones vector
        assert weights[0] == 1.0 and abs(math.fsum(weights)) <= 1e-12

    @pytest.mark.parametrize("c", [0.3, 0.5, Fraction(1, 3)])
    def test_dual_value_equals_dense_trace(self, c):
        # reference: tr(G Y)/N from the N x N witness Y = (N/m_m) E_m, as one tensordot
        for n in range(1, 10):
            for k in range(n + 1):
                m = min(k, n - k)
                if m == 0:
                    continue  # analytic branch: no witness is built
                inst = ProblemInstance(n, k, c)
                G = np.asarray(gram_matrix(inst), dtype=float)
                coeffs = johnson._projector_coefficients(n, k, m)
                Y = np.array([float(x) for x in coeffs])[distance_matrix(n, k)]
                Y *= inst.N / _multiplicities(n, m)[m]
                reference = float(np.tensordot(G, Y) / inst.N)
                report = verify_unambiguous_certificates(inst)
                assert abs(report.dual_value - reference) <= 1e-14, (n, k)

    def test_endpoints_stay_analytic_with_a_warm_cache(self, monkeypatch):
        # with (5, 2) warm, the endpoints must still neither read the witness
        # nor build the Gram powers
        verify_unambiguous_certificates(ProblemInstance(5, 2, 0.5))
        cache = protocols._dual_witness.cache
        before = list(cache)

        def numeric(*args):
            raise AssertionError("endpoint left the analytic branch")

        monkeypatch.setattr(protocols, "_dual_witness", numeric)
        monkeypatch.setattr(protocols, "_gram_powers", numeric)
        zero = verify_unambiguous_certificates(ProblemInstance(5, 2, 0.0))
        one = verify_unambiguous_certificates(ProblemInstance(5, 2, 1.0))
        assert zero == protocols.CertificateReport(True, True, 1.0, 1.0, 0.0)
        assert one == protocols.CertificateReport(True, True, 0.0, 0.0, 0.0)
        assert list(cache) == before

    @pytest.mark.parametrize("distance", [0, 3])
    def test_wrong_witness_coefficient_after_warm_cache(self, monkeypatch, cold, distance):
        # distance 0 breaks diag(Y) = 1, distance 3 makes Y indefinite
        inst = ProblemInstance(7, 3, 0.5)
        assert verify_unambiguous_certificates(inst).dual_feasible
        true_coefficients = johnson._projector_coefficients

        def perturbed(n, k, j):
            coeffs = list(true_coefficients(n, k, j))
            coeffs[distance] += Fraction(1, 1000)
            return tuple(coeffs)

        # _dual_witness reads johnson's name
        monkeypatch.setattr(johnson, "_projector_coefficients", perturbed)
        combin._clear_caches()  # the warm entry holds the true witness
        report = verify_unambiguous_certificates(inst)
        assert report.primal_feasible and not report.dual_feasible

    @pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(2, 3), Fraction(5, 7)])
    def test_exact_overlap_equals_object_matrix_conversion(self, monkeypatch, c):
        # reference: the object Gram of exact powers converted to float entry by entry
        exact_powers = protocols._gram_powers

        def converted(instance):
            return np.array([float(p) for p in exact_powers(instance)])

        for n, k in [(6, 2), (8, 3), (10, 4), (9, 5)]:
            inst = ProblemInstance(n, k, c)
            G = exact_powers(inst).astype(float)[distance_matrix(n, k)]  # the certificate's G
            assert G.dtype == np.float64
            assert np.array_equal(G, np.asarray(gram_matrix(inst), dtype=float))
            report = verify_unambiguous_certificates(inst)
            with monkeypatch.context() as patch:
                patch.setattr(protocols, "_gram_powers", converted)
                assert verify_unambiguous_certificates(inst) == report, (n, k)

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


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called by a closed form")


def test_closed_forms_call_no_numpy(monkeypatch):
    # from an instance to its value every closed form runs on Python scalars:
    # numpy enters only where an N x N object is gathered
    for module in (gram, protocols, universal):
        monkeypatch.setattr(module, "np", _NoNumpy())
    for c in (0.45, Fraction(2, 3), 0.0, 1.0, Fraction(0), Fraction(1)):
        for n, k in ((9, 0), (9, 3), (9, 7), (9, 9), (5000, 60)):
            inst = ProblemInstance(n, k, c)
            values = closed_form_spectrum(inst).values
            assert len(values) == inst.m + 1 and all(type(v) is type(c) for v in values)
            assert 0 <= min_error_success(inst).value <= 1
            assert 0 <= unambiguous_success(inst).value <= 1
        for k in (1, 2, 3):
            assert 0 <= explicit_success_k123(ProblemInstance(9, k, c)).value <= 1
        assert min_error_asymptotic(ProblemInstance(100, 3, c)).value >= 0
    for n, k, d in ((9, 3, 2), (9, 7, 3), (10**5, 40, 2)):
        assert 0 < universal_success(UniversalInstance(n, k, d)) <= 1
    assert universal_asymptote(3, 2) == Fraction(1, 4)
