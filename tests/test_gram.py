import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from anomdet.gram import (
    GRAM_SIZE_CAP,
    ProblemInstance,
    _finite_square,
    _gram_powers,
    _real_array,
    _eigenvalue,
    _log_eigenvalues,
    closed_form_spectrum,
    direct_spectrum,
    gram_matrix,
)
from anomdet.combin import (
    binomial,
    distance_matrix,
    enumerate_patterns,
    pattern_distance,
)
from anomdet.johnson import scheme_projector
from anomdet.protocols import min_error_success


class TestProblemInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(0, 0, 0.5)
        with pytest.raises(ValueError):
            ProblemInstance(4, 5, 0.5)
        with pytest.raises(ValueError):
            ProblemInstance(4, 2, 1.5)

    @pytest.mark.parametrize("c", [True, False, np.bool_(True)])
    def test_rejects_bool_overlap(self, c):
        with pytest.raises(ValueError, match="^overlap c must not be a bool"):
            ProblemInstance(4, 2, c)

    def test_exact_flag(self):
        assert ProblemInstance(4, 2, Fraction(1, 2)).exact
        assert ProblemInstance(4, 2, 0).exact and ProblemInstance(4, 2, 1).exact
        assert not ProblemInstance(4, 2, 0.5).exact

    @pytest.mark.parametrize("c", [0, 1, np.int64(1), np.uint8(0), np.int32(1), np.array(1)])
    def test_integer_overlap_is_stored_as_fraction(self, c):
        inst = ProblemInstance(4, 2, c)
        assert type(inst.c) is Fraction and inst.c == c and type(inst.c.numerator) is int
        assert type(inst.c2) is Fraction and inst.c2 == inst.c * inst.c
        assert inst.exact and inst == ProblemInstance(4, 2, int(c))

    @pytest.mark.parametrize("c, value", [
        (np.float64(0.3), 0.3),
        (np.float32(0.5), 0.5),
        (Decimal("0.25"), 0.25),
        (np.array(0.75), 0.75),
    ])
    def test_other_real_overlap_is_stored_as_float(self, c, value):
        inst = ProblemInstance(4, 2, c)
        assert type(inst.c) is float and inst.c == value
        assert type(inst.c2) is float and inst.c2 == value * value
        assert not inst.exact

    @pytest.mark.parametrize("c", ["0.5", b"1", None, 0.5j, complex(1, 0), np.complex128(0.5),
                                   np.array("0.5"), [0.5]])
    def test_rejects_non_real_overlap(self, c):
        with pytest.raises(ValueError, match="^overlap c must be a real number, got "):
            ProblemInstance(4, 2, c)

    @pytest.mark.parametrize("c", [1.5, -0.1, math.nan, math.inf, Fraction(3, 2), 2,
                                   Decimal("1.5")])
    def test_rejects_overlap_outside_unit_interval(self, c):
        with pytest.raises(ValueError, match=r"^overlap c must be in \[0, 1\]"):
            ProblemInstance(4, 2, c)

    @pytest.mark.parametrize("c", [Fraction(-1, 3), Fraction(4, 3), Fraction(-1),
                                   Fraction(10**30 + 1, 10**30)])
    def test_fraction_range_message(self, c):
        with pytest.raises(ValueError, match=f"^overlap c must be in \\[0, 1\\], got {c}$"):
            ProblemInstance(4, 2, c)

    @pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(1, 3),
                                   Fraction(10**30 - 1, 10**30)])
    def test_fraction_square_equals_product(self, c):
        inst = ProblemInstance(4, 2, c)
        assert inst.c is c and type(inst.c2) is Fraction and inst.c2 == c * c
        assert (inst.c2.numerator, inst.c2.denominator) == ((c * c).numerator, (c * c).denominator)

    @pytest.mark.parametrize("field, args", [
        ("k", (10, 2.5, 0.5)),
        ("n", (5.0, 2, 0.5)),
        ("k", (5, 2.0, 0.5)),
        ("n", (Fraction(5), 2, 0.5)),
        ("n", (True, 1, 0.5)),
        ("k", (4, False, 0.5)),
        ("k", (4, np.bool_(True), 0.5)),
        ("n", ("5", 2, 0.5)),
    ])
    def test_rejects_non_integral_counts(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ProblemInstance(*args)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8, int])
    def test_accepts_numpy_integers_as_ints(self, integer):
        inst = ProblemInstance(integer(5), integer(2), 0.5)
        assert type(inst.n) is int and type(inst.k) is int
        assert inst == ProblemInstance(5, 2, 0.5)
        assert min_error_success(inst).value == min_error_success(ProblemInstance(5, 2, 0.5)).value


class TestGramMatrix:
    def test_orthogonal_hypotheses(self):
        G = gram_matrix(ProblemInstance(5, 2, 0.0))
        assert np.array_equal(G, np.eye(10))

    def test_identical_hypotheses(self):
        G = gram_matrix(ProblemInstance(5, 2, 1.0))
        assert np.array_equal(G, np.ones((10, 10)))

    def test_distance_two_entry(self):
        inst = ProblemInstance(4, 2, Fraction(1, 3))
        G = gram_matrix(inst)
        pats = enumerate_patterns(4, 2)
        a, b = pats.index((3, 4)), pats.index((1, 2))
        assert G[a][b] == Fraction(1, 3) ** 4
        assert all(G[i][i] == 1 for i in range(6))

    def test_size_cap(self):
        with pytest.raises(ValueError, match=f"^Gram size {binomial(30, 15)} exceeds cap"):
            gram_matrix(ProblemInstance(30, 15, 0.5))

    @pytest.mark.parametrize("c", [0.3, 0.7, Fraction(1, 3), Fraction(5, 7)])
    def test_gather_equals_fancy_index(self, c):
        # one take from D: the same dtype, layout and bits as values[D]
        for n in range(1, 10):
            for k in range(n + 1):
                inst = ProblemInstance(n, k, c)
                G, reference = gram_matrix(inst), _gram_powers(inst)[distance_matrix(n, k)]
                assert G.dtype == reference.dtype and G.flags.c_contiguous and G.flags.writeable
                if inst.exact:
                    same = ([(x.numerator, x.denominator) for x in G.ravel()]
                            == [(x.numerator, x.denominator) for x in reference.ravel()])
                else:
                    same = G.tobytes() == reference.tobytes()
                assert same, (n, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_float_matches_per_pair_loop_bitwise(self, n):
        for k in range(n + 1):
            pats = enumerate_patterns(n, k)
            for c in (0.0, 0.3, 0.7, 1.0):
                z = c * c
                loop = np.array([[z ** pattern_distance(r, s) for s in pats] for r in pats])
                G = gram_matrix(ProblemInstance(n, k, c))
                assert G.dtype == np.float64 and np.array_equal(G, loop)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_matches_per_pair_loop(self, n):
        for k in range(n + 1):
            pats = enumerate_patterns(n, k)
            for c in (Fraction(2, 3), Fraction(0), 1):  # an int overlap is exact too
                loop = [[(c * c) ** pattern_distance(r, s) for s in pats] for r in pats]
                G = gram_matrix(ProblemInstance(n, k, c))
                assert G.dtype == object and G.tolist() == loop
                assert all(type(x) is Fraction for x in G.flat)


class TestClosedFormSpectrum:
    def test_single_anomaly(self):
        # two distinct eigenvalues: 1 + (n-1)c^2 and 1 - c^2
        for n in (2, 5, 11):
            z = Fraction(1, 4)
            spec = closed_form_spectrum(ProblemInstance(n, 1, Fraction(1, 2)))
            assert list(zip(spec.values, spec.multiplicities)) == [
                (1 + (n - 1) * z, 1),
                (1 - z, n - 1),
            ]

    def test_frozen_example_4_2(self):
        # dense eigendecomposition of the explicit 6x6 Gram gives
        # (33/16, 15/16, 9/16) with multiplicities (1, 3, 2)
        spec = closed_form_spectrum(ProblemInstance(4, 2, Fraction(1, 2)))
        assert list(zip(spec.values, spec.multiplicities)) == [
            (Fraction(33, 16), 1),
            (Fraction(15, 16), 3),
            (Fraction(9, 16), 2),
        ]

    def test_zero_overlap(self):
        spec = closed_form_spectrum(ProblemInstance(7, 3, 0.0))
        assert spec.values.tolist() == [1.0] * 4

    def test_trace_identity(self):
        for n, k in [(6, 2), (8, 3), (9, 4)]:
            spec = closed_form_spectrum(ProblemInstance(n, k, Fraction(2, 7)))
            assert sum(v * m for v, m in zip(spec.values, spec.multiplicities)) == binomial(n, k)

    def test_perron_is_row_sum(self):
        for n, k in [(5, 2), (7, 3)]:
            inst = ProblemInstance(n, k, Fraction(3, 5))
            G = gram_matrix(inst)
            row_sum = sum(G[0])
            assert closed_form_spectrum(inst).values[0] == row_sum

    @pytest.mark.parametrize("n,k", [(6, 4), (7, 5), (8, 8), (5, 5), (9, 6)])
    def test_complement_symmetry(self, n, k):
        # G(n, k) = G(n, n-k): complementing both patterns keeps their distance
        c = Fraction(1, 2)
        spec = closed_form_spectrum(ProblemInstance(n, k, c))
        mirror = closed_form_spectrum(ProblemInstance(n, n - k, c))
        pairs = list(zip(spec.values, spec.multiplicities))
        assert pairs == list(zip(mirror.values, mirror.multiplicities))
        assert all(m > 0 for _, m in pairs)
        assert sum(m for _, m in pairs) == binomial(n, k)
        dense = direct_spectrum(gram_matrix(ProblemInstance(n, k, c)))
        assert np.abs(spec.as_multiset() - dense).max() < 1e-12

    def test_strictly_decreasing(self):
        spec = closed_form_spectrum(ProblemInstance(9, 4, 0.6))
        assert (np.diff(spec.values) < 0).all()

    @pytest.mark.parametrize("c", [0.45, Fraction(2, 3)])
    def test_arrays_match_entries_view(self, c):
        spec = closed_form_spectrum(ProblemInstance(9, 4, c))
        assert spec.values.dtype == (object if isinstance(c, Fraction) else np.float64)
        assert [(e.j, e.value, e.multiplicity) for e in spec.entries] == list(
            zip(range(5), spec.values.tolist(), spec.multiplicities))
        assert all(type(e.value) is type(c) for e in spec.entries)

    @pytest.mark.parametrize("n, k", [(60, 30), (2000, 40), (100, 3)])
    def test_multiset_size_cap(self, n, k):
        # N = C(n, k) far beyond memory (60, 30), beyond a C long (2000, 40), or
        # just above the cap (C(100, 3) = 161700): a ValueError naming N
        spec = closed_form_spectrum(ProblemInstance(n, k, 0.5))
        with pytest.raises(ValueError, match=f"as_multiset: N = {binomial(n, k)} eigenvalues "
                                             f"exceed cap {GRAM_SIZE_CAP}"):
            spec.as_multiset()

    def test_multiset_at_the_verify_cap(self):
        values = closed_form_spectrum(ProblemInstance(14, 4, 0.5)).as_multiset()
        assert values.shape == (1001,) and np.all(np.diff(values) <= 0)

    @pytest.mark.parametrize("n,k", [(9, 4), (9, 6), (60, 30), (10_000, 200)])
    def test_multiplicities_are_exact_ints_summing_to_N(self, n, k):
        for c in (0.1, Fraction(1, 3)):
            multiplicities = closed_form_spectrum(ProblemInstance(n, k, c)).multiplicities
            assert len(multiplicities) == min(k, n - k) + 1
            assert all(type(m) is int and m > 0 for m in multiplicities)
            assert sum(multiplicities) == binomial(n, k)

    def test_spectral_reconstruction(self):
        inst = ProblemInstance(6, 2, 0.4)
        G = gram_matrix(inst)
        recon = np.zeros_like(G)
        for j, value in enumerate(closed_form_spectrum(inst).values):
            recon += value * scheme_projector(6, 2, j)
        assert np.abs(G - recon).max() < 1e-10


def _defining_sum(j: int, n: int, k: int, z: Fraction) -> Fraction:
    """(1-z)^j sum_m C(k-j, m) C(n-k-j, m) z^m, term by term in Fractions."""
    return (1 - z) ** j * sum(
        binomial(k - j, m) * binomial(n - k - j, m) * z**m for m in range(k - j + 1)
    )


class TestExactEigenvalue:
    """The integer-stepped exact eigenvalue against its defining 2F1 sum."""

    @pytest.mark.parametrize(
        "z", [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(3, 7), Fraction(25, 49),
              Fraction(121, 144)],
    )
    def test_equals_hypergeometric_sum(self, z):
        cases = [(n, k) for n in range(1, 15) for k in range(n // 2 + 1)] + [(500, 10)]
        for n, k in cases:
            for j in range(k + 1):
                reference = _defining_sum(j, n, k, z)
                value = _eigenvalue(j, n, k, z)
                assert isinstance(value, Fraction)
                assert value == reference, (n, k, j, z)


def _mp_log_eigenvalue(j: int, n: int, k: int, c: float):
    """log lambda_j at 50 digits, from mpmath's own 2F1, for the binary value of c."""
    with mpmath.workdps(50):
        z = mpmath.mpf(c) ** 2
        return j * mpmath.log1p(-z) + mpmath.log(mpmath.hyp2f1(j - k, j - n + k, 1, z))


class TestLogDomainFloatPath:
    """The float-overlap spectrum, summed in log space, against the exact paths."""

    @pytest.mark.parametrize("n,k", [(2, 1), (12, 5), (97, 17), (1000, 40), (100_000, 40)])
    @pytest.mark.parametrize("c", [0.05, 0.5, 0.93])
    def test_matches_fraction_path(self, n, k, c):
        spec = closed_form_spectrum(ProblemInstance(n, k, c))
        z = Fraction(c * c)
        for j, value in enumerate(spec.values):
            exact = float(_eigenvalue(j, n, k, z))
            assert value == pytest.approx(exact, rel=1e-11, abs=0)

    @pytest.mark.parametrize(
        "n,k,c",
        [(100, 50, 0.6), (1000, 200, 0.3), (10_000, 110, 0.9), (10_000, 300, 0.1),
         (100_000, 500, 0.05), (100_000, 500, 0.7), (5000, 210, 0.8), (20_000, 300, 0.5),
         (2000, 500, 0.999)],
    )
    def test_matches_mpmath(self, n, k, c):
        logs = list(_log_eigenvalues(n, k, c * c))
        for j in sorted({0, 1, k // 3, k // 2, k - 1, k}):
            reference = _mp_log_eigenvalue(j, n, k, c)
            assert abs(mpmath.expm1(logs[j] - reference)) <= 1e-11
        # the spectrum overflows exactly when the true lambda_0 does
        overflows = _mp_log_eigenvalue(0, n, k, c) > mpmath.log(np.finfo(float).max)
        if overflows:
            with pytest.raises(OverflowError):
                closed_form_spectrum(ProblemInstance(n, k, c))
        else:
            assert np.isfinite(closed_form_spectrum(ProblemInstance(n, k, c)).values).all()

    @pytest.mark.parametrize("c", [0.001, 0.01])
    def test_small_overlap_matches_mpmath(self, c):
        # x - 1 = 2z/(1-z) is 2e-6 and 2e-4: a recurrence on the ratios
        # P_d/P_{d-1} themselves forms (s+2) s x - b^2 and cancels there
        n, k = 100_000, 500
        logs = _log_eigenvalues(n, k, c * c)
        for j in sorted({0, 1, k // 3, k // 2, k - 1, k}):
            reference = _mp_log_eigenvalue(j, n, k, c)
            assert abs(mpmath.expm1(logs[j] - reference)) <= 1e-13, j

    @pytest.mark.parametrize(
        "c,expected", [(0.01, 0.52001404592431543715), (0.05, 3.269104897061188075e-14)]
    )
    def test_min_error_at_large_k(self, c, expected):
        # 20001 eigenvalues; 40-digit mpmath values at the exact square of the float c
        value = min_error_success(ProblemInstance(60_000, 20_000, c)).value
        assert value == pytest.approx(expected, rel=1e-13, abs=0)

    def test_fraction_path_overflows_alike(self):
        inst = ProblemInstance(5000, 210, 0.8)
        with pytest.raises(OverflowError):
            float(_eigenvalue(0, 5000, 210, Fraction(inst.c2)))
        with pytest.raises(OverflowError):
            closed_form_spectrum(inst)

    @pytest.mark.parametrize("n,k", [(7, 0), (7, 1), (40, 2), (1000, 3), (300, 120)])
    def test_every_row_matches_fraction_path(self, n, k):
        # k = 0 runs no recurrence step; z = 0 keeps every ratio at 1 (x = 1),
        # z = 1 takes the all-ones branch
        for z in (0.0, 0.0025, 0.49, 0.9801, 1.0):
            logs = _log_eigenvalues(n, k, z)
            assert logs.shape == (k + 1,)
            for j, log_value in enumerate(logs):
                exact = float(_eigenvalue(j, n, k, Fraction(z)))
                assert math.exp(log_value) == pytest.approx(exact, rel=1e-12, abs=0), (z, j)

    def test_row_blocks_match_fraction_path(self):
        # a long recurrence (300 steps): the first row sums every ratio,
        # the rows from 200 on the first 100 or fewer
        n, k, z = 700, 300, 0.49
        logs = _log_eigenvalues(n, k, z)
        for j in [0, *range(200, k + 1)]:
            exact = float(_eigenvalue(j, n, k, Fraction(z)))
            assert math.exp(logs[j]) == pytest.approx(exact, rel=1e-12, abs=0), j

    def test_memory_stays_linear_in_k(self):
        # the recurrence keeps the peak far below one (k+1) x k float array
        k = 3000
        tracemalloc.start()
        try:
            value = min_error_success(ProblemInstance(3 * k, k, 0.5)).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < value <= 1
        assert peak < (k + 1) * k * 8 // 16

    def test_overflow_boundary(self):
        # the true lambda_0 is e^709.1 at k = 185 (below 1.8e308) and e^712.0 at k = 186
        limit = mpmath.log(np.finfo(float).max)
        assert _mp_log_eigenvalue(0, 5000, 185, 0.8) < limit < _mp_log_eigenvalue(0, 5000, 186, 0.8)
        values = closed_form_spectrum(ProblemInstance(5000, 185, 0.8)).values
        assert np.isfinite(values).all() and values[0] > 1e307
        with pytest.raises(OverflowError):
            closed_form_spectrum(ProblemInstance(5000, 186, 0.8))

    def test_overflow_boundary_between_adjacent_overlaps(self):
        # at the last float c below the overflow, np.exp of the whole array
        # neither overflows nor warns (warnings are errors in this suite)
        def overflows(c):
            try:
                closed_form_spectrum(ProblemInstance(5000, 185, c))
            except OverflowError:
                return True
            return False

        lo, hi = 0.8, 0.81
        assert not overflows(lo) and overflows(hi)
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if overflows(mid) else (mid, hi)
        values = closed_form_spectrum(ProblemInstance(5000, 185, lo)).values
        assert np.isfinite(values).all() and values[0] > np.finfo(float).max / 2

    def test_log_binomial_at_identical_hypotheses(self):
        # z = 1: lambda_0 = C(n, k), its log summed from log ratios without the big int
        for n in (*range(1, 40), 64, 101, 257, 1000, 3001, 10_000, 33_333, 60_000):
            for k in sorted({0, min(1, n // 2), n // 20, n // 7, n // 3, n // 2}):
                expected = math.log(math.comb(n, k))
                assert abs(_log_eigenvalues(n, k, 1.0)[0] - expected) <= 1e-15 * expected, (n, k)

    def test_overflow_fails_fast_but_min_error_stays_finite(self):
        inst = ProblemInstance(5000, 210, 0.8)
        with pytest.raises(OverflowError):
            closed_form_spectrum(inst)
        value = min_error_success(inst).value
        assert math.isfinite(value) and 0 <= value <= 1

    def test_identical_hypotheses(self):
        # c = 1: G is all ones, lambda_0 = N, every other eigenvalue 0 (no 0 * -inf)
        values = closed_form_spectrum(ProblemInstance(9, 4, 1.0)).values.tolist()
        assert values[0] == pytest.approx(126, rel=1e-15)
        assert values[1:] == [0.0] * 4

    def test_no_anomalies(self):
        spec = closed_form_spectrum(ProblemInstance(7, 0, 0.5))
        assert (spec.values.tolist(), spec.multiplicities) == ([1.0], (1,))

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 4), (9, 9)])
    def test_k_at_least_half(self, n, k):
        spec = closed_form_spectrum(ProblemInstance(n, k, 0.45))
        exact = closed_form_spectrum(ProblemInstance(n, k, Fraction(0.45)))
        assert len(spec.values) == min(k, n - k) + 1
        assert spec.multiplicities == exact.multiplicities
        for value, x in zip(spec.values, exact.values):
            assert value == pytest.approx(float(x), rel=1e-13)


class TestDirectSpectrum:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            direct_spectrum(np.array([[bad]]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            direct_spectrum(np.array([[1.0, bad], [bad, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"direct_spectrum: matrix is empty, shape \(0, 0\)"):
            direct_spectrum(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 3), (4,)], ids=["2x3", "0x3", "1-d"])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="direct_spectrum: expected a square matrix"):
            direct_spectrum(np.ones(shape))

    def test_identity(self):
        assert np.allclose(direct_spectrum(np.eye(7)), np.ones(7))

    def test_all_ones(self):
        ev = direct_spectrum(np.ones((6, 6)))
        assert abs(ev[0] - 6) < 1e-12
        assert np.abs(ev[1:]).max() < 1e-12

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            direct_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetry_tolerance_has_no_relative_term(self):
        # max|M - M^T| = 5e-6 exceeds 1e-12 * max(1, max|M|); a default
        # rtol=1e-5 would have accepted it
        with pytest.raises(ValueError):
            direct_spectrum(np.array([[1.0, 1.0], [1.0 + 5e-6, 1.0]]))
        ev = direct_spectrum(np.array([[1.0, 1.0], [1.0 + 1e-13, 1.0]]))
        assert np.abs(ev - [2.0, 0.0]).max() < 1e-12


class TestFiniteSquare:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)])
    def test_rejects_non_finite(self, bad, where):
        # -inf among positive entries: caught by -min, not by max
        M = np.full((3, 3), 0.5)
        M[where] = bad
        with pytest.raises(ValueError, match="caller: matrix has NaN or infinite entries"):
            _finite_square(M, "caller")

    def test_no_copy_of_a_float_array(self):
        M = np.array([[1.0, -3.0], [2.0, 0.5]])
        same, size = _finite_square(M, "caller")
        assert same is M and size == 3.0

    def test_converts_other_input(self):
        M, size = _finite_square([[Fraction(1, 2), 1], [1, Fraction(-5, 2)]], "caller")
        assert M.dtype == np.float64 and size == 2.5

    def test_rejects_complex(self):
        # a float conversion would drop the imaginary parts: spectrum {0, 2}, not {1, 1}
        with pytest.raises(ValueError, match="^direct_spectrum: complex entries"):
            direct_spectrum([[1, 1j], [-1j, 1]])

    def test_real_array_returns_a_float64_array_as_is(self):
        M = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
        assert _real_array(M, "caller") is M
        converted = _real_array(np.float32([1.5]), "caller")
        assert converted.dtype == np.float64 and converted.tolist() == [1.5]
