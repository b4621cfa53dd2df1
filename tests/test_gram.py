import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from anomdet.gram import (
    ProblemInstance,
    _eigenvalue,
    _log_eigenvalues,
    closed_form_spectrum,
    direct_spectrum,
    _psd_eigh,
    gram_matrix,
)
from anomdet.combin import (
    binomial,
    enumerate_patterns,
    hypergeometric_terminating,
    pattern_distance,
)
from anomdet.johnson import scheme_projector

C_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


class TestProblemInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(0, 0, 0.5)
        with pytest.raises(ValueError):
            ProblemInstance(4, 5, 0.5)
        with pytest.raises(ValueError):
            ProblemInstance(4, 2, 1.5)

    def test_exact_flag(self):
        assert ProblemInstance(4, 2, Fraction(1, 2)).exact
        assert not ProblemInstance(4, 2, 0.5).exact


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
        with pytest.raises(ValueError):
            gram_matrix(ProblemInstance(30, 15, 0.5))

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
            c = Fraction(2, 3)
            loop = [[(c * c) ** pattern_distance(r, s) for s in pats] for r in pats]
            G = gram_matrix(ProblemInstance(n, k, c))
            assert G == loop
            assert all(isinstance(x, Fraction) for row in G for x in row)


class TestClosedFormSpectrum:
    def test_single_anomaly(self):
        # two distinct eigenvalues: 1 + (n-1)c^2 and 1 - c^2
        for n in (2, 5, 11):
            z = Fraction(1, 4)
            spec = closed_form_spectrum(ProblemInstance(n, 1, Fraction(1, 2)))
            assert [(e.value, e.multiplicity) for e in spec.entries] == [
                (1 + (n - 1) * z, 1),
                (1 - z, n - 1),
            ]

    def test_frozen_example_4_2(self):
        # dense eigendecomposition of the explicit 6x6 Gram gives
        # (33/16, 15/16, 9/16) with multiplicities (1, 3, 2)
        spec = closed_form_spectrum(ProblemInstance(4, 2, Fraction(1, 2)))
        assert [(e.value, e.multiplicity) for e in spec.entries] == [
            (Fraction(33, 16), 1),
            (Fraction(15, 16), 3),
            (Fraction(9, 16), 2),
        ]

    def test_zero_overlap(self):
        spec = closed_form_spectrum(ProblemInstance(7, 3, 0.0))
        assert all(e.value == 1.0 for e in spec.entries)

    def test_trace_identity(self):
        for n, k in [(6, 2), (8, 3), (9, 4)]:
            spec = closed_form_spectrum(ProblemInstance(n, k, Fraction(2, 7)))
            assert sum(e.value * e.multiplicity for e in spec.entries) == binomial(n, k)

    def test_perron_is_row_sum(self):
        for n, k in [(5, 2), (7, 3)]:
            inst = ProblemInstance(n, k, Fraction(3, 5))
            G = gram_matrix(inst)
            row_sum = sum(G[0])
            assert closed_form_spectrum(inst).entries[0].value == row_sum

    @pytest.mark.parametrize("n,k", [(6, 4), (7, 5), (8, 8), (5, 5), (9, 6)])
    def test_complement_symmetry(self, n, k):
        # G(n, k) = G(n, n-k): complementing both patterns keeps their distance
        c = Fraction(1, 2)
        spec = closed_form_spectrum(ProblemInstance(n, k, c))
        mirror = closed_form_spectrum(ProblemInstance(n, n - k, c))
        pairs = [(e.value, e.multiplicity) for e in spec.entries]
        assert pairs == [(e.value, e.multiplicity) for e in mirror.entries]
        assert all(m > 0 for _, m in pairs)
        assert sum(m for _, m in pairs) == binomial(n, k)
        dense = direct_spectrum(gram_matrix(ProblemInstance(n, k, c)))
        assert np.abs(spec.as_multiset() - dense).max() < 1e-12

    def test_strictly_decreasing(self):
        spec = closed_form_spectrum(ProblemInstance(9, 4, 0.6))
        vals = [e.value for e in spec.entries]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("c", C_GRID)
    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (9, 4), (8, 2)])
    def test_matches_dense_oracle(self, n, k, c):
        inst = ProblemInstance(n, k, c)
        closed = closed_form_spectrum(inst).as_multiset()
        dense = direct_spectrum(gram_matrix(inst))
        assert np.abs(closed - dense).max() < 1e-9

    def test_spectral_reconstruction(self):
        inst = ProblemInstance(6, 2, 0.4)
        G = gram_matrix(inst)
        recon = np.zeros_like(G)
        for e in closed_form_spectrum(inst).entries:
            recon += float(e.value) * scheme_projector(6, 2, e.j)
        assert np.abs(G - recon).max() < 1e-10


class TestExactEigenvalue:
    """The integer-sum exact eigenvalue against the terminating 2F1 it replaces."""

    @pytest.mark.parametrize(
        "z", [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(3, 7), Fraction(25, 49),
              Fraction(121, 144)],
    )
    def test_equals_hypergeometric_sum(self, z):
        for n in range(1, 15):
            for k in range(n // 2 + 1):
                for j in range(k + 1):
                    reference = (1 - z) ** j * hypergeometric_terminating(
                        [j - k, k + j - n], [1], z
                    )
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
        for e in spec.entries:
            exact = float(_eigenvalue(e.j, n, k, z))
            assert e.value == pytest.approx(exact, rel=1e-11, abs=0)

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
            values = [e.value for e in closed_form_spectrum(ProblemInstance(n, k, c)).entries]
            assert all(math.isfinite(v) for v in values)

    def test_fraction_path_overflows_alike(self):
        inst = ProblemInstance(5000, 210, 0.8)
        with pytest.raises(OverflowError):
            float(_eigenvalue(0, 5000, 210, Fraction(inst.c2)))
        with pytest.raises(OverflowError):
            closed_form_spectrum(inst)

    def test_identical_hypotheses(self):
        # c = 1: G is all ones, lambda_0 = N, every other eigenvalue 0 (no 0 * -inf)
        values = [e.value for e in closed_form_spectrum(ProblemInstance(9, 4, 1.0)).entries]
        assert values[0] == pytest.approx(126, rel=1e-15)
        assert values[1:] == [0.0] * 4

    def test_no_anomalies(self):
        (entry,) = closed_form_spectrum(ProblemInstance(7, 0, 0.5)).entries
        assert (entry.value, entry.multiplicity) == (1.0, 1)

    @pytest.mark.parametrize("n,k", [(6, 3), (7, 4), (9, 9)])
    def test_k_at_least_half(self, n, k):
        spec = closed_form_spectrum(ProblemInstance(n, k, 0.45))
        exact = closed_form_spectrum(ProblemInstance(n, k, Fraction(0.45)))
        assert len(spec.entries) == min(k, n - k) + 1
        for e, x in zip(spec.entries, exact.entries):
            assert e.multiplicity == x.multiplicity
            assert e.value == pytest.approx(float(x.value), rel=1e-13)


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


class TestPsdEigh:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            _psd_eigh(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN passes "min eigenvalue < -tol" as False; it must not get through
        with pytest.raises(ValueError, match="NaN or infinite"):
            _psd_eigh(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"_psd_eigh: matrix is empty, shape \(0, 0\)"):
            _psd_eigh(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 3), (4,)], ids=["2x3", "0x3", "1-d"])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="_psd_eigh: expected a square matrix"):
            _psd_eigh(np.ones(shape))
