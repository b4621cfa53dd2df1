from fractions import Fraction

import numpy as np
import pytest

from anomdet.johnson import (
    SchemeClosureError,
    _projector_coefficients,
    eigenmatrices,
    hahn_polynomial,
    multiplicity,
    scheme_basis,
    scheme_projector,
    scheme_projector_exact,
    valency,
    verify_bose_mesner_closure,
)
from anomdet.combin import binomial, distance_matrix

GRID = [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4)]


class TestAdjacency:
    def test_distance_zero_is_identity(self):
        assert np.array_equal(scheme_basis(5, 2).adjacency[0], np.eye(10, dtype=np.uint8))

    def test_row_sums_are_valencies(self):
        A = scheme_basis(5, 2).adjacency[1]
        assert (A.sum(axis=1) == 6).all()  # C(2,1) C(3,1)

    @pytest.mark.parametrize("n,k", GRID)
    def test_partition_of_all_ones(self, n, k):
        basis = scheme_basis(n, k)
        total = np.sum([A.astype(int) for A in basis.adjacency], axis=0)
        assert np.array_equal(total, np.ones_like(total))
        for i, A in enumerate(basis.adjacency):
            assert np.array_equal(A, A.T)
            if i >= 1:
                assert np.diagonal(A).sum() == 0
            assert (A.sum(axis=1) == valency(n, k, i)).all()


class TestHahnPolynomials:
    def test_degree_zero(self):
        for x in range(4):
            assert hahn_polynomial(0, x, 9, 3) == 1

    def test_degree_one_closed_form(self):
        # k > n/2 too: degree 1 stops at m = 1 <= n-k, also for a distance x > n-k
        for n, k in GRID + [(5, 3), (5, 4), (7, 5), (6, 5)]:
            for x in range(k + 1):
                assert hahn_polynomial(1, x, n, k) == 1 - Fraction(n * x, k * (n - k))

    def test_value_at_zero(self):
        # Q_j(0) = 1, so the projector diagonal identity q_j(0) = m_j holds
        for n, k in GRID:
            for j in range(k + 1):
                assert hahn_polynomial(j, 0, n, k) == 1

    def test_degree_out_of_range(self):
        # (j, x, n, k): degree past k; a series past m = n-k (k > n/2); x outside [0, k]
        for args in [(3, 0, 5, 2), (-1, 0, 5, 2), (3, 3, 5, 3), (2, 2, 5, 4), (4, 4, 6, 4),
                     (1, -1, 5, 2), (1, 3, 5, 2), (0, 3, 5, 2)]:
            with pytest.raises(ValueError):
                hahn_polynomial(*args)



class TestEigenmatrices:
    @pytest.mark.parametrize("n,k", GRID)
    def test_first_row_is_valencies(self, n, k):
        em = eigenmatrices(n, k)
        assert list(em.P[0]) == [valency(n, k, i) for i in range(k + 1)]

    @pytest.mark.parametrize("n,k", GRID)
    def test_multiplicities_column(self, n, k):
        em = eigenmatrices(n, k)
        assert list(em.Q[0]) == [multiplicity(n, j) for j in range(k + 1)]

    def test_dimension_sums(self):
        for n, k in GRID:
            N = binomial(n, k)
            assert sum(multiplicity(n, j) for j in range(k + 1)) == N
            assert sum(valency(n, k, i) for i in range(k + 1)) == N


class TestSchemeProjectors:
    def test_e0_is_uniform(self):
        E0 = scheme_projector(5, 2, 0)
        assert np.abs(E0 - np.ones((10, 10)) / 10).max() < 1e-15

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3)])
    def test_projector_algebra(self, n, k):
        projs = [scheme_projector(n, k, j) for j in range(k + 1)]
        N = projs[0].shape[0]
        assert np.abs(np.sum(projs, axis=0) - np.eye(N)).max() < 1e-12
        for j, E in enumerate(projs):
            for l, F in enumerate(projs):
                prod = E @ F
                target = E if j == l else np.zeros_like(E)
                assert np.abs(prod - target).max() < 1e-12

    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3)])
    def test_trace_and_rank(self, n, k):
        for j in range(k + 1):
            exact = scheme_projector_exact(n, k, j)
            trace = sum(exact[a][a] for a in range(len(exact)))
            assert trace == multiplicity(n, j)
            evals = np.linalg.eigvalsh(np.array(exact, dtype=float))
            assert int(np.sum(evals > 1e-8)) == multiplicity(n, j)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            scheme_projector(5, 2, 3)

    def test_undefined_index_raises_on_every_call(self):
        # k > n/2: no Hahn series for j > n-k; a failed call is not cached
        for _ in range(2):
            with pytest.raises(ValueError):
                scheme_projector_exact(5, 3, 3)

    @pytest.mark.parametrize("n", range(9))
    def test_float_is_exact_converted(self, n):
        for k in range(n + 1):
            for j in range(k + 1):
                try:
                    exact = scheme_projector_exact(n, k, j)
                except ValueError:  # Hahn series undefined (k > n/2)
                    with pytest.raises(ValueError):
                        scheme_projector(n, k, j)
                    continue
                assert exact.dtype == object and all(type(x) is Fraction for x in exact.flat)
                assert np.array_equal(scheme_projector(n, k, j), exact.astype(float))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_gather_equals_fancy_index(self, n):
        # one take from D: the same dtype and bits as values[D]
        for k in range(n + 1):
            D = distance_matrix(n, k)
            for j in range(min(k, n - k) + 1):
                coeffs = _projector_coefficients(n, k, j)
                reference = np.array([float(x) for x in coeffs])[D]
                E = scheme_projector(n, k, j)
                assert E.dtype == np.float64 and E.tobytes() == reference.tobytes(), (n, k, j)
                exact = scheme_projector_exact(n, k, j)
                reference = np.array(coeffs, dtype=object)[D]
                assert exact.dtype == object and exact.shape == reference.shape
                assert all(a is b for a, b in zip(exact.flat, reference.flat)), (n, k, j)


class TestBoseMesnerClosure:
    @pytest.mark.parametrize("n,k", GRID)
    def test_closure_and_intersection_numbers(self, n, k):
        basis = scheme_basis(n, k)
        numbers = verify_bose_mesner_closure(basis)
        for j in range(k + 1):
            # identity element: A_0 A_j = A_j
            assert numbers[(0, j)] == [1 if l == j else 0 for l in range(k + 1)]
        for i in range(k + 1):
            # diagonal of A_i^2 counts neighbors
            assert numbers[(i, i)][0] == valency(n, k, i)
        for coeffs in numbers.values():
            assert all(isinstance(v, int) and v >= 0 for v in coeffs)
        for i in range(k + 1):
            for j in range(k + 1):
                assert numbers[(i, j)] == numbers[(j, i)]  # the algebra commutes

    def test_tampered_basis_fails(self):
        basis = scheme_basis(4, 2)
        broken = basis.adjacency[1].copy()
        broken[0, 1] ^= 1
        broken[1, 0] ^= 1
        tampered = type(basis)(n=4, k=2, adjacency=(basis.adjacency[0], broken, basis.adjacency[2]))
        with pytest.raises(SchemeClosureError):
            verify_bose_mesner_closure(tampered)

    def test_non_symmetric_basis_fails(self):
        # still a partition of J, but A_1 takes one entry (0, b) of A_2 and not (b, 0)
        basis = scheme_basis(4, 2)
        A1, A2 = basis.adjacency[1].copy(), basis.adjacency[2].copy()
        b = int(np.flatnonzero(A2[0])[0])
        A1[0, b], A2[0, b] = 1, 0
        tampered = type(basis)(n=4, k=2, adjacency=(basis.adjacency[0], A1, A2))
        with pytest.raises(SchemeClosureError, match="A_1 is not symmetric"):
            verify_bose_mesner_closure(tampered)

    def test_overlapping_basis_fails(self):
        basis = scheme_basis(4, 2)
        doubled = basis.adjacency[1] | basis.adjacency[2]
        tampered = type(basis)(n=4, k=2, adjacency=(basis.adjacency[0], basis.adjacency[1], doubled))
        with pytest.raises(SchemeClosureError):
            verify_bose_mesner_closure(tampered)

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 4), (6, 5), (4, 4)])
    def test_empty_distance_classes(self, n, k):
        # k > n/2: distance classes beyond n-k are empty
        numbers = verify_bose_mesner_closure(scheme_basis(n, k))
        for i in range(k + 1):
            for j in range(k + 1):
                if max(i, j) > n - k:
                    assert numbers[(i, j)] == [0] * (k + 1)
