from fractions import Fraction

import numpy as np
import pytest

from anomdet import combin, johnson
from anomdet.johnson import (
    SchemeClosureError,
    _projector_coefficients,
    eigenmatrices,
    hahn_polynomial,
    scheme_basis,
    scheme_projector,
    scheme_projector_exact,
    valency,
    verify_bose_mesner_closure,
)
from anomdet.combin import (
    _multiplicities,
    binomial,
    distance_matrix,
    enumerate_patterns,
    pattern_indicator,
)
from anomdet.gram import ProblemInstance, gram_matrix
from anomdet.protocols import verify_unambiguous_certificates
from test_combin import refused_at_n_zero

GRID = [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3), (8, 4)]
ZERO_ONE_RULE = r"^adjacency matrices must be one or more N x N arrays of 0s and 1s for \(n, k\) = "


REFUSED = [  # (call, args, message)
    (eigenmatrices, (3, 5), r"^k must be in \[0, n\], got k=5, n=3$"),
    (eigenmatrices, (-2, -1), r"^n must be >= 1, got -2$"),
    (eigenmatrices, (True, 0), r"^n must be an integer, got True \(bool\)$"),
    (eigenmatrices, (5.0, 2), r"^n must be an integer, got 5.0 \(float\)$"),
    (hahn_polynomial, (1, 1, 4.0, 2), r"^n must be an integer, got 4.0 \(float\)$"),
    (valency, (3, 5, 1), r"^k must be in \[0, n\], got k=5, n=3$"),
    (scheme_basis, (0, 0), r"^n must be >= 1, got 0$"),
    (scheme_projector, (3, 5, 0), r"^k must be in \[0, n\], got k=5, n=3$"),
    (scheme_projector_exact, (5, np.float64(2), 0), r"^k must be an integer, got "),
    (_projector_coefficients, (5, True, 0), r"^k must be an integer, got True \(bool\)$"),
    (enumerate_patterns, (3, 4), r"^k must be in \[0, n\], got k=4, n=3$"),
    (pattern_indicator, (2.0, 1), r"^n must be an integer, got 2.0 \(float\)$"),
    (distance_matrix, (-2, -1), r"^n must be >= 1, got -2$"),
    # the index arguments go through the same check, combin._integer
    (hahn_polynomial, (True, 1, 4, 2), r"^j must be an integer, got True \(bool\)$"),
    (hahn_polynomial, (1, 1.0, 4, 2), r"^x must be an integer, got 1.0 \(float\)$"),
    (valency, (4, 2, 1.5), r"^i must be an integer, got 1.5 \(float\)$"),
    (scheme_projector, (4, 2, True), r"^j must be an integer, got True \(bool\)$"),
    (scheme_projector_exact, (4, 2, Fraction(1)), r"^j must be an integer, got Fraction\(1, 1\) "),
    # two faults at once: every projector entry point checks the counts before the index
    (scheme_projector, (3, 5, True), r"^k must be in \[0, n\], got k=5, n=3$"),
    (scheme_projector_exact, (3, 5, True), r"^k must be in \[0, n\], got k=5, n=3$"),
    (_projector_coefficients, (3, 5, True), r"^k must be in \[0, n\], got k=5, n=3$"),
]


@pytest.mark.parametrize("call, args, message", REFUSED,
                         ids=[f"{call.__name__}{args}" for call, args, _ in REFUSED])
def test_entry_points_refuse_bad_counts(call, args, message):
    # combin._counts' wording on a cold and on a warm cache: (True, 0) and
    # (5.0, 2) are equal dict keys to the cached (1, 0) and (5, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            call(*args)
        for n, k in [(1, 0), (5, 1), (5, 2)]:
            eigenmatrices(n, k)
            scheme_projector_exact(n, k, 0)


def test_numpy_integer_indices_are_accepted():
    assert hahn_polynomial(np.int64(1), np.uint8(1), 4, 2) == hahn_polynomial(1, 1, 4, 2)
    assert valency(4, 2, np.int32(1)) == valency(4, 2, 1) == 4
    assert np.array_equal(scheme_projector(4, 2, np.int64(1)), scheme_projector(4, 2, 1))


def test_numpy_integer_counts_are_stored_as_ints():
    # every record of the counts holds them as combin._counts returns them
    basis, em = scheme_basis(np.int64(5), np.uint8(2)), eigenmatrices(np.int64(5), np.uint8(2))
    assert (type(basis.n), type(basis.k), type(em.n), type(em.k)) == (int,) * 4
    assert (basis.n, basis.k) == (em.n, em.k) == (5, 2)


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
        # (j, x, n, k): degree outside [0, min(k, n-k)]; x outside [0, k]
        for args in [(3, 0, 5, 2), (-1, 0, 5, 2), (3, 3, 5, 3), (2, 2, 5, 4), (4, 4, 6, 4),
                     (1, -1, 5, 2), (1, 3, 5, 2), (0, 3, 5, 2)]:
            with pytest.raises(ValueError):
                hahn_polynomial(*args)



class TestEigenmatrices:
    @pytest.mark.parametrize("n", range(11))
    def test_complement_gives_the_same_matrices(self, n):
        # J(n, k) and J(n, n-k) are one scheme, with m + 1 = min(k, n-k) + 1 classes
        with refused_at_n_zero(n):
            for k in range(n + 1):
                em, mirror = eigenmatrices(n, k), eigenmatrices(n, n - k)
                assert em.P == mirror.P and em.Q == mirror.Q, (n, k)
                assert len(em.P) == len(scheme_basis(n, k).adjacency) == min(k, n - k) + 1

    @pytest.mark.parametrize("n,k", GRID)
    def test_first_row_is_valencies(self, n, k):
        em = eigenmatrices(n, k)
        assert list(em.P[0]) == [valency(n, k, i) for i in range(k + 1)]

    @pytest.mark.parametrize("n,k", GRID)
    def test_multiplicities_column(self, n, k):
        em = eigenmatrices(n, k)
        assert em.Q[0] == _multiplicities(n, k)

    def test_multiplicity_only_for_eigenvalue_indices(self):
        # C(n, j) - C(n, j - 1) is a multiplicity for 0 <= j <= n // 2 only (it
        # gives -2 at (4, 3)): the scheme J(4, 3) is J(4, 1), with indices 0 and 1
        assert _multiplicities(4, 2) == (1, 3, 2)
        assert eigenmatrices(4, 3).Q[0] == _multiplicities(4, 1) == (1, 3)

    def test_dimension_sums(self):
        for n, k in GRID:
            N = binomial(n, k)
            assert sum(_multiplicities(n, k)) == N
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
        for j, m_j in enumerate(_multiplicities(n, k)):
            exact = scheme_projector_exact(n, k, j)
            trace = sum(exact[a][a] for a in range(len(exact)))
            assert trace == m_j
            evals = np.linalg.eigvalsh(np.array(exact, dtype=float))
            assert int(np.sum(evals > 1e-8)) == m_j

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            scheme_projector(5, 2, 3)

    def test_undefined_index_raises_on_every_call(self):
        # k > n/2: j runs 0..n-k, so j = 3 is out of range; a failed call is not cached
        for _ in range(2):
            with pytest.raises(ValueError):
                scheme_projector_exact(5, 3, 3)

    @pytest.mark.parametrize("n", range(9))
    def test_float_is_exact_converted(self, n):
        with refused_at_n_zero(n):
            for k in range(n + 1):
                for j in range(min(k, n - k) + 1):
                    exact = scheme_projector_exact(n, k, j)
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
                assert all(type(a) is Fraction and a == b
                           for a, b in zip(exact.flat, reference.flat)), (n, k, j)
                # a gather of the m+1 coefficients, not a copy per entry; it may
                # outlive the (n, k) table, so its Fractions need not be the table's
                assert len({id(a) for a in exact.flat}) <= len(coeffs), (n, k, j)
                assert scheme_projector_exact(n, k, j) is exact


N_BY_N_BUILDERS = {
    "distance_matrix": distance_matrix,
    "gram_matrix": lambda n, k: gram_matrix(ProblemInstance(n, k, 0.5)),
    "scheme_basis": scheme_basis,
    "scheme_projector": lambda n, k: scheme_projector(n, k, 0),
    "scheme_projector_exact": lambda n, k: scheme_projector_exact(n, k, 0),
    "verify_unambiguous_certificates":
        lambda n, k: verify_unambiguous_certificates(ProblemInstance(n, k, 0.5)),
}


@pytest.mark.parametrize("n, k, size", [(30, 15, "155117520"),
                                        (10**6, 10**5, r"C\(1000000, 100000\)")],
                         ids=["(30, 15)", "(10^6, 10^5)"])
@pytest.mark.parametrize("builder", N_BY_N_BUILDERS)
def test_n_by_n_builders_refuse_past_the_cap_before_the_table(cold, monkeypatch, builder,
                                                              n, k, size):
    # each asks distance_matrix first, so a refused N builds no (n, k) table:
    # at (10^6, 10^5) that table would start ~10^10 Hahn values
    def unreachable(*args):
        raise AssertionError("(n, k) table built past the Gram size cap")

    monkeypatch.setattr(johnson, "_scheme", unreachable)
    with pytest.raises(ValueError, match=rf"^Gram size {size} exceeds cap {combin.GRAM_SIZE_CAP}$"):
        N_BY_N_BUILDERS[builder](n, k)


def _scheme_keys(max_n: int) -> list[tuple[int, int, int]]:
    """Every (n, k, j) with 1 <= n <= max_n, 0 <= k <= n and 0 <= j <= min(k, n - k)."""
    return [(n, k, j) for n in range(1, max_n + 1) for k in range(n + 1)
            for j in range(min(k, n - k) + 1)]


class TestExactProjectorCache:
    def test_shared_copy_is_read_only(self, cold):
        E = scheme_projector_exact(6, 3, 1)
        assert not E.flags.writeable and scheme_projector_exact(6, 3, 1) is E
        with pytest.raises(ValueError):
            E[0, 0] = 0
        copy = E.copy()  # a copy is the caller's to modify
        copy[0, 0] = 0
        assert scheme_projector_exact(6, 3, 1)[0, 0] == _projector_coefficients(6, 3, 1)[0]

    def test_numpy_integers_share_the_int_entry(self, cold):
        cache = johnson._exact_projector.cache
        E = scheme_projector_exact(np.int64(5), 2, np.uint8(1))
        assert [tuple(map(type, key)) for key in cache] == [(int, int, int)]
        assert scheme_projector_exact(5, 2, 1) is E
        assert list(cache) == [(5, 2, 1)]

    @pytest.mark.parametrize("args, message", [
        ((6.0, 2, 0), r"^n must be an integer, got 6.0 \(float\)$"),
        ((6, 2, False), r"^j must be an integer, got False \(bool\)$"),
        ((5, 3, 3), r"^scheme_projector: index 3 out of range \[0, 2\]$"),
        ((30, 15, 3), r"^Gram size 155117520 exceeds cap 5000$"),
    ], ids=["float-count", "bool-index", "index-out-of-range", "over-the-size-cap"])
    def test_refused_keys_are_not_kept(self, cold, monkeypatch, args, message):
        cache = johnson._exact_projector.cache
        def unreachable(*args):
            raise AssertionError("built past the size cap")

        for _ in range(2):  # cold, then warm: (6, 2, 0) == (6.0, 2, 0) as a dict key
            held = list(cache)
            with monkeypatch.context() as patch, pytest.raises(ValueError, match=message):
                patch.setattr(combin, "enumerate_patterns", unreachable)
                scheme_projector_exact(*args)
            assert list(cache) == held
            scheme_projector_exact(6, 2, 0)
            scheme_projector_exact(5, 3, 2)
        assert list(cache) == [(6, 2, 0), (5, 3, 2)]

    def test_least_recently_used_evicted_past_the_bound(self, cold, small_caches):
        # after each key the cache holds the most recent keys whose bytes fit
        cache = johnson._exact_projector.cache
        keys = _scheme_keys(6)  # entries of 212 to 3404 bytes
        nbytes = {key: combin._nbytes((key, johnson._exact_projector.__wrapped__(*key)))
                  for key in keys}
        first = scheme_projector_exact(*keys[0])
        for i, key in enumerate(keys[1:], 2):
            scheme_projector_exact(*key)
            kept = keys[:i]
            while sum(map(nbytes.get, kept)) > small_caches:
                kept.pop(0)
            assert list(cache) == kept, key
        assert keys[0] not in cache
        rebuilt = scheme_projector_exact(*keys[0])
        assert rebuilt is not first and np.array_equal(rebuilt, first)

    def test_cold_and_warm_values_are_equal(self, cold):
        # each key once on an empty cache, then again on a cache warmed by the
        # walk, after the (n, k) tables the cached arrays were gathered from are gone
        keys = _scheme_keys(9)
        cold_values = {}
        for key in keys:
            johnson._exact_projector.cache_clear()
            cold_values[key] = scheme_projector_exact(*key)
        for key in keys:
            scheme_projector_exact(*key)
        johnson._scheme.cache_clear()
        for key in keys:
            n, k, j = key
            warm = scheme_projector_exact(*key)
            reference = np.array(_projector_coefficients(n, k, j), dtype=object)[distance_matrix(n, k)]
            assert warm.shape == cold_values[key].shape == reference.shape, key
            assert np.array_equal(warm, cold_values[key]) and np.array_equal(warm, reference), key


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

    def test_identity_class_must_be_the_identity(self):
        # A_1 takes the diagonal entry (0, 0) from A_0: both stay symmetric and cover J
        basis = scheme_basis(4, 2)
        A0, A1 = basis.adjacency[0].copy(), basis.adjacency[1].copy()
        A0[0, 0], A1[0, 0] = 0, 1
        tampered = type(basis)(n=4, k=2, adjacency=(A0, A1, basis.adjacency[2]))
        with pytest.raises(SchemeClosureError, match="A_0 is not the identity"):
            verify_bose_mesner_closure(tampered)

    def test_uncovered_pair_fails(self):
        basis = scheme_basis(5, 2)
        A2 = basis.adjacency[2].copy()
        b = int(np.flatnonzero(A2[0])[0])
        A2[0, b] = A2[b, 0] = 0
        tampered = type(basis)(n=5, k=2, adjacency=(*basis.adjacency[:2], A2))
        with pytest.raises(SchemeClosureError, match="leave a pair uncovered"):
            verify_bose_mesner_closure(tampered)

    def test_unequal_row_sums_fail(self):
        # the pair (0, b) moves from A_1 to A_2 on both sides: still a symmetric partition of J
        basis = scheme_basis(5, 2)
        A1, A2 = basis.adjacency[1].copy(), basis.adjacency[2].copy()
        b = int(np.flatnonzero(A1[0])[0])
        A1[0, b] = A1[b, 0] = 0
        A2[0, b] = A2[b, 0] = 1
        tampered = type(basis)(n=5, k=2, adjacency=(basis.adjacency[0], A1, A2))
        with pytest.raises(SchemeClosureError, match="A_1 has unequal row sums"):
            verify_bose_mesner_closure(tampered)

    def test_product_outside_the_span_fails(self):
        # a 6-cycle as A_1 on the 6 patterns of (4, 2), the other pairs as A_2:
        # a symmetric partition of J with constant row sums, but A_1 A_1 has 1
        # at the pairs two steps apart on the cycle and 0 at those three apart
        A0 = np.eye(6, dtype=np.uint8)
        A1 = np.roll(A0, 1, axis=1) | np.roll(A0, -1, axis=1)
        basis = scheme_basis(4, 2)
        tampered = type(basis)(n=4, k=2, adjacency=(A0, A1, 1 - A0 - A1))
        with pytest.raises(SchemeClosureError,
                           match=r"^A_1 A_1 is not in the span of the scheme for \(n, k\) = \(4, 2\)$"):
            verify_bose_mesner_closure(tampered)

    def test_signed_basis_fails_the_0_1_rule(self):
        # (I, J, -I): signed classes that cover every pair once with row sums
        # 1, 3 and -1, and A_1 A_1 = 3 J is in their span; the derived p_12^1 =
        # v_1 - p_10^1 - p_11^1 would be -1.  The 0/1 rule refuses the basis first
        basis = scheme_basis(3, 1)
        I = np.eye(3, dtype=np.int8)
        tampered = type(basis)(n=3, k=1, adjacency=(I, np.ones_like(I), -I))
        with pytest.raises(SchemeClosureError, match=ZERO_ONE_RULE):
            verify_bose_mesner_closure(tampered)

    @pytest.mark.parametrize("n,k,classes", [
        (4, 2, lambda A0, A1, A2: ()),  # no class at all
        (4, 2, lambda A0, A1, A2: (A0, A1[:5, :5], A2)),  # two shapes
        (4, 2, lambda A0, A1, A2: (A0, A1 / 2, A1 / 2, A2)),  # 0.5 entries that sum to A_1
        (3, 1, lambda A0, A1: (A0, 2 * A1)),  # 2 (J - I)
        (3, 1, lambda A0, A1: (A0, A1.astype(np.int64) * 65537)),  # wraps to A_1 in int16
    ], ids=["empty", "two-shapes", "halves", "doubled", "scaled-65537"])
    def test_malformed_classes_fail_the_0_1_rule(self, n, k, classes):
        basis = scheme_basis(n, k)
        tampered = type(basis)(n=n, k=k, adjacency=classes(*basis.adjacency))
        with pytest.raises(SchemeClosureError, match=ZERO_ONE_RULE):
            verify_bose_mesner_closure(tampered)

    def test_bool_and_float_classes_pass(self):
        basis = scheme_basis(6, 3)
        numbers = verify_bose_mesner_closure(basis)
        for dtype in (bool, np.float32, np.float64):
            copy = type(basis)(n=6, k=3, adjacency=tuple(A.astype(dtype) for A in basis.adjacency))
            assert verify_bose_mesner_closure(copy) == numbers

    @pytest.mark.parametrize("n", range(1, 11))
    def test_intersection_numbers_match_a_count(self, n):
        # p_ij^l = #{z : d(x, z) = i, d(z, y) = j} for any x, y at distance l
        for k in range(n + 1):
            D = distance_matrix(n, k)
            numbers = verify_bose_mesner_closure(scheme_basis(n, k))
            m = min(k, n - k)
            assert sorted(numbers) == [(i, j) for i in range(m + 1) for j in range(m + 1)]
            for l in range(m + 1):
                x, y = np.argwhere(D == l)[0]
                for i in range(m + 1):
                    for j in range(m + 1):
                        count = int(np.sum((D[x] == i) & (D[:, y] == j)))
                        assert numbers[(i, j)][l] == count, (n, k, i, j, l)

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 4), (6, 5), (4, 4)])
    def test_empty_distance_classes(self, n, k):
        # k > n/2: the distances stop at n-k; a basis padded with empty classes
        # up to distance k is no scheme
        basis = scheme_basis(n, k)
        empty = np.zeros_like(basis.adjacency[0])
        padded = type(basis)(n=n, k=k, adjacency=(*basis.adjacency, *[empty] * (2 * k - n)))
        with pytest.raises(SchemeClosureError, match=f"A_{n - k + 1} is empty"):
            verify_bose_mesner_closure(padded)
