import numpy as np
import pytest

from anomdet.combin import (
    binomial,
    distance_matrix,
    enumerate_patterns,
    pattern_distance,
    pattern_indicator,
)


class TestBinomial:
    def test_basic(self):
        assert binomial(4, 2) == 6
        assert binomial(5, 2) == 10  # vertex count of the (5, 2) scheme

    def test_out_of_range_is_zero(self):
        assert binomial(7, -1) == 0
        assert binomial(3, 5) == 0
        # multiplicity at j = 0 must come out as 1
        assert binomial(7, 0) - binomial(7, -1) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_vandermonde(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert sum(
                    binomial(k, i) * binomial(n - k, i) for i in range(k + 1)
                ) == binomial(n, k)


class TestPatterns:
    def test_enumerate_k1(self):
        assert enumerate_patterns(4, 1) == [(1,), (2,), (3,), (4,)]

    def test_enumerate_k2(self):
        pats = enumerate_patterns(4, 2)
        assert len(pats) == 6
        assert {(3, 4), (2, 4), (1, 2)} <= set(pats)
        assert pats == sorted(pats)

    def test_enumerate_k0(self):
        assert enumerate_patterns(5, 0) == [()]

    def test_enumerate_rejects_bad_k(self):
        with pytest.raises(ValueError):
            enumerate_patterns(3, 4)


class TestPatternDistance:
    def test_paper_examples(self):
        assert pattern_distance((3, 4), (2, 4)) == 1
        assert pattern_distance((3, 4), (1, 2)) == 2

    def test_self_distance(self):
        assert pattern_distance((1, 5, 9), (1, 5, 9)) == 0

    def test_mismatched_cardinality_rejected(self):
        with pytest.raises(ValueError):
            pattern_distance((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (7, 3)])
    def test_metric_exhaustive(self, n, k):
        pats = enumerate_patterns(n, k)
        for r in pats:
            for s in pats:
                d = pattern_distance(r, s)
                assert 0 <= d <= k
                assert d == pattern_distance(s, r)
                assert (d == 0) == (r == s)
                for t in pats:
                    assert d <= pattern_distance(r, t) + pattern_distance(t, s)

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (8, 4)])
    def test_distance_class_sizes(self, n, k):
        pats = enumerate_patterns(n, k)
        fixed = pats[0]
        for i in range(k + 1):
            count = sum(1 for s in pats if pattern_distance(fixed, s) == i)
            assert count == binomial(k, i) * binomial(n - k, i)


ALL_NK = [(n, k) for n in range(9) for k in range(n + 1)]


class TestDistanceMatrix:
    @pytest.mark.parametrize("n,k", ALL_NK)
    def test_matches_pattern_distance(self, n, k):
        pats = enumerate_patterns(n, k)
        D = distance_matrix(n, k)
        reference = [[pattern_distance(r, s) for s in pats] for r in pats]
        assert D.shape == (len(pats), len(pats))
        assert np.issubdtype(D.dtype, np.integer)
        assert D.tolist() == reference

    @pytest.mark.parametrize("n,k", ALL_NK)
    def test_indicator_rows_mark_patterns(self, n, k):
        X = pattern_indicator(n, k)
        rows = [tuple(int(p) + 1 for p in np.flatnonzero(x)) for x in X]
        assert rows == enumerate_patterns(n, k)

    def test_indicator_is_read_only(self):
        X = pattern_indicator(5, 2)
        with pytest.raises(ValueError):
            X[0, 0] = 1
        assert pattern_indicator(5, 2) is X  # built once per (n, k)

    def test_shared_copy_is_read_only(self):
        D = distance_matrix(6, 3)
        assert not D.flags.writeable
        assert distance_matrix(6, 3) is D  # one build for repeated (n, k)
        with pytest.raises(ValueError):
            D[0, 0] = 1
        assert distance_matrix(6, 3)[0, 0] == 0
        copy = D.copy()  # a copy is the caller's to modify
        copy[0, 0] = 1
        assert distance_matrix(6, 3)[0, 0] == 0
        assert distance_matrix(5, 2) is not D  # the cache holds the last (n, k) only
        assert distance_matrix(6, 3) is not D and np.array_equal(distance_matrix(6, 3), D)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            distance_matrix(3, 4)

