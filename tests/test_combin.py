import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from anomdet import combin, gram, johnson, oracle, protocols
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
# the (n, k) grid of `anomdet verify --max-n 10`: 24 cells
VERIFY_GRID_10 = [(n, k) for n in range(2, 11) for k in range(1, min(4, n // 2) + 1)]


@pytest.fixture
def empty_distance_cache():
    combin._distances.clear()
    yield combin._distances
    combin._distances.clear()


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

    def test_indicator_is_a_fresh_array(self, empty_distance_cache):
        # a write into one result reaches neither the cached (n, k) structures
        # built from the indicator nor those built after the write
        oracle._sector_layout.cache_clear()
        index, _, bits = oracle._sector_layout(5, 2)
        expected = [distance_matrix(5, 2).copy(), index.copy(), bits.copy()]
        X = pattern_indicator(5, 2)
        assert X.flags.writeable and pattern_indicator(5, 2) is not X
        X[:] = 1 - X
        assert pattern_indicator(5, 2).sum() == 10 * 2
        cached = [distance_matrix(5, 2), *oracle._sector_layout(5, 2)[::2]]
        empty_distance_cache.clear()
        oracle._sector_layout.cache_clear()
        rebuilt = [distance_matrix(5, 2), *oracle._sector_layout(5, 2)[::2]]
        for arrays in (cached, rebuilt):
            assert all(np.array_equal(a, b) for a, b in zip(arrays, expected))

    def test_shared_copy_is_read_only(self, empty_distance_cache):
        assert len(VERIFY_GRID_10) == 24
        built = {nk: distance_matrix(*nk) for nk in VERIFY_GRID_10}
        rng = random.Random(0)
        for _ in range(5):  # one build per cell, whatever the order of the cells
            cells = VERIFY_GRID_10[:]
            rng.shuffle(cells)
            assert all(distance_matrix(*nk) is built[nk] for nk in cells)
        D = distance_matrix(6, 3)
        assert not D.flags.writeable
        with pytest.raises(ValueError):
            D[0, 0] = 1
        copy = D.copy()  # a copy is the caller's to modify
        copy[0, 0] = 1
        assert distance_matrix(6, 3)[0, 0] == 0

    def test_least_recently_used_evicted_past_32(self, empty_distance_cache):
        cells = [(n, k) for n in range(1, 12) for k in range(n + 1)][:33]
        built = [distance_matrix(*nk) for nk in cells[:32]]
        assert distance_matrix(*cells[0]) is built[0]  # now the most recently used
        distance_matrix(*cells[32])
        assert len(empty_distance_cache) == 32 and cells[1] not in empty_distance_cache
        assert distance_matrix(*cells[0]) is built[0]
        rebuilt = distance_matrix(*cells[1])
        assert rebuilt is not built[1] and np.array_equal(rebuilt, built[1])
        assert cells[2] not in empty_distance_cache  # the next least recently used

    def test_least_recently_used_evicted_past_byte_bound(self, empty_distance_cache, monkeypatch):
        # C(6, 3)^2 = 400 bytes, C(5, 2)^2 = 100 bytes, C(4, 2)^2 = 36 bytes
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 23)  # a 529-byte bound
        large, small = distance_matrix(6, 3), distance_matrix(4, 2)
        assert list(empty_distance_cache) == [(6, 3), (4, 2)]
        assert distance_matrix(6, 3) is large  # 436 bytes; (4, 2) is now the least recently used
        distance_matrix(5, 2)  # 536 bytes: (4, 2) goes
        assert list(empty_distance_cache) == [(6, 3), (5, 2)]
        assert distance_matrix(4, 2) is not small  # 536 bytes again: (6, 3) goes
        assert list(empty_distance_cache) == [(5, 2), (4, 2)]

    def test_newest_entry_always_kept(self, empty_distance_cache, monkeypatch):
        # a 90 000-byte bound; each uint16 D below is about twice that
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 300)
        D = distance_matrix(300, 299)
        assert D.nbytes == 180_000
        assert list(empty_distance_cache) == [(300, 299)]
        assert distance_matrix(300, 299) is D
        E = distance_matrix(299, 298)
        assert list(empty_distance_cache) == [(299, 298)] and distance_matrix(299, 298) is E

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            distance_matrix(3, 4)

    @pytest.mark.parametrize("build", [
        lambda: johnson.scheme_basis(30, 15),
        lambda: johnson.scheme_projector(30, 15, 3),
        lambda: johnson.scheme_projector_exact(30, 15, 3),
        lambda: gram.gram_matrix(gram.ProblemInstance(30, 15, 0.5)),
        lambda: gram.gram_matrix(gram.ProblemInstance(30, 15, Fraction(1, 2))),
        lambda: protocols.verify_unambiguous_certificates(gram.ProblemInstance(30, 15, 0.5)),
    ], ids=["scheme_basis", "scheme_projector", "scheme_projector_exact", "gram_matrix",
            "gram_matrix_exact", "verify_unambiguous_certificates"])
    def test_size_cap_refuses_before_any_build(self, build, monkeypatch):
        # N = C(30, 15) = 155117520: the refusal comes before any pattern or power
        def unreachable(*args):
            raise AssertionError("built past the size cap")

        monkeypatch.setattr(combin, "enumerate_patterns", unreachable)
        monkeypatch.setattr(gram, "_gram_powers", unreachable)
        monkeypatch.setattr(protocols, "_gram_powers", unreachable)
        message = f"^Gram size 155117520 exceeds cap {combin.GRAM_SIZE_CAP}$"
        with pytest.raises(ValueError, match=message):
            build()

    def test_threads_sharing_the_cache(self, empty_distance_cache):
        # 40 cells through a 32-entry cache from 4 threads: constant eviction
        cells = [(n, k) for n in range(1, 10) for k in range(n + 1)][:40]
        reference = {nk: distance_matrix(*nk).copy() for nk in cells}
        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    nk = rng.choice(cells)
                    if not np.array_equal(distance_matrix(*nk), reference[nk]):
                        errors.append(nk)
            except Exception as exc:  # collected for the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(empty_distance_cache) <= 32

