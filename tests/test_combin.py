import random
import sys
import threading
from contextlib import nullcontext
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from anomdet import combin, gram, johnson, oracle, protocols, verify
from anomdet.combin import (
    binomial,
    distance_matrix,
    enumerate_patterns,
    pattern_indicator,
)


def pattern_distance(r: Sequence[int], s: Sequence[int]) -> int:
    """Subset distance k - |r ∩ s| (half the Hamming distance of indicators):
    the brute-force reference for distance_matrix, one pair at a time."""
    if len(r) != len(s):
        raise ValueError(f"patterns have different cardinalities: {len(r)} vs {len(s)}")
    return len(r) - len(set(r) & set(s))


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


def refused_at_n_zero(n: int):
    """Expects the instance rule's ValueError at n = 0, which is no instance, else nothing."""
    return pytest.raises(ValueError, match="^n must be >= 1, got 0$") if n == 0 else nullcontext()


def test_bounded_cache_on_a_toy_builder(monkeypatch):
    monkeypatch.setattr(combin, "_CACHES", [])  # the toy joins a registry of its own
    monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 29)  # an 841-byte bound
    builds = []

    @combin._bounded_cache
    def toy(tag, size):  # an entry of 257 + len(tag) + size bytes (size > 0)
        builds.append(tag)
        return np.zeros(size, np.uint8), size

    a = toy(b"a", 9)
    assert not a[0].flags.writeable and builds == [b"a"]
    # the (key, value) pair, key and value tuples, the bytes object, two ints and the data
    assert combin._nbytes(((b"a", 9), a)) == 3 * sys.getsizeof((1, 2)) + sys.getsizeof(b"a") \
        + 2 * sys.getsizeof(9) + 9 == 267
    for tag in (b"b", b"c"):
        toy(tag, 9)
    # a hit builds nothing and moves its entry to the most recently used end
    assert toy(b"a", 9) is a and builds == [b"a", b"b", b"c"]
    assert list(toy.cache) == [(b"b", 9), (b"c", 9), (b"a", 9)]
    toy(b"d", 9)  # 4 x 267 bytes: the least recently used goes
    assert list(toy.cache) == [(b"c", 9), (b"a", 9), (b"d", 9)]
    toy(b"c", 9)
    # key bytes counted: 3 x 267 + 342 bytes, so the least recently used go
    # until the total fits, (a, 9) and then (d, 9)
    toy(b"e" * 75, 10)
    assert list(toy.cache) == [(b"c", 9), (b"e" * 75, 10)]
    # an entry over the bound on its own, 858 bytes by its key or by its
    # value, is returned read-only, not kept, and evicts nothing
    for key in [(b"g" * 600, 1), (b"h", 600)]:
        value = toy(*key)
        assert not value[0].flags.writeable and builds[-1] == key[0]
        assert list(toy.cache) == [(b"c", 9), (b"e" * 75, 10)]
        assert toy(*key) is not value and builds[-2:] == [key[0]] * 2


def test_bounded_cache_view_is_read_only(monkeypatch):
    # the wrapper's cache reads the entries but cannot change them behind the
    # running byte total: clear, assignment and deletion raise
    monkeypatch.setattr(combin, "_CACHES", [])

    @combin._bounded_cache
    def toy(tag):
        return np.zeros(3, np.uint8)

    value = toy(b"a")
    assert dict(toy.cache) == {(b"a",): value}
    with pytest.raises(AttributeError):
        toy.cache.clear()
    with pytest.raises(TypeError):
        toy.cache[(b"b",)] = value
    with pytest.raises(TypeError):
        del toy.cache[(b"a",)]
    toy.cache_clear()
    assert not toy.cache  # the view follows the entries


def test_bounded_cache_counts_each_entry_once(monkeypatch):
    # a miss counts the bytes of its own key and value, never those of the
    # entries already held, and a hit counts nothing
    monkeypatch.setattr(combin, "_CACHES", [])

    @combin._bounded_cache
    def toy(tag, size):
        return np.zeros(size, np.uint8), (np.ones(size, np.uint8), size)

    def walk(item):  # what _nbytes visits: item, then its tuple members in order
        yield item
        for member in item if isinstance(item, tuple) else ():
            yield from walk(member)

    held = [toy(b"a", 3), toy(b"b", 4)]
    nbytes, counted = combin._nbytes, []
    monkeypatch.setattr(combin, "_nbytes", lambda item: counted.append(item) or nbytes(item))
    assert toy(b"a", 3) is held[0] and counted == []
    value = toy(b"c", 5)
    (key, top), *_ = counted
    assert key == (b"c", 5) and top is value
    assert [id(item) for item in counted] == [id(item) for item in walk(counted[0])]
    assert list(toy.cache) == [(b"b", 4), (b"a", 3), (b"c", 5)]


def test_bounded_cache_keeps_what_a_reference_lru_keeps(monkeypatch):
    # random traffic over arrays of 0 to 475 bytes, each entry counted by _nbytes
    # with its int key: the running byte total keeps what an LRU that re-sums
    # its bytes keeps
    monkeypatch.setattr(combin, "_CACHES", [])
    monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 40)  # a 1600-byte bound

    @combin._bounded_cache
    def toy(size):
        return np.zeros(size, np.uint8)

    rng, model = random.Random(0), {}
    for _ in range(2000):
        size = 25 * rng.randrange(20)
        toy(size)
        if size in model:
            model[size] = model.pop(size)
        else:
            model[size] = combin._nbytes(((size,), np.zeros(size, np.uint8)))
            while sum(model.values()) > 1600:
                del model[next(iter(model))]
        assert [key for key, in toy.cache] == list(model)
    # cache_clear empties the byte total too: a 1532-byte entry fits again
    toy.cache_clear()
    toy(1400)
    assert list(toy.cache) == [(1400,)]


def test_bounded_cache_counts_a_key_built_twice_once(monkeypatch):
    # the first build of (40,) asks for (40,) again, as a second thread would:
    # the key is stored twice, and its 172 bytes are held once (50,) adds 182
    monkeypatch.setattr(combin, "_CACHES", [])
    monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 20)  # a 400-byte bound
    again = [True]

    @combin._bounded_cache
    def toy(size):
        if again and size == 40:
            again.pop()
            toy(size)
        return np.zeros(size, np.uint8)

    toy(40)
    toy(50)
    assert list(toy.cache) == [(40,), (50,)]


def test_nbytes_counts_fractions_and_walks_containers():
    # an array counts its data; a Fraction itself and its two ints; a tuple,
    # NamedTuple, list or dict itself and its members, dict keys included;
    # anything else, an int, float, bool or bytes, its sys.getsizeof
    size, half = sys.getsizeof, Fraction(1, 2)
    assert combin._nbytes(half) == size(half) + size(1) + size(2)
    assert combin._nbytes(Fraction(2**100, 3)) == size(half) + size(2**100) + size(3)
    for scalar in (1, 2.0, True, 2**100, b"ab"):
        assert combin._nbytes(scalar) == size(scalar) > 0
    items = [1, 2.0, True, [3], {4: 5.0}]
    assert combin._nbytes(tuple(items)) == size(tuple(items)) + sum(map(size, items)) \
        + size(3) + size(4) + size(5.0)
    inner = (np.zeros(5, np.uint8), half)
    nested = [half, {b"ab": inner}]
    assert combin._nbytes(inner) == size(inner) + 5 + combin._nbytes(half)
    assert combin._nbytes(nested) == size(nested) + combin._nbytes(half) + size(nested[1]) \
        + size(b"ab") + combin._nbytes(inner)
    em = johnson.eigenmatrices(5, 2)
    assert combin._nbytes(em) == size(em) + size(5) + size(2) + combin._nbytes(em.P) \
        + combin._nbytes(em.Q)
    assert combin._nbytes(em.P) == size(em.P) + sum(map(combin._nbytes, em.P)) > 0


def test_entries_of_python_scalars_are_bounded_by_bytes(monkeypatch, cold):
    # ints and floats count their bytes, so plain tuples fill the bound like
    # arrays do, and no entry count bounds a cache: 2000 small entries stay
    monkeypatch.setattr(combin, "_CACHES", [])

    @combin._bounded_cache
    def toy(i):  # (i,) -> (i, float(i)): 240 bytes with the key and the pair, i > 0
        return i, float(i)

    for i in range(1, 2001):
        toy(i)
    assert combin._nbytes(((1,), toy(1))) == 240 and len(toy.cache) == 2000
    # the package's entries of plain scalars weigh what they hold
    feasible, weights = entry = protocols._dual_witness(8, 3)
    assert combin._nbytes(entry) == sys.getsizeof(entry) + sys.getsizeof(feasible) \
        + sys.getsizeof(weights) + 4 * sys.getsizeof(1.0)
    numbers = verify._intersection_numbers(8, 3)
    assert combin._nbytes(numbers) > sys.getsizeof(numbers) > 0
    monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 40)  # a 1600-byte bound: 6 entries fit
    toy.cache_clear()
    for i in range(1, 101):
        toy(i)
    assert list(toy.cache) == [(i,) for i in range(95, 101)]


def test_cached_records_are_read_only_and_counted(cold):
    # the SRM result and the (n, k) table are tuples, so a miss sees their members
    result = verify._srm(4, 2, 0.5)
    assert verify._srm(4, 2, 0.5) is result and isinstance(result, tuple)
    assert not result.diagonal.flags.writeable and not result.eigenvalues.flags.writeable
    assert combin._nbytes(result) == sys.getsizeof(result) + sys.getsizeof(result.success) \
        + result.diagonal.nbytes + result.eigenvalues.nbytes == 184
    johnson.eigenmatrices(4, 2)
    (key, table), = johnson._scheme.cache.items()
    assert key == (4, 2) and combin._nbytes(table) > combin._nbytes(table[0]) > 0


class TestDistanceMatrix:
    @pytest.mark.parametrize("n,k", ALL_NK)
    def test_matches_pattern_distance(self, n, k):
        with refused_at_n_zero(n):
            pats = enumerate_patterns(n, k)
            D = distance_matrix(n, k)
            reference = [[pattern_distance(r, s) for s in pats] for r in pats]
            assert D.shape == (len(pats), len(pats))
            assert np.issubdtype(D.dtype, np.integer)
            assert D.tolist() == reference

    @pytest.mark.parametrize("n,k", ALL_NK)
    def test_indicator_rows_mark_patterns(self, n, k):
        with refused_at_n_zero(n):
            X = pattern_indicator(n, k)
            rows = [tuple(int(p) + 1 for p in np.flatnonzero(x)) for x in X]
            assert rows == enumerate_patterns(n, k)

    def test_indicator_is_a_fresh_array(self, cold):
        # a write into one result reaches neither the cached (n, k) structures
        # built from the indicator nor those built after the write
        index, _, bits = oracle._sector_layout(5, 2)
        expected = [distance_matrix(5, 2).copy(), index.copy(), bits.copy()]
        X = pattern_indicator(5, 2)
        assert X.flags.writeable and pattern_indicator(5, 2) is not X
        X[:] = 1 - X
        assert pattern_indicator(5, 2).sum() == 10 * 2
        cached = [distance_matrix(5, 2), *oracle._sector_layout(5, 2)[::2]]
        combin._clear_caches()
        rebuilt = [distance_matrix(5, 2), *oracle._sector_layout(5, 2)[::2]]
        for arrays in (cached, rebuilt):
            assert all(np.array_equal(a, b) for a, b in zip(arrays, expected))

    def test_shared_copy_is_read_only(self, cold):
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

    def test_least_recently_used_evicted_past_the_bound(self, cold, small_caches):
        # the first `size` cells fit the bound; then the least recently used go,
        # the first cell, used again, not among them, until the total fits
        cache = combin._distances.cache
        cells = [(n, k) for n in range(1, 12) for k in range(min(n, 2) + 1)]
        nbytes = {nk: combin._nbytes((nk, combin._distances.__wrapped__(*nk))) for nk in cells}
        size = max(i for i in range(len(cells)) if sum(map(nbytes.get, cells[:i])) <= small_caches)
        built = [distance_matrix(*nk) for nk in cells[:size]]
        assert list(cache) == cells[:size]
        assert distance_matrix(*cells[0]) is built[0]  # now the most recently used
        distance_matrix(*cells[size])
        kept = [*cells[1:size], cells[0], cells[size]]
        while sum(map(nbytes.get, kept)) > small_caches:
            kept.pop(0)
        assert list(cache) == kept and cells[1] not in cache
        assert distance_matrix(*cells[0]) is built[0]
        rebuilt = distance_matrix(*cells[1])
        assert rebuilt is not built[1] and np.array_equal(rebuilt, built[1])
        assert cells[2] not in cache  # the next least recently used

    def test_least_recently_used_evicted_past_byte_bound(self, cold, monkeypatch):
        # D's C(n, k)^2 bytes and 168 for its key and tuples: 568 bytes for
        # (6, 3), 268 for (5, 2), 204 for (4, 2)
        cache = combin._distances.cache
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 30)  # a 900-byte bound
        large, small = distance_matrix(6, 3), distance_matrix(4, 2)
        assert [combin._nbytes(entry) for entry in cache.items()] == [568, 204]
        assert distance_matrix(6, 3) is large  # 772 bytes; (4, 2) is now the least recently used
        distance_matrix(5, 2)  # 1040 bytes: (4, 2) goes
        assert list(cache) == [(6, 3), (5, 2)]
        assert distance_matrix(4, 2) is not small  # 1040 bytes again: (6, 3) goes
        assert list(cache) == [(5, 2), (4, 2)]

    def test_newest_entry_always_kept(self, cold, monkeypatch):
        # a 90 000-byte bound; D holds m = min(k, n - k) = 1 in uint8, so a D
        # one pattern below the Gram size cap, 89 401 bytes and 168 for its key
        # and tuples, fills the bound alone and two do not fit; a D at the cap,
        # 90 168 bytes with its key, is built and used, not kept
        cache = combin._distances.cache
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 300)
        D = distance_matrix(299, 298)
        assert D.dtype == np.uint8 and D.nbytes == 89_401
        assert list(cache) == [(299, 298)]
        assert distance_matrix(299, 298) is D
        E = distance_matrix(298, 297)
        assert list(cache) == [(298, 297)] and distance_matrix(298, 297) is E
        assert distance_matrix(300, 299).nbytes == 90_000 and list(cache) == [(298, 297)]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            distance_matrix(3, 4)

    @pytest.mark.parametrize("n, k", [(6.0, 2), (6, 2.0), (np.float64(6), 2), (6, Fraction(2)),
                                      (True, 1), (1, True)])
    def test_rejects_non_integer_counts_cold_and_warm(self, cold, n, k):
        # 6.0 == 6 as a dict key: a cached (6, 2) answered distance_matrix(6.0, 2),
        # which raised TypeError on a cold cache
        field = "k" if type(n) is int else "n"
        for _ in range(2):  # cold, then warm
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
                distance_matrix(n, k)
            D = distance_matrix(int(n), int(k))
        assert distance_matrix(np.int64(int(n)), np.uint8(int(k))) is D  # numpy integers pass

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

    def test_threads_sharing_the_cache(self, cold, small_caches):
        # cells of 5/4 as many bytes as the cache holds, from 4 threads: constant eviction
        cells = [(n, k) for n in range(1, 12) for k in range(min(n, 2) + 1)]
        nbytes = [combin._nbytes((nk, combin._distances.__wrapped__(*nk))) for nk in cells]
        cells = cells[:max(i for i in range(len(cells))
                           if sum(nbytes[:i]) <= small_caches * 5 // 4)]
        assert sum(nbytes[:len(cells)]) > small_caches
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
        cache = combin._distances.cache
        assert errors == [] and 0 < sum(map(combin._nbytes, cache.items())) <= small_caches

