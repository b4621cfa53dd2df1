import ast
import dataclasses
import math
import pathlib
from functools import reduce

import numpy as np
import pytest

from anomdet import combin, oracle, verify
from anomdet.combin import binomial, enumerate_patterns
from anomdet.gram import GRAM_SIZE_CAP, ProblemInstance, gram_matrix
from anomdet.oracle import (
    SUPPORT_THRESHOLD,
    _isometry,
    _support_inverse_sqrt,
    _universal_srm,
    all_hypothesis_states,
    srm_success_oracle,
    universal_holevo_violation,
    universal_success_oracle,
)
from anomdet.universal import UniversalInstance, universal_success


def _kron_folds(n, k, c):
    """The hypothesis states as literal np.kron folds over all n positions (2^n wide)."""
    phi0 = np.array([1.0, 0.0])
    phi1 = np.array([c, math.sqrt(max(0.0, 1 - c * c))])
    return np.array([reduce(np.kron, [phi1 if pos in pat else phi0 for pos in range(1, n + 1)])
                     for pat in enumerate_patterns(n, k)])


def _sector(n, k):
    """Mask of the 2^n strings of weight <= k."""
    return np.array([bin(x).count("1") <= k for x in range(2**n)])


def _pad_with_zero_columns(V):
    """V with all-zero columns put in front of, between and after its columns."""
    padded = np.zeros((V.shape[0], 3 * V.shape[1] + 1))
    padded[:, 1::3] = V
    return padded


def _rho(pattern, n, d):
    """Averaged hypothesis rho_S = B_S B_S^T / r, as the universal oracle builds it."""
    B = _isometry(pattern, n, d)
    return B @ B.T / B.shape[1]


class TestHypothesisStates:
    def test_single_system(self):
        states = all_hypothesis_states(ProblemInstance(1, 1, 0.6))
        assert np.allclose(states, [[0.6, 0.8]])

    def test_unit_norm(self):
        states = all_hypothesis_states(ProblemInstance(6, 2, 0.37))
        assert np.abs(np.linalg.norm(states, axis=1) - 1).max() < 1e-12

    def test_identical_at_full_overlap(self):
        inst = ProblemInstance(4, 2, 1.0)
        states = all_hypothesis_states(inst)
        assert np.abs(states - states[0]).max() < 1e-14

    def test_overlaps_reproduce_gram(self):
        for n, k in [(4, 2), (6, 3), (7, 2)]:
            for c in (0.2, 0.5, 0.8):
                inst = ProblemInstance(n, k, c)
                V = all_hypothesis_states(inst)
                G = np.array(gram_matrix(inst))
                assert np.abs(V @ V.T - G).max() < 1e-12

    def test_distance_two_overlap(self):
        states = all_hypothesis_states(ProblemInstance(4, 2, 0.5))
        pats = enumerate_patterns(4, 2)
        a = states[pats.index((3, 4))]
        b = states[pats.index((1, 2))]
        assert abs(float(a @ b) - 0.5**4) < 1e-14

    def test_size_cap(self):
        with pytest.raises(ValueError, match="all_hypothesis_states: n=15 exceeds cap"):
            all_hypothesis_states(ProblemInstance(15, 2, 0.5))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_kron_fold_bitwise(self, n):
        for k in range(n + 1):
            for c in (0.0, 0.37, 0.8, 1.0):
                inst = ProblemInstance(n, k, c)
                phi0 = np.array([1.0, 0.0])
                phi1 = np.array([c, math.sqrt(max(0.0, 1 - c * c))])
                folds = []
                for pat in enumerate_patterns(n, k):
                    state = np.array([1.0])
                    for pos in range(1, n + 1):
                        state = np.kron(state, phi1 if pos in pat else phi0)
                    folds.append(state)
                folds, sector = np.array(folds), _sector(n, k)
                assert not folds[:, ~sector].any()
                assert np.array_equal(all_hypothesis_states(inst), folds[:, sector])

    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_matches_kron_fold_bitwise_at_large_n(self, n):
        # n = 12 reaches column weights 2^11, the widest stack (C(12, 6) rows)
        # at k = 6 and a support of 2^12 at k = n
        for k in (0, 1, 2, 6, n - 1, n) if n == 12 else range(5):
            for c in (0.37, 1.0):
                folds, sector = _kron_folds(n, k, c), _sector(n, k)
                assert not folds[:, ~sector].any(), (k, c)
                states = all_hypothesis_states(ProblemInstance(n, k, c))
                assert np.array_equal(states, folds[:, sector]), (k, c)

    @pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (4, 2), (5, 1), (6, 3), (7, 2)])
    def test_column_order(self, n, k):
        # column j is the j-th string of weight <= k in ascending order,
        # position 1 the most significant bit
        c, s = 0.6, 0.8
        strings = [x for x in range(2**n) if bin(x).count("1") <= k]
        states = all_hypothesis_states(ProblemInstance(n, k, c))
        assert states.shape == (binomial(n, k), len(strings))
        assert len(strings) == sum(binomial(n, j) for j in range(k + 1))
        for row, pat in zip(states, enumerate_patterns(n, k)):
            for amplitude, x in zip(row, strings):
                ones = {p for p in range(1, n + 1) if x >> (n - p) & 1}
                expected = c ** (k - len(ones)) * s ** len(ones) if ones <= set(pat) else 0.0
                assert amplitude == pytest.approx(expected, rel=1e-15, abs=0.0), (pat, x)

    def test_sector_layout_read_only_and_built_once(self, cold, monkeypatch):
        cache = oracle._sector_layout.cache
        builds, indicator = [], oracle.pattern_indicator
        monkeypatch.setattr(oracle, "pattern_indicator",
                            lambda n, k: builds.append((n, k)) or indicator(n, k))
        first = all_hypothesis_states(ProblemInstance(7, 3, 0.3))
        layout = cache[7, 3]
        second = all_hypothesis_states(ProblemInstance(7, 3, 0.6))
        assert builds == [(7, 3)] and list(cache) == [(7, 3)]
        assert oracle._sector_layout(7, 3) is layout and builds == [(7, 3)]
        index, width, bits = layout
        assert first.shape == second.shape == (35, width) and index.shape == (35, 8)
        assert index.dtype == np.uint16  # the smallest that holds its largest entry, 2183
        assert bits.shape == (3, 8)
        for table in (index, bits):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0
        assert first.flags.writeable  # each call returns a fresh stack

    def test_sector_layout_cache_keeps_its_bounds(self, cold, small_caches):
        # the (n, 1) layout holds an n x 2 uint8 index (up to n = 15), a 1 x 2
        # int64 bit table and M: 276 + 2 n bytes with its key and tuples
        cache = oracle._sector_layout.cache
        for n in range(1, 15):  # 4074 bytes fit the 4096-byte bound
            oracle._sector_layout(n, 1)
        assert list(cache) == [(n, 1) for n in range(1, 15)]
        assert [combin._nbytes(entry) for entry in cache.items()] == [
            276 + 2 * n for n in range(1, 15)]
        oracle._sector_layout(1, 1)  # now the most recently used
        oracle._sector_layout(15, 1)  # 306 more bytes: (2, 1) and (3, 1) go
        assert [key[0] for key in cache] == [*range(4, 15), 1, 15]
        # a uint32 index, 12 636 bytes on its own: returned read-only, not kept,
        # and nothing evicted
        index, _, bits = layout = oracle._sector_layout(40, 2)
        assert index.dtype == np.uint32 and combin._nbytes(layout) == 12636
        assert not index.flags.writeable and not bits.flags.writeable
        assert [key[0] for key in cache] == [*range(4, 15), 1, 15]
        assert oracle._sector_layout(40, 2)[0] is not index


def _generic_stack(seed, N, M):
    """N >= 3 random unit rows of width M: a dense support pattern, and a Gram
    that its basis (the eigenvectors of M J) does not diagonalise.  (Two
    unit rows have a Gram a I + b J, which that basis does diagonalise.)"""
    W = np.random.default_rng(seed).normal(size=(N, M))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _pattern_basis(V):
    """V without its all-zero columns, and eigh's eigenvectors of P P^T, P its support."""
    live = V[:, V.any(axis=0)]
    P = (live != 0).astype(float)
    return live, np.linalg.eigh(P @ P.T)[1]


def _steps(W, sigma, N, sizes=1):
    """success, diagonal W sigma and sigma^2 repeated by group size, ascending,
    zero-padded to N; W = U o U and sizes 1 for one singular value per column of U."""
    d = W @ sigma
    squares = np.repeat(sigma * sigma, sizes)
    return np.sum(d**2) / N, d, np.sort(np.pad(squares, (N - squares.size, 0)))


def _class_blocks(V, U):
    """The live stack's column classes by support size, ascending: f_c, the
    class's first nonzero in row-major order, and T_c = U^T P_c, the blocks of
    one product T = U^T P with P's columns sorted by class."""
    live = V[:, V.any(axis=0)]
    P = live != 0
    column_class = np.unique(P.sum(axis=0), return_inverse=True)[1]
    T = U.T @ P[:, np.argsort(column_class, kind="stable")].astype(float)
    f = [live.ravel()[np.flatnonzero(P & (column_class == c))[0]]
         for c in range(column_class.max() + 1)]
    return np.array(f), np.split(T, np.cumsum(np.bincount(column_class))[:-1], axis=1)


def _grouped_basis(V, U):
    """(W, theta, sizes, f) for the basis U of V's pattern: d_c = diag(T_c T_c^T),
    the eigenvectors grouped by their rounded class vectors, the columns theta
    of rint(d_c) in lexicographic order, and W[:, g] the sum of U[:, r]^2 over
    the group's r."""
    f, blocks = _class_blocks(V, U)
    D = np.array([np.diag(T @ T.T) for T in blocks])
    theta, group, sizes = np.unique(np.rint(D), axis=1, return_inverse=True, return_counts=True)
    return (U * U) @ (group[:, None] == np.arange(sizes.size)), theta, sizes, f


def _class_steps(V):
    """The basis path: U from P P^T, eigenvectors grouped by rint(d_c), one
    sigma_g = sqrt(sum_c f_c^2 theta_c,g) per group and the diagonal W sigma."""
    W, theta, sizes, f = _grouped_basis(V, _pattern_basis(V)[1])
    return _steps(W, np.sqrt((f * f) @ theta), V.shape[0], sizes)


def _svd_steps(V):
    """One thin SVD of the live stack: V without its all-zero columns."""
    X, sigma, _ = np.linalg.svd(V[:, V.any(axis=0)], full_matrices=False)
    return _steps(X * X, sigma, V.shape[0])


def _assert_same_bits(result, success, diagonal, eigenvalues):
    assert result.success == success
    assert result.diagonal.tobytes() == diagonal.tobytes()
    assert result.eigenvalues.tobytes() == eigenvalues.tobytes()


def _fail_the_certificate(monkeypatch):
    """Every stack takes the thin SVD: each support basis entry is read with an
    infinite spread s_c, so that no certificate passes."""
    build = oracle._support_basis

    def planted(shape, pattern):
        *entry, spread, off = build(shape, pattern)
        return (*entry, np.full_like(spread, math.inf), off)

    monkeypatch.setattr(oracle, "_support_basis", planted)


def _measurement_vectors(V):
    """Rows are the SRM vectors |m_r> = sum_s (S^+)_{sr} |Psi_s>, S = sqrt(V V^T),
    from an eigendecomposition of V V^T independent of the oracle's."""
    vals, U = np.linalg.eigh(V @ V.T)
    root = np.sqrt(np.clip(vals, 0.0, None))
    inv = np.where(root > 1e-10, 1.0 / np.where(root > 1e-10, root, 1.0), 0.0)
    return ((U * inv) @ U.T) @ V


class TestSrmOracle:
    def test_two_state_discrimination(self):
        # symmetric pure-state pair with overlap c^2
        for c in (0.3, 0.5, 0.9):
            result = srm_success_oracle(
                all_hypothesis_states(ProblemInstance(2, 1, c))
            )
            assert result.success == pytest.approx(
                (1 + math.sqrt(1 - c**4)) / 2, abs=1e-12
            )

    def test_povm_completeness_on_span(self):
        inst = ProblemInstance(5, 2, 0.5)
        V = all_hypothesis_states(inst)
        result = srm_success_oracle(V)
        M = _measurement_vectors(V)
        assert np.abs(np.diag(M @ V.T) - result.diagonal).max() < 1e-12  # <m_r|Psi_r> = S_rr
        completeness = M.T @ M  # sum_r |m_r><m_r| in the ambient space
        # must act as identity on the span of the states
        assert np.abs(completeness @ V.T - V.T).max() < 1e-9

    @pytest.mark.parametrize("c", [0.3, 0.8, 1.0])
    def test_diagonal_is_that_of_the_gram_square_root(self, c):
        V = all_hypothesis_states(ProblemInstance(6, 3, c))
        result = srm_success_oracle(V)
        if c == 1.0:
            # G = J and S = J / sqrt(N) exactly; eigh's square root of the
            # N - 1 zero eigenvalues is 1.3e-8 off it here
            assert np.abs(result.diagonal - 1 / math.sqrt(V.shape[0])).max() < 1e-14
            return
        vals, vecs = np.linalg.eigh(V @ V.T)
        sqrt_gram = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        assert np.abs(result.diagonal - np.diag(sqrt_gram)).max() < 1e-12

    def test_born_rule_conditional_success(self):
        V = all_hypothesis_states(ProblemInstance(4, 2, 0.5))
        result = srm_success_oracle(V)
        M = _measurement_vectors(V)
        assert np.abs(np.diag(M @ V.T) - result.diagonal).max() < 1e-12  # <m_r|Psi_r> = S_rr
        # outcome distribution of the POVM when hypothesis 0 is true
        probs = (M @ V[0]) ** 2
        assert abs(probs.sum() - 1) < 1e-12
        assert abs(probs[0] - result.diagonal[0] ** 2) < 1e-12
        assert abs(probs[0] - 0.947662716995912) < 1e-10

    @pytest.mark.parametrize("n, k, c", [(6, 2, 0.6), (8, 3, 0.3), (10, 4, 0.9)])
    def test_all_zero_columns_do_not_change_the_result(self, n, k, c):
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        padded = _pad_with_zero_columns(V)
        assert padded.shape[1] > V.shape[1]
        full, sector = srm_success_oracle(padded), srm_success_oracle(V)
        assert abs(full.success - sector.success) <= 1e-14
        assert np.abs(full.diagonal - sector.diagonal).max() <= 1e-14

    @pytest.mark.parametrize("n, k, c", [(1, 1, 0.6), (6, 2, 0.6), (8, 3, 0.3), (8, 4, 0.75),
                                         (10, 4, 0.9), (12, 3, 0.5), (6, 2, 0.0), (8, 3, 1.0)])
    def test_kron_fold_and_sector_stack_agree(self, n, k, c):
        full = srm_success_oracle(_kron_folds(n, k, c))
        sector = srm_success_oracle(all_hypothesis_states(ProblemInstance(n, k, c)))
        assert abs(full.success - sector.success) <= 1e-14
        assert np.abs(full.diagonal - sector.diagonal).max() <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_states(self, bad):
        V = all_hypothesis_states(ProblemInstance(4, 2, 0.5))
        V[2, 3] = bad
        with pytest.raises(ValueError, match="states have NaN or infinite"):
            srm_success_oracle(V)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry_in_a_zero_column(self, bad):
        # the whole stack is checked, columns that are otherwise all zero too
        V = all_hypothesis_states(ProblemInstance(6, 2, 0.5))
        padded = _pad_with_zero_columns(V)
        dead = np.flatnonzero(~padded.any(axis=0))
        assert dead.size
        padded[3, dead[0]] = bad
        with pytest.raises(ValueError, match="states have NaN or infinite"):
            srm_success_oracle(padded)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_rejects_gram_that_overflows(self):
        # finite states whose inner products overflow to inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            srm_success_oracle(np.full((2, 2), 1e200))

    @pytest.mark.parametrize("states, entry", [
        ([[1e200, 0.0], [1e200, 0.0]], math.inf),
        ([[1e200, 0.0], [-1e200, 0.0]], -math.inf),
    ], ids=["inf", "-inf"])
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_rejects_non_finite_gram(self, states, entry):
        V = np.array(states)
        assert (V @ V.T == entry).any()
        with pytest.raises(ValueError, match="^srm_success_oracle: matrix has NaN or infinite"):
            srm_success_oracle(V)

    def test_rejects_nan_gram(self, monkeypatch):
        # squares of finite states overflow to +inf, never to NaN; a NaN squared
        # norm, the diagonal of the Gram, is planted through the row norms' einsum
        monkeypatch.setattr(oracle.np, "einsum", lambda *operands: np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="^srm_success_oracle: matrix has NaN or infinite"):
            srm_success_oracle(np.eye(2))

    def test_nan_in_the_certificate_falls_back_to_the_svd(self, cold, monkeypatch):
        # a NaN planted in the entry's o_c, the norm of offdiag(T_c T_c^T), or in
        # its s_c, the spread of d_c about its group's value, fails the certificate
        V = all_hypothesis_states(ProblemInstance(4, 2, 0.5))
        _assert_same_bits(srm_success_oracle(V), *_class_steps(V))
        build = oracle._support_basis
        for term in (-1, -2):  # o_c, s_c

            def planted(shape, pattern):
                entry = list(build(shape, pattern))
                entry[term] = np.where(np.arange(entry[term].size) == 0, math.nan, entry[term])
                return tuple(entry)

            monkeypatch.setattr(oracle, "_support_basis", planted)
            _assert_same_bits(srm_success_oracle(V), *_svd_steps(V))

    @pytest.mark.parametrize("c", [0.999, 0.9999, 0.99999, 1.0])
    def test_eigenvalues_are_non_negative(self, cold, monkeypatch, c):
        # squared singular values, on the basis path and on the SVD path; an
        # eigh of the Gram gave eigenvalues down to -1.4e-13 at c >= 0.9999
        for basis in (True, False):
            if not basis:  # no certificate passes: a thin SVD for every stack
                _fail_the_certificate(monkeypatch)
            for n in range(2, 11):
                for k in range(1, n):
                    w = srm_success_oracle(all_hypothesis_states(ProblemInstance(n, k, c))).eigenvalues
                    assert w.shape == (binomial(n, k),), (basis, n, k)
                    assert w[0] >= 0 and (np.diff(w) >= 0).all(), (basis, n, k)

    @pytest.mark.parametrize("n, k, c", [(2, 1, 0.5), (6, 2, 0.6), (8, 3, 1.0), (9, 4, 0.3),
                                         (10, 4, 0.0), (10, 5, 0.8)])
    def test_fortran_ordered_stack_gives_the_same_bits(self, n, k, c):
        # the oracle reads the entries by their row-major flat positions in either layout
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        F = np.asfortranarray(V)
        assert F.flags.f_contiguous and not F.flags.c_contiguous
        a, b = srm_success_oracle(V), srm_success_oracle(F)
        assert a.success == b.success and a.diagonal.tobytes() == b.diagonal.tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 4), ()])
    def test_rejects_stack_that_is_not_2d(self, shape):
        with pytest.raises(ValueError, match="2-D stack"):
            srm_success_oracle(np.ones(shape))

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="no states"):
            srm_success_oracle(np.ones((0, 4)))

    def test_size_cap(self):
        srm_success_oracle(np.ones((3, 1)))
        with pytest.raises(ValueError, match="exceed cap"):
            srm_success_oracle(np.ones((GRAM_SIZE_CAP + 1, 1)))

    @pytest.mark.parametrize("states, row, norm", [
        (2 * np.eye(2), 0, 4.0),
        (np.zeros((2, 3)), 0, 0.0),
        ([[1, 0], [0, 0]], 1, 0.0),
    ], ids=["doubled", "zero", "one-zero-row"])
    def test_rejects_states_that_are_not_unit_vectors(self, states, row, norm):
        # the success formula assumes unit-norm states; these gave 4.0, 0.0 and 0.5
        message = f"^srm_success_oracle: row {row} has squared norm {norm}, not 1$"
        with pytest.raises(ValueError, match=message):
            srm_success_oracle(states)

    def test_rejects_complex_states(self):
        # dropping the imaginary part would give 0.417; the SRM value is 0.854
        with pytest.raises(ValueError, match="^srm_success_oracle: complex entries"):
            srm_success_oracle([[1, 0], [1 / math.sqrt(2), 1j / math.sqrt(2)]])

    def test_conditional_success_is_hypothesis_independent(self):
        result = srm_success_oracle(all_hypothesis_states(ProblemInstance(6, 2, 0.6)))
        d = result.diagonal
        assert d.max() - d.min() < 1e-10

    @pytest.mark.parametrize("c", [0.0, 0.37, 0.9, 1.0])
    def test_bit_identical_to_plain_reference(self, c):
        # hypothesis states, the plain steps: drop the all-zero columns, U from
        # eigh of P P^T (P the support pattern), the columns in classes by
        # support size, T_c = U^T P_c, d_c = diag(T_c T_c^T), f_c the class's
        # first nonzero, sigma = sqrt(sum_c f_c^2 d_c), diagonal (U o U) sigma,
        # mean square, sigma^2 sorted; a stack without the symmetry: a thin
        # SVD of the stack
        for n in range(2, 11):
            for k in range(1, min(4, n // 2) + 1):
                V = all_hypothesis_states(ProblemInstance(n, k, c))
                _assert_same_bits(srm_success_oracle(V), *_class_steps(V))
                W = _generic_stack(n * k, V.shape[0] + 2, V.shape[1])
                _assert_same_bits(srm_success_oracle(W), *_svd_steps(W))

    @pytest.mark.parametrize("n, k, c", [(2, 1, 0.5), (6, 3, 0.3), (8, 3, 0.9), (10, 4, 0.53),
                                         (9, 4, 0.999), (8, 3, 1.0), (6, 2, 0.0)])
    def test_eigenvalues_are_those_of_the_gram(self, n, k, c):
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        w = srm_success_oracle(V).eigenvalues
        reference = np.linalg.eigvalsh(V @ V.T)
        assert w.shape == (V.shape[0],) and (np.diff(w) >= 0).all()
        assert np.abs(w - reference).max() <= 1e-12 * max(1.0, reference[-1])

    def test_eigenvalues_are_not_clamped(self, cold, monkeypatch):
        # a singular value of 1e-9 planted in the place of the largest is
        # reported first as its square, and the diagonal uses it as it is; on
        # the basis path (through its square root) and on the SVD path
        sqrt, svd, planted, factors = np.sqrt, np.linalg.svd, 1e-9, []

        def lowered(sigma):
            sigma[np.argmax(sigma)] = planted
            factors.append(sigma)
            return sigma

        monkeypatch.setattr(oracle.np, "sqrt", lambda x: lowered(sqrt(x)))
        monkeypatch.setattr(oracle.np.linalg, "svd", lambda V, full_matrices: (
            lambda X, s, Y: (X, lowered(s), Y))(*svd(V, full_matrices=full_matrices)))
        V = all_hypothesis_states(ProblemInstance(6, 2, 0.5))
        W, _, sizes, _ = _grouped_basis(V, _pattern_basis(V)[1])
        assert sizes.tolist() == [9, 5, 1]  # the top sigma has one eigenvector
        for basis in (True, False):
            if not basis:
                _fail_the_certificate(monkeypatch)
                W, sizes = svd(V, full_matrices=False)[0] ** 2, 1
            result = srm_success_oracle(V)
            sigma = factors[-1]
            assert result.eigenvalues[0] == planted**2
            _assert_same_bits(result, *_steps(W, sigma, V.shape[0], sizes))
        assert len(factors) == 2

    @pytest.mark.parametrize("n, k, c", [(2, 1, 0.5), (6, 2, 0.6), (8, 3, 1.0), (9, 4, 0.3),
                                         (10, 4, 0.0), (10, 5, 0.8)])
    def test_cold_and_warm_cache_give_the_same_bits(self, cold, n, k, c):
        cache = oracle._support_basis.cache
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        stacks = (V, np.asfortranarray(V), _pad_with_zero_columns(V))
        results = []
        for stack in stacks:
            oracle._support_basis.cache_clear()
            results += [srm_success_oracle(stack), srm_success_oracle(stack)]  # cold, warm
        results += [srm_success_oracle(stack) for stack in stacks]  # warmed by the last layout
        assert len(cache) == 1  # one pattern for all three layouts
        first = results[0]
        for result in results:
            _assert_same_bits(result, first.success, first.diagonal, first.eigenvalues)

    def test_rotated_basis_fails_the_bound(self, cold, monkeypatch):
        # the entry built from eigh's basis turned by theta in the plane of two
        # eigenvectors of different eigenspaces: still orthogonal, but each
        # class's off-diagonal gains about theta times the spread of its
        # eigenvalues and each d_c about theta^2 times it, so that the turned
        # vectors' d_c leave their groups' integers.  Between the top
        # eigenvector and one of the bottom eigenspace by 1e-6, o_c fails the
        # bound (4 N^(5/2) + N M) u = 4.2e-13; between the last eigenvector of
        # one eigenspace and the first of the next by 0.05, s_c fails it alone
        V = all_hypothesis_states(ProblemInstance(6, 2, 0.6))
        live = V[:, V.any(axis=0)]
        N, M = live.shape
        tol = (4 * N**2.5 + N * M) * oracle.UNIT_ROUNDOFF
        P = (live != 0).astype(float)
        values, U = np.linalg.eigh(P @ P.T)
        gap = int(np.argmax(np.diff(values)))  # the widest
        for i, j, theta in [(0, N - 1, 1e-6), (gap, gap + 1, 0.05)]:
            assert values[j] - values[i] > 1
            rotated = U.copy()
            rotated[:, i] = math.cos(theta) * U[:, i] - math.sin(theta) * U[:, j]
            rotated[:, j] = math.sin(theta) * U[:, i] + math.cos(theta) * U[:, j]
            assert np.abs(rotated.T @ rotated - np.eye(N)).max() < 1e-14
            combin._clear_caches()
            factored = []
            monkeypatch.setattr(oracle.np.linalg, "eigh",
                                lambda A, basis=rotated: factored.append(A) or (values, basis))
            _assert_same_bits(srm_success_oracle(V), *_svd_steps(V))
            _assert_same_bits(srm_success_oracle(V), *_svd_steps(V))
            assert len(factored) == 1  # the entry is kept, not factored again
            (entry,) = oracle._support_basis.cache.values()
            spread, off = entry[-2:]
            f = _class_blocks(V, rotated)[0]
            assert (f * f) @ off > 1e-7 > 1e5 * tol
            if theta > 1e-3:
                assert (f * f) @ spread > 1e-3 > 1e9 * tol

    def test_factored_eigenvalues_are_within_the_bound_of_an_svd(self):
        # every instance of the detection rows' grid to n = 10, HIGH_C_GRID
        # included: sigma^2 = sum_c f_c^2 d_c within (4 N^(5/2) + N M) u of
        # the squares of a thin SVD's singular values
        for inst in verify._srm_grid(10):
            V = all_hypothesis_states(ProblemInstance(**inst))
            live = V[:, V.any(axis=0)]
            N, M = live.shape
            sigma = np.linalg.svd(live, compute_uv=False)
            reference = np.sort(np.pad(sigma * sigma, (N - sigma.size, 0)))
            bound = (4 * N**2.5 + N * M) * oracle.UNIT_ROUNDOFF
            assert np.abs(srm_success_oracle(V).eigenvalues - reference).max() <= bound, inst

    def test_one_scaled_entry_fails_the_class_check(self, cold):
        # one nonzero of a (6, 2) stack scaled by 1 + 1e-9, its row then
        # renormalised: the same pattern, so the same cached entry, but the
        # class no longer holds one value, and delta fails the bound
        V = all_hypothesis_states(ProblemInstance(6, 2, 0.6))
        _assert_same_bits(srm_success_oracle(V), *_class_steps(V))
        x = np.flatnonzero(V[3])[1]
        V[3, x] *= 1 + 1e-9
        V[3] /= np.linalg.norm(V[3])
        _assert_same_bits(srm_success_oracle(V), *_svd_steps(V))
        assert len(oracle._support_basis.cache) == 1

    def test_only_the_k_equals_n_cells_take_the_svd(self, monkeypatch):
        # over the detection rows' grid at the qubit cap every hypothesis
        # stack takes the factored path but the 63 with k = n: there N = 1 and
        # every column has support 1, so one class holds all the distinct
        # entries, and delta fails the bound
        svd, decomposed = np.linalg.svd, []

        def recording(V, full_matrices):
            decomposed.append(V.shape)
            return svd(V, full_matrices=full_matrices)

        monkeypatch.setattr(oracle.np.linalg, "svd", recording)
        took = []
        for inst in verify._srm_grid(oracle.STATE_QUBITS_CAP):
            calls = len(decomposed)
            srm_success_oracle(all_hypothesis_states(ProblemInstance(**inst)))
            if len(decomposed) > calls:
                took.append(inst)
        assert len(took) == 63 and all(inst["k"] == inst["n"] for inst in took)

    def test_hypothesis_entries_hold_one_group_per_eigenspace(self, cold):
        # on the scheme grid to n = 12, mirrored k included, the eigenvectors
        # of a hypothesis stack's pattern fall into the m + 1 eigenspaces of
        # the Johnson scheme, of sizes m_j, and W is N x (m + 1)
        for cell in verify._scheme_grid(12):
            n, k = cell["n"], cell["k"]
            m, N = min(k, n - k), binomial(n, k)
            V = all_hypothesis_states(ProblemInstance(n, k, 0.6))
            entry = oracle._support_basis(V.shape, np.packbits(V != 0).tobytes())
            W, _, _, _, theta, sizes, spread, off = entry
            assert W.shape == (N, m + 1) and theta.shape == (k + 1, m + 1), cell
            assert sorted(sizes.tolist()) == sorted(combin._multiplicities(n, m)), cell
            assert spread.max() < 1e-9 and off.max() < 1e-9, cell

    def test_generic_pattern_factored_once(self, cold, monkeypatch):
        eigh, svd, factored, decomposed = np.linalg.eigh, np.linalg.svd, [], []

        def recording(M):
            factored.append(M.copy())
            return eigh(M)

        def recording_svd(W, full_matrices):
            decomposed.append(W.shape)
            return svd(W, full_matrices=full_matrices)

        stacks = [_generic_stack(seed, 12, 30) for seed in range(3)]  # one dense 12 x 30 pattern
        expected = [_svd_steps(W) for W in stacks]
        monkeypatch.setattr(oracle.np.linalg, "eigh", recording)
        monkeypatch.setattr(oracle.np.linalg, "svd", recording_svd)
        for W, steps in zip(stacks, expected):
            _assert_same_bits(srm_success_oracle(W), *steps)
        # the first call factors P P^T = 30 J, and every call takes one SVD of its stack
        assert len(factored) == 1 and np.array_equal(factored[0], np.full((12, 12), 30.0))
        assert decomposed == [(12, 30)] * 3
        assert len(oracle._support_basis.cache) == 1

    def test_basis_cache_keeps_its_bounds(self, cold, monkeypatch, small_caches):
        # an entry of N states in G groups and C classes, under the N x M
        # pattern packed in ceil(N M / 8) bytes (its key), holds the 8 N
        # G-byte W, 8 (C + 1) bytes per group (theta and its size), 16 bytes
        # per nonzero (its position and class) and 24 bytes per class (its
        # first, s_c and o_c), and 361 bytes of tuples, ints and the bytes
        # object; k = 1 gives N = n, M = n + 1, 2 n nonzeros, two classes and
        # two groups: 48 n + 457 + ceil(n (n + 1) / 8)
        cache = oracle._support_basis.cache
        states = {(n, k): all_hypothesis_states(ProblemInstance(n, k, 0.5))
                  for n, k in ((3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (6, 2), (5, 2))}
        for n in (3, 4, 5, 6, 7, 3):  # 3507 bytes fit the 4096-byte bound; (3, 1) is used again
            srm_success_oracle(states[n, 1])
        assert [key[0][0] for key in cache] == [4, 5, 6, 7, 3]
        assert [combin._nbytes(entry) for entry in cache.items()] == [652, 701, 751, 800, 603]
        srm_success_oracle(states[8, 1])  # 850 more bytes: (4, 1) goes
        assert [key[0][0] for key in cache] == [5, 6, 7, 3, 8]
        # (6, 2): N = 15, M = 22, 60 nonzeros, three classes and three groups,
        # 1891 bytes; (5, 2): N = 10, M = 16, 40 nonzeros, three classes and
        # three groups, 1429 bytes.  Each entry is over a 900-byte bound on
        # its own: built and used, not kept, so the next call factors its
        # pattern again
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 30)
        eigh, factored = np.linalg.eigh, []
        monkeypatch.setattr(oracle.np.linalg, "eigh", lambda M: factored.append(M) or eigh(M))
        big = ((6, 2), (5, 2))
        results = {nk: [srm_success_oracle(states[nk]) for _ in range(2)] for nk in big}
        assert len(factored) == 4
        assert [key[0][0] for key in cache] == [5, 6, 7, 3, 8]
        # under a bound that keeps them: each factored once, kept, and the same bits
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", GRAM_SIZE_CAP)
        for nk in big:
            results[nk] += [srm_success_oracle(states[nk]) for _ in range(2)]
        assert len(factored) == 6
        assert [key[0][0] for key in cache] == [5, 6, 7, 3, 8, 15, 10]
        assert [combin._nbytes(entry) for entry in cache.items()][-2:] == [1891, 1429]
        for first, *rest in results.values():
            for result in rest:
                _assert_same_bits(result, first.success, first.diagonal, first.eigenvalues)

    def test_a_wide_pattern_counts_against_the_bound(self, cold, monkeypatch):
        # 256 basis states: a 6288-byte entry (one group, one class, 256
        # nonzeros) fits the bound alone, but not with its 8393-byte key, the
        # 8192-byte pattern and its shape, so the entry is built and used, not kept
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 100)  # a 10000-byte bound
        V = np.eye(256)
        expected = _class_steps(V)
        eigh, factored = np.linalg.eigh, []
        monkeypatch.setattr(oracle.np.linalg, "eigh", lambda M: factored.append(M) or eigh(M))
        _assert_same_bits(srm_success_oracle(V), *expected)
        assert len(factored) == 1 and not oracle._support_basis.cache
        key = (V.shape, np.packbits(V != 0).tobytes())
        entry = oracle._support_basis(*key)
        assert combin._nbytes(entry) == 6288 and combin._nbytes(key) == 8393
        assert len(factored) == 2 and not oracle._support_basis.cache

    def test_same_shape_other_pattern_gets_its_own_basis(self, cold):
        # two 2 x 2 patterns, [[1, 0], [1, 1]] and [[1, 1], [0, 1]]: one entry each
        cache = oracle._support_basis.cache
        s = 1 / math.sqrt(2)
        stacks = [np.array([[1.0, 0.0], [s, s]]), np.array([[s, s], [0.0, 1.0]])]
        expected = []
        for V in stacks:
            oracle._support_basis.cache_clear()
            expected.append(srm_success_oracle(V))
        oracle._support_basis.cache_clear()
        for V, result in zip(stacks * 2, expected * 2):
            _assert_same_bits(srm_success_oracle(V), result.success, result.diagonal,
                              result.eigenvalues)
        assert list(cache) == [((2, 2), np.packbits(V != 0).tobytes()) for V in stacks]
        for V, (W, *_) in zip(stacks, cache.values()):
            assert W.tobytes() == _grouped_basis(V, _pattern_basis(V)[1])[0].tobytes()


class TestUniversalHypothesis:
    def test_unit_trace_and_psd(self):
        for n, k, d in [(4, 1, 2), (4, 2, 2), (5, 2, 2), (4, 2, 3)]:
            for pat in enumerate_patterns(n, k):
                rho = _rho(pat, n, d)
                assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh(rho)[0] > -1e-10

    def test_two_systems_maximally_mixed(self):
        for pat in [(1,), (2,)]:
            rho = _rho(pat, 2, 2)
            assert np.abs(rho - np.eye(4) / 4).max() < 1e-12

    def test_rank_is_product_of_symmetric_dimensions(self):
        n, k, d = 5, 2, 2
        rho = _rho((2, 4), n, d)
        rank = int(np.sum(np.linalg.eigvalsh(rho) > 1e-10))
        assert rank == binomial(k + d - 1, d - 1) * binomial(n - k + d - 1, d - 1)

    def test_rejects_dimension_below_two(self):
        # universal_success refuses d = 1 too, through UniversalInstance
        with pytest.raises(ValueError, match="d must be >= 2"):
            universal_success_oracle(3, 1, 1)

    @pytest.mark.parametrize("n,k,d", [(4, 1, 2), (5, 2, 2), (6, 3, 2), (4, 2, 3)])
    def test_is_the_projector_onto_sym_tensor_sym(self, n, k, d):
        # P = r rho_S: an orthogonal projector of rank r fixing r independent
        # phi^(n-k) (x) psi^k (psi at the pattern) is the one onto Sym (x) Sym
        r = binomial(n - k + d - 1, d - 1) * binomial(k + d - 1, d - 1)
        rng = np.random.default_rng(2024)
        for pat in enumerate_patterns(n, k):
            B = _isometry(pat, n, d)
            assert B.shape[1] == r
            P = B @ B.T
            assert np.abs(P - P.T).max() < 1e-12
            assert np.abs(P @ P - P).max() < 1e-12
            assert np.linalg.matrix_rank(P) == r
            V = np.array([reduce(np.kron, [psi if pos in pat else phi for pos in range(1, n + 1)])
                          for phi, psi in rng.normal(size=(r, 2, d))]).T
            assert np.linalg.matrix_rank(V) == r
            assert np.abs(P @ V - V).max() < 1e-10 * np.abs(V).max()


class TestUniversalOracle:
    def test_two_systems(self):
        assert universal_success_oracle(2, 1, 2) == pytest.approx(0.5, abs=1e-12)

    def test_four_systems_one_anomaly(self):
        assert universal_success_oracle(4, 1, 2) == pytest.approx(7 / 16, abs=1e-10)

    @pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (4, 3)])
    def test_complement_gives_the_same_value(self, n, d):
        # the hypotheses are built on the k-subsets themselves, so the k <-> n-k
        # symmetry of the closed form is checked, not assumed: 4/9 at (3, 2, 2)
        for k in range(n + 1):
            value = universal_success_oracle(n, k, d)
            assert value == pytest.approx(universal_success_oracle(n, n - k, d), abs=1e-12)
            assert value == pytest.approx(float(universal_success(UniversalInstance(n, k, d))),
                                          abs=1e-12)

    @pytest.mark.parametrize("n,d", [(13, 2), (8, 3)])
    def test_refuses_a_dimension_past_the_cap(self, monkeypatch, n, d):
        # d^n = 8192 and 6561 exceed DENSITY_DIM_CAP = 4096: refused before any isometry
        def unreachable(*args):
            raise AssertionError("built past the dimension cap")

        monkeypatch.setattr(oracle, "_isometry", unreachable)
        message = rf"^universal_success_oracle: d\^n = {d**n} exceeds cap {oracle.DENSITY_DIM_CAP}$"
        for call in (universal_success_oracle, universal_holevo_violation):
            with pytest.raises(ValueError, match=message):
                call(n, 1, d)

    @pytest.mark.parametrize("fits", [True, False])
    def test_one_build_per_instance(self, monkeypatch, cold, fits):
        # the success value and the Holevo witness of (6, 3, 2) share one build
        # of the C(6, 3) = 20 isometries, also when the counts are numpy ints;
        # a build over the cache's byte bound is returned, not kept
        isometry, built = oracle._isometry, []
        monkeypatch.setattr(oracle, "_isometry", lambda *args: built.append(args) or isometry(*args))
        if not fits:  # a 10 000-byte bound; the isometries and R take 196 608 bytes
            monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 100)
        value = universal_success_oracle(6, 3, 2)
        universal_holevo_violation(np.int64(6), 3, 2)
        assert len(built) == (20 if fits else 40)
        assert value == universal_success_oracle(6, 3, 2)
        isometries, R = _universal_srm(6, 3, 2)
        assert not any(M.flags.writeable for M in (*isometries, R))


class TestSupportInverseSqrt:
    @pytest.mark.parametrize("ambiguous", [2e-12, 5e-11, 9e-11])
    def test_dead_zone_raises(self, ambiguous):
        Q = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4)))[0]
        rho = (Q * [0.5, 0.5 - ambiguous, ambiguous, 0.0]) @ Q.T
        with pytest.raises(ValueError, match=r"^1 eigenvalues of rho in the "
                           r"support-detection dead zone \[1e-12, 1e-10\]$"):
            _support_inverse_sqrt(rho)

    def test_threshold_edges(self):
        # 1e-12 and below are dropped as numerical zeros; the threshold itself is inverted
        R = _support_inverse_sqrt(np.diag([0.5, SUPPORT_THRESHOLD, 1e-12, 1e-13, 0.0]))
        expected = np.diag([1 / np.sqrt(0.5), 1 / np.sqrt(SUPPORT_THRESHOLD), 0.0, 0.0, 0.0])
        assert np.array_equal(np.abs(R), expected)


def _dense_witness(isometries, R):
    """Y = sym(sum_S R rho_S R rho_S) from the dense d^n x d^n products, and the rho_S."""
    hyps = [B @ B.T / B.shape[1] for B in isometries]
    Y = np.sum([R @ h @ R @ h for h in hyps], axis=0)
    return (Y + Y.T) / 2, hyps


def _dense_violation(isometries, R):
    Y, hyps = _dense_witness(isometries, R)
    return max(0.0, -min(np.linalg.eigvalsh(Y - h)[0] for h in hyps))


class TestHolevoCheck:
    INSTANCES = [(4, 1, 2), (5, 2, 2), (6, 3, 2), (7, 2, 2), (4, 2, 3)]

    def test_uniform_witness_feasible(self):
        # the SRM's witness is the uniform one, Y = P / r with P the projector onto
        # rho's support; the factored witness matches the dense one
        for n, k, d in self.INSTANCES:
            isometries, R = _universal_srm(n, k, d)
            r = isometries[0].shape[1]
            Y, hyps = _dense_witness(isometries, R)
            assert np.abs(Y - R @ np.sum(hyps, axis=0) @ R / r).max() <= 1e-15
            violation = universal_holevo_violation(n, k, d)
            assert abs(violation - _dense_violation(isometries, R)) <= 1e-15
            assert violation <= 1e-15

    def _assert_scaled_witness_infeasible(self, monkeypatch, scale):
        # R -> scale R gives Y = scale^2 P / r: Y - rho_S has the eigenvalue (scale^2 - 1) / r
        def scaled(n, k, d):
            isometries, R = _universal_srm(n, k, d)
            return isometries, scale * R

        monkeypatch.setattr(oracle, "_universal_srm", scaled)
        for n, k, d in self.INSTANCES:
            isometries, R = scaled(n, k, d)
            violation = universal_holevo_violation(n, k, d)
            assert violation == pytest.approx((1 - scale**2) / isometries[0].shape[1], abs=1e-15)
            assert abs(violation - _dense_violation(isometries, R)) <= 1e-15

    def test_zero_witness_infeasible(self, monkeypatch):
        self._assert_scaled_witness_infeasible(monkeypatch, 0.0)

    def test_halved_witness_infeasible(self, monkeypatch):
        self._assert_scaled_witness_infeasible(monkeypatch, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_witness(self, monkeypatch, bad):
        # a NaN eigenvalue compares as no violation; it must not pass the row
        def planted(n, k, d):
            isometries, R = _universal_srm(n, k, d)
            R = R.copy()  # the shared build is read-only
            R[0, 0] = bad
            return isometries, R

        monkeypatch.setattr(oracle, "_universal_srm", planted)
        check = next(c for c in verify.CHECKS if c.name == "universal-holevo-certificate")
        check = dataclasses.replace(check, grid=verify._fixed({"n": 4, "k": 1, "d": 2}))
        with np.errstate(invalid="ignore"):  # inf * 0 in the products; the row reports it
            [result] = check.run(4)
        assert not result.passed
        assert result.line() == ("ERROR universal-holevo-certificate n=4,k=1,d=2 ValueError: "
                                 "direct_spectrum: matrix has NaN or infinite entries")


def test_imports_no_closed_form():
    # the oracle checks the closed forms, so it imports none of their modules:
    # only combin and gram, for patterns, instances, count checks and eigvalsh
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level}
    assert modules == {"combin", "gram"}
