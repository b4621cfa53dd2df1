import math
import weakref
from functools import reduce

import numpy as np
import pytest

from anomdet import combin, oracle
from anomdet.combin import NK_CACHE_SIZE, binomial, enumerate_patterns
from anomdet.gram import GRAM_SIZE_CAP, ProblemInstance, gram_matrix
from anomdet.oracle import (
    _isometry,
    _universal_srm,
    all_hypothesis_states,
    holevo_check,
    srm_success_oracle,
    universal_success_oracle,
)


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

    def test_sector_layout_read_only_and_built_once(self):
        oracle._sector_layout.cache_clear()
        first = all_hypothesis_states(ProblemInstance(7, 3, 0.3))
        second = all_hypothesis_states(ProblemInstance(7, 3, 0.6))
        info = oracle._sector_layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        index, width, bits = oracle._sector_layout(7, 3)
        assert first.shape == second.shape == (35, width) and index.shape == (35, 8)
        assert bits.shape == (3, 8)
        for table in (index, bits):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0
        assert first.flags.writeable  # each call returns a fresh stack


def _generic_stack(seed, N, M):
    """N >= 3 random unit rows of width M: a dense support pattern, and a Gram
    that its basis (the eigenvectors of M J) does not diagonalise.  (Two
    unit rows have a Gram a I + b J, which that basis does diagonalise.)"""
    W = np.random.default_rng(seed).normal(size=(N, M))
    return W / np.linalg.norm(W, axis=1, keepdims=True)


def _eigh_steps(V):
    """success, diagonal and eigenvalues from a plain eigh of V V^T."""
    w, U = np.linalg.eigh(V @ V.T)
    d = (U * U) @ np.sqrt(np.maximum(w, 0.0))
    return np.sum(d**2) / V.shape[0], d, w


def _assert_same_bits(result, success, diagonal, eigenvalues):
    assert result.success == success
    assert result.diagonal.tobytes() == diagonal.tobytes()
    assert result.eigenvalues.tobytes() == eigenvalues.tobytes()


@pytest.fixture
def empty_basis_cache():
    oracle._bases.clear()
    yield oracle._bases
    oracle._bases.clear()


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
        # BLAS accumulates each entry with fused multiply-adds, so overflowing finite
        # states give +-inf, not inf - inf; a NaN Gram is planted through V @ V^T
        class NanGram(np.ndarray):
            def __matmul__(self, other):
                return np.array([[1.0, math.nan], [math.nan, 1.0]])

        monkeypatch.setattr(oracle, "_real_array", lambda states, caller: np.eye(2).view(NanGram))
        with pytest.raises(ValueError, match="^srm_success_oracle: matrix has NaN or infinite"):
            srm_success_oracle(np.eye(2))

    @pytest.mark.parametrize("planted, rejected", [(-2e-10, True), (-0.5e-10, False)])
    def test_rejects_indefinite_gram(self, monkeypatch, planted, rejected):
        # the largest eigenvalue lowered to `planted`, so that the smallest is
        # not w[0], on the support-basis path and on the eigh path; the clamp
        # threshold is -PSD_CLAMP = -1e-10
        gram_eigh, writeable = oracle._gram_eigh, []

        def lowered(G, support):
            w, U = gram_eigh(G, support)
            w[np.argmax(w)] = planted
            writeable.append(U.flags.writeable)  # eigh's own factors, not the cached basis
            return w, U

        monkeypatch.setattr(oracle, "_gram_eigh", lowered)
        message = r"^matrix is not PSD \(min eigenvalue -2e-10\)"
        for V in all_hypothesis_states(ProblemInstance(4, 2, 0.5)), _generic_stack(0, 6, 11):
            if rejected:
                with pytest.raises(ValueError, match=message):
                    srm_success_oracle(V)
            else:
                assert 0 < srm_success_oracle(V).success <= 1
        assert writeable == [False, True]

    @pytest.mark.parametrize("n, k, c", [(2, 1, 0.5), (6, 2, 0.6), (8, 3, 1.0), (9, 4, 0.3),
                                         (10, 4, 0.0), (10, 5, 0.8)])
    def test_fortran_ordered_stack_gives_the_same_bits(self, n, k, c):
        # G = V V^T is exactly symmetric in either layout, and eigh reads one triangle
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        F = np.asfortranarray(V)
        assert F.flags.f_contiguous and not F.flags.c_contiguous
        for stack in (V, F):
            G = stack @ stack.T
            assert np.array_equal(G, G.T)
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
        # eigh of P P^T (P the support pattern), w = diag(U^T G U), diagonal
        # (U o U) sqrt(max(w, 0)), mean square, w sorted; a stack without the
        # symmetry: eigh of V V^T
        for n in range(2, 11):
            for k in range(1, min(4, n // 2) + 1):
                V = all_hypothesis_states(ProblemInstance(n, k, c))
                live = V[:, V.any(axis=0)]
                P = (live != 0).astype(float)
                U = np.linalg.eigh(P @ P.T)[1]
                w = np.diag(U.T @ (live @ live.T @ U))
                d = (U * U) @ np.sqrt(np.maximum(w, 0.0))
                _assert_same_bits(srm_success_oracle(V), np.sum(d**2) / V.shape[0], d, np.sort(w))
                W = _generic_stack(n * k, V.shape[0] + 2, V.shape[1])
                _assert_same_bits(srm_success_oracle(W), *_eigh_steps(W))

    @pytest.mark.parametrize("n, k, c", [(2, 1, 0.5), (6, 3, 0.3), (8, 3, 0.9), (10, 4, 0.53),
                                         (9, 4, 0.999), (8, 3, 1.0), (6, 2, 0.0)])
    def test_eigenvalues_are_those_of_the_gram(self, n, k, c):
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        w = srm_success_oracle(V).eigenvalues
        reference = np.linalg.eigvalsh(V @ V.T)
        assert w.shape == (V.shape[0],) and (np.diff(w) >= 0).all()
        assert np.abs(w - reference).max() <= 1e-12 * max(1.0, reference[-1])

    def test_eigenvalues_are_not_clamped(self, monkeypatch):
        # an eigenvalue planted inside the clamp, [-PSD_CLAMP, 0), in the place
        # of the largest is reported first as it is, while the square root uses
        # 0 in its place; on the support-basis path and on the eigh path
        gram_eigh = oracle._gram_eigh
        planted = -0.5 * oracle.PSD_CLAMP
        factors = []

        def lowered(G, support):
            w, U = gram_eigh(G, support)
            w[np.argmax(w)] = planted
            factors.append((w.copy(), U.copy(), U.flags.writeable))
            return w, U

        monkeypatch.setattr(oracle, "_gram_eigh", lowered)
        for V in all_hypothesis_states(ProblemInstance(6, 2, 0.5)), _generic_stack(1, 15, 20):
            result = srm_success_oracle(V)
            w, U, _ = factors[-1]
            assert result.eigenvalues[0] == planted
            assert result.eigenvalues.tobytes() == np.sort(w).tobytes()
            diagonal = (U * U) @ np.sqrt(np.maximum(w, 0.0))
            assert result.diagonal.tobytes() == diagonal.tobytes()
            assert result.success == float(np.sum(diagonal**2) / V.shape[0])
        assert [writeable for _, _, writeable in factors] == [False, True]

    @pytest.mark.usefixtures("empty_basis_cache")
    def test_stack_passed_as_a_temporary_is_freed_before_eigh(self, monkeypatch):
        # on the support-basis path, with the basis factored on a cold cache,
        # and on the eigh path, which also factors its (dense) pattern first
        eigh, gram_eigh = np.linalg.eigh, oracle._gram_eigh
        stacks, alive, writeable = [], [], []

        def recording_eigh(M):
            alive.append(stacks[-1]() is not None)
            return eigh(M)

        def recording(G, support):
            alive.append(stacks[-1]() is not None)
            w, U = gram_eigh(G, support)
            writeable.append(U.flags.writeable)
            return w, U

        def temporary(build):
            V = build()
            stacks.append(weakref.ref(V))
            return V

        monkeypatch.setattr(oracle.np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(oracle, "_gram_eigh", recording)
        builds = (lambda: all_hypothesis_states(ProblemInstance(8, 3, 0.5)),
                  lambda: _generic_stack(2, 56, 93))
        for build, calls in zip(builds, (2, 3)):  # _gram_eigh, eigh(P P^T)[, eigh(G)]
            alive.clear()
            result = srm_success_oracle(temporary(build))
            assert alive == [False] * calls and stacks[-1]() is None
            assert result.success == srm_success_oracle(temporary(build)).success
        assert writeable == [False, False, True, True]

    @pytest.mark.parametrize("n, k, c", [(2, 1, 0.5), (6, 2, 0.6), (8, 3, 1.0), (9, 4, 0.3),
                                         (10, 4, 0.0), (10, 5, 0.8)])
    def test_cold_and_warm_cache_give_the_same_bits(self, empty_basis_cache, n, k, c):
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        stacks = (V, np.asfortranarray(V), _pad_with_zero_columns(V))
        results = []
        for stack in stacks:
            empty_basis_cache.clear()
            results += [srm_success_oracle(stack), srm_success_oracle(stack)]  # cold, warm
        results += [srm_success_oracle(stack) for stack in stacks]  # warmed by the last layout
        assert len(empty_basis_cache) == 1  # one pattern for all three layouts
        first = results[0]
        for result in results:
            _assert_same_bits(result, first.success, first.diagonal, first.eigenvalues)

    def test_rotated_basis_fails_the_bound(self, empty_basis_cache):
        # a cached basis turned by 1e-6 between the top eigenvector and one of
        # the bottom eigenspace: still orthogonal, but B's off-diagonal gains
        # about 1e-6 * (w_top - w_bottom), far above 3 N^2 u = 7.5e-14
        V = all_hypothesis_states(ProblemInstance(6, 2, 0.6))
        srm_success_oracle(V)
        (key, U), = empty_basis_cache.items()
        i, j, theta = 0, U.shape[1] - 1, 1e-6
        rotated = U.copy()
        rotated[:, i] = math.cos(theta) * U[:, i] - math.sin(theta) * U[:, j]
        rotated[:, j] = math.sin(theta) * U[:, i] + math.cos(theta) * U[:, j]
        assert np.abs(rotated.T @ rotated - np.eye(len(U))).max() < 1e-14
        G = V @ V.T
        B = rotated.T @ G @ rotated
        assert abs(B[i, j]) > 1e-7 > 1e6 * 3 * len(U) ** 2 * oracle.UNIT_ROUNDOFF
        rotated.flags.writeable = False
        empty_basis_cache[key] = rotated
        _assert_same_bits(srm_success_oracle(V), *_eigh_steps(V))
        assert empty_basis_cache[key] is rotated  # kept, not factored again

    def test_generic_pattern_factored_once(self, empty_basis_cache, monkeypatch):
        eigh, factored = np.linalg.eigh, []

        def recording(M):
            factored.append(M.copy())
            return eigh(M)

        stacks = [_generic_stack(seed, 12, 30) for seed in range(3)]  # one dense 12 x 30 pattern
        expected = [_eigh_steps(W) for W in stacks]
        monkeypatch.setattr(oracle.np.linalg, "eigh", recording)
        for W, steps in zip(stacks, expected):
            _assert_same_bits(srm_success_oracle(W), *steps)
        # the first call factors P P^T = 30 J, and every call its own Gram
        assert len(factored) == 4 and np.array_equal(factored[0], np.full((12, 12), 30.0))
        assert len(empty_basis_cache) == 1

    def test_basis_cache_keeps_its_bounds(self, empty_basis_cache, monkeypatch):
        # the entry bound and LRU order: one 1 x m pattern per stack
        stacks = [np.full((1, m), 1 / math.sqrt(m)) for m in range(1, NK_CACHE_SIZE + 2)]
        for V in stacks[:-1]:
            srm_success_oracle(V)
        keys = list(empty_basis_cache)
        assert len(keys) == NK_CACHE_SIZE
        srm_success_oracle(stacks[0])  # now the most recently used
        srm_success_oracle(stacks[-1])
        assert len(empty_basis_cache) == NK_CACHE_SIZE
        assert keys[0] in empty_basis_cache and keys[1] not in empty_basis_cache
        # the byte bound: a basis of N states holds 8 N^2 bytes; k = 1 gives N = n
        empty_basis_cache.clear()
        monkeypatch.setattr(combin, "GRAM_SIZE_CAP", 20)  # a 400-byte bound
        states = {n: all_hypothesis_states(ProblemInstance(n, 1, 0.5)) for n in (3, 4, 5, 6, 8)}
        for n in (3, 4, 5, 3):  # 72 + 128 + 200 bytes fit; (3, 1) is used again
            srm_success_oracle(states[n])
        assert [key[0][0] for key in empty_basis_cache] == [4, 5, 3]
        srm_success_oracle(states[6])  # 288 more bytes: (4, 1) and (5, 1) go
        assert [key[0][0] for key in empty_basis_cache] == [3, 6]
        # a basis over the bound on its own (512 bytes) is not built: plain eigh
        _assert_same_bits(srm_success_oracle(states[8]), *_eigh_steps(states[8]))
        assert [key[0][0] for key in empty_basis_cache] == [3, 6]


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

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="universal_success_oracle: requires n >= 2k"):
            universal_success_oracle(3, 2, 2)

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


class TestHolevoCheck:
    def _setup(self, n=4, k=1, d=2):
        isometries, R = _universal_srm(n, k, d)
        hyps = [B @ B.T / B.shape[1] for B in isometries]
        proj = R @ np.sum(hyps, axis=0) @ R  # projector onto the support of rho
        c_k = 1 / (binomial(n - k + d - 1, d - 1) * binomial(k + d - 1, d - 1))
        return hyps, proj, c_k

    def test_uniform_witness_feasible(self):
        hyps, proj, c_k = self._setup()
        report = holevo_check(c_k * proj, hyps)
        assert report.feasible

    def test_zero_witness_infeasible(self):
        hyps, _, _ = self._setup()
        report = holevo_check(np.zeros_like(hyps[0]), hyps)
        assert not report.feasible
        assert report.worst_violation < -1e-3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_witness(self, bad):
        # a NaN eigenvalue compares as no violation; it must not pass as feasible
        with pytest.raises(ValueError, match="NaN or infinite"):
            holevo_check(np.full((2, 2), bad), [np.eye(2) / 2])

    def test_rejects_complex_witness(self):
        with pytest.raises(ValueError, match="complex entries"):
            holevo_check(np.array([[1, 1j], [-1j, 1]]), [np.eye(2) / 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            holevo_check(np.eye(4), [np.eye(8) / 8])

