import math
import weakref
from functools import reduce

import numpy as np
import pytest

from anomdet import oracle
from anomdet.combin import binomial, enumerate_patterns
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
        # the smallest eigenvalue lowered to `planted`; max |G| = 1, so the clamp
        # threshold is -PSD_CLAMP = -1e-10
        eigh = np.linalg.eigh

        def lowered(G):
            w, U = eigh(G)
            w[0] = planted
            return w, U

        V = all_hypothesis_states(ProblemInstance(4, 2, 0.5))
        monkeypatch.setattr(oracle.np.linalg, "eigh", lowered)
        if rejected:
            with pytest.raises(ValueError, match=r"^matrix is not PSD \(min eigenvalue -2e-10\)"):
                srm_success_oracle(V)
        else:
            assert 0 < srm_success_oracle(V).success <= 1

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
        # the plain steps: eigh of V V^T, diagonal (U o U) sqrt(max(w, 0)), mean square
        for n in range(2, 11):
            for k in range(1, min(4, n // 2) + 1):
                V = all_hypothesis_states(ProblemInstance(n, k, c))
                w, U = np.linalg.eigh(V @ V.T)
                d = (U * U) @ np.sqrt(np.maximum(w, 0.0))
                result = srm_success_oracle(V)
                assert result.success == np.sum(d**2) / V.shape[0], (n, k)
                assert result.diagonal.tobytes() == d.tobytes(), (n, k)
                assert result.eigenvalues.tobytes() == w.tobytes(), (n, k)

    @pytest.mark.parametrize("n, k, c", [(2, 1, 0.5), (6, 3, 0.3), (8, 3, 0.9), (10, 4, 0.53),
                                         (9, 4, 0.999), (8, 3, 1.0), (6, 2, 0.0)])
    def test_eigenvalues_are_those_of_the_gram(self, n, k, c):
        V = all_hypothesis_states(ProblemInstance(n, k, c))
        w = srm_success_oracle(V).eigenvalues
        reference = np.linalg.eigvalsh(V @ V.T)
        assert w.shape == (V.shape[0],) and (np.diff(w) >= 0).all()
        assert np.abs(w - reference).max() <= 1e-12 * max(1.0, reference[-1])

    def test_eigenvalues_are_not_clamped(self, monkeypatch):
        # a smallest eigenvalue planted inside the clamp, [-PSD_CLAMP, 0), is
        # reported as it is, while the square root uses 0 in its place
        eigh = np.linalg.eigh
        planted = -0.5 * oracle.PSD_CLAMP
        factors = []

        def lowered(G):
            w, U = eigh(G)
            w[0] = planted
            factors.append((w.copy(), U.copy()))
            return w, U

        V = all_hypothesis_states(ProblemInstance(6, 2, 0.5))
        monkeypatch.setattr(oracle.np.linalg, "eigh", lowered)
        result = srm_success_oracle(V)
        (w, U), = factors
        assert result.eigenvalues[0] == planted
        assert result.eigenvalues.tobytes() == w.tobytes()
        diagonal = (U * U) @ np.sqrt(np.maximum(w, 0.0))
        assert result.diagonal.tobytes() == diagonal.tobytes()
        assert result.success == float(np.sum(diagonal**2) / V.shape[0])

    def test_stack_passed_as_a_temporary_is_freed_before_eigh(self, monkeypatch):
        eigh = np.linalg.eigh
        stacks, alive = [], []

        def recording(G):
            alive.append(stacks[0]() is not None)
            return eigh(G)

        def temporary():
            V = all_hypothesis_states(ProblemInstance(8, 3, 0.5))
            stacks.append(weakref.ref(V))
            return V

        monkeypatch.setattr(oracle.np.linalg, "eigh", recording)
        result = srm_success_oracle(temporary())
        assert alive == [False] and stacks[0]() is None
        assert result.success == srm_success_oracle(temporary()).success


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

