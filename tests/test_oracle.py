import math
from functools import reduce

import numpy as np
import pytest

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
                assert np.array_equal(all_hypothesis_states(inst), np.array(folds))

    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_kron_fold_bitwise_at_large_n(self, n):
        for k in range(5):
            for c in (0.37, 1.0):
                phi0 = np.array([1.0, 0.0])
                phi1 = np.array([c, math.sqrt(max(0.0, 1 - c * c))])
                folds = [
                    reduce(np.kron, [phi1 if pos in pat else phi0 for pos in range(1, n + 1)])
                    for pat in enumerate_patterns(n, k)
                ]
                states = all_hypothesis_states(ProblemInstance(n, k, c))
                assert np.array_equal(states, np.array(folds)), (k, c)


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
        M = result.measurement_vectors
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
        # outcome distribution of the POVM when hypothesis 0 is true
        probs = (result.measurement_vectors @ V[0]) ** 2
        assert abs(probs.sum() - 1) < 1e-12
        assert abs(probs[0] - result.diagonal[0] ** 2) < 1e-12
        assert abs(probs[0] - 0.947662716995912) < 1e-10

    def test_measurement_vectors_on_first_access(self):
        V = all_hypothesis_states(ProblemInstance(5, 2, 0.5))
        result = srm_success_oracle(V)
        assert "measurement_vectors" not in vars(result)
        M = result.measurement_vectors
        assert result.measurement_vectors is M
        assert np.abs(np.diag(M @ V.T) - result.diagonal).max() < 1e-12  # <m_r|Psi_r> = S_rr

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_states(self, bad):
        V = all_hypothesis_states(ProblemInstance(4, 2, 0.5))
        V[2, 3] = bad
        with pytest.raises(ValueError, match="states have NaN or infinite"):
            srm_success_oracle(V)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_rejects_gram_that_overflows(self):
        # finite states whose inner products overflow to inf
        with pytest.raises(ValueError, match="NaN or infinite"):
            srm_success_oracle(np.full((2, 2), 1e200))

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

    def test_conditional_success_is_hypothesis_independent(self):
        result = srm_success_oracle(all_hypothesis_states(ProblemInstance(6, 2, 0.6)))
        d = result.diagonal
        assert d.max() - d.min() < 1e-10


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            holevo_check(np.eye(4), [np.eye(8) / 8])

