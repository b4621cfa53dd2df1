import math
from functools import reduce

import numpy as np
import pytest

from anomdet.combin import binomial, enumerate_patterns
from anomdet.gram import ProblemInstance, gram_matrix
from anomdet.oracle import (
    _universal_srm,
    all_hypothesis_states,
    holevo_check,
    hypothesis_state,
    srm_success_oracle,
    universal_hypothesis,
    universal_success_oracle,
)
from anomdet.protocols import min_error_success
from anomdet.universal import UniversalInstance, universal_success


class TestHypothesisStates:
    def test_single_system(self):
        state = hypothesis_state(ProblemInstance(1, 1, 0.6), (1,))
        assert np.allclose(state, [0.6, 0.8])

    def test_unit_norm(self):
        inst = ProblemInstance(6, 2, 0.37)
        for pat in enumerate_patterns(6, 2):
            assert abs(np.linalg.norm(hypothesis_state(inst, pat)) - 1) < 1e-12

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
        inst = ProblemInstance(4, 2, 0.5)
        a = hypothesis_state(inst, (3, 4))
        b = hypothesis_state(inst, (1, 2))
        assert abs(float(a @ b) - 0.5**4) < 1e-14

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hypothesis_state(ProblemInstance(15, 2, 0.5), (1, 2))
        with pytest.raises(ValueError):
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
                    assert np.array_equal(hypothesis_state(inst, pat), state)
                assert np.array_equal(all_hypothesis_states(inst), np.array(folds))


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

    def test_matches_closed_form(self):
        for n, k in [(4, 2), (5, 2), (6, 3)]:
            for c in (0.25, 0.5, 0.75):
                inst = ProblemInstance(n, k, c)
                oracle_val = srm_success_oracle(all_hypothesis_states(inst)).success
                assert abs(oracle_val - min_error_success(inst).value) < 1e-10

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

    def test_conditional_success_is_hypothesis_independent(self):
        result = srm_success_oracle(all_hypothesis_states(ProblemInstance(6, 2, 0.6)))
        d = result.diagonal
        assert d.max() - d.min() < 1e-10


class TestUniversalHypothesis:
    def test_unit_trace_and_psd(self):
        for n, k, d in [(4, 1, 2), (4, 2, 2), (5, 2, 2), (4, 2, 3)]:
            for pat in enumerate_patterns(n, k):
                rho = universal_hypothesis(pat, n, k, d)
                assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh(rho)[0] > -1e-10

    def test_two_systems_maximally_mixed(self):
        for pat in [(1,), (2,)]:
            rho = universal_hypothesis(pat, 2, 1, 2)
            assert np.abs(rho - np.eye(4) / 4).max() < 1e-12

    def test_rank_is_product_of_symmetric_dimensions(self):
        n, k, d = 5, 2, 2
        rho = universal_hypothesis((2, 4), n, k, d)
        rank = int(np.sum(np.linalg.eigvalsh(rho) > 1e-10))
        assert rank == binomial(k + d - 1, d - 1) * binomial(n - k + d - 1, d - 1)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            universal_hypothesis((1, 2), 3, 2, 2)

    @pytest.mark.parametrize("n,k,d", [(4, 1, 2), (5, 2, 2), (6, 3, 2), (4, 2, 3)])
    def test_is_the_projector_onto_sym_tensor_sym(self, n, k, d):
        # P = r rho_S: an orthogonal projector of rank r fixing r independent
        # phi^(n-k) (x) psi^k (psi at the pattern) is the one onto Sym (x) Sym
        r = binomial(n - k + d - 1, d - 1) * binomial(k + d - 1, d - 1)
        rng = np.random.default_rng(2024)
        for pat in enumerate_patterns(n, k):
            P = r * universal_hypothesis(pat, n, k, d)
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

    @pytest.mark.parametrize("n,k,d", [(4, 2, 2), (5, 2, 2), (6, 3, 2), (4, 2, 3)])
    def test_matches_closed_form(self, n, k, d):
        closed = float(universal_success(UniversalInstance(n, k, d)))
        assert abs(universal_success_oracle(n, k, d) - closed) < 1e-8


class TestHolevoCheck:
    def _setup(self, n=4, k=1, d=2):
        isometries, R = _universal_srm(n, k, d)
        hyps = [B @ B.T / B.shape[1] for B in isometries]
        proj = R @ np.sum(hyps, axis=0) @ R  # projector onto the support of rho
        c_k = 1 / (binomial(n - k + d - 1, d - 1) * binomial(k + d - 1, d - 1))
        return hyps, R, proj, c_k

    def test_uniform_witness_feasible(self):
        hyps, _, proj, c_k = self._setup()
        report = holevo_check(c_k * proj, hyps)
        assert report.feasible

    def test_zero_witness_infeasible(self):
        hyps, _, _, _ = self._setup()
        report = holevo_check(np.zeros_like(hyps[0]), hyps)
        assert not report.feasible
        assert report.worst_violation < -1e-3

    def test_srm_induced_witness_feasible(self):
        hyps, R, _, _ = self._setup()
        Y = np.sum([R @ h @ R @ h for h in hyps], axis=0)
        report = holevo_check((Y + Y.T) / 2, hyps)
        assert report.feasible

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            holevo_check(np.eye(4), [np.eye(8) / 8])

