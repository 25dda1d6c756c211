import numpy as np
import pytest

from maxent_steer import (
    GateNotPD,
    GaussianMarginal,
    LinearSystemModel,
    MaxEntLqrProblem,
    NonpositiveEpsilon,
    SymMatrix,
    denormalize_policy,
    epsilon_normalize,
    lqr_policy,
    riccati_backward,
)
from maxent_steer.lqr import soft_value_offsets
from maxent_steer.simulate import propagate_policy_moments

from conftest import random_ltv_system, random_spd


def scalar_system(horizon=1, a=1.0, b=1.0):
    return LinearSystemModel(np.array([[a]]), np.array([[b]]), horizon)


class TestRiccatiBackward:
    def test_scalar_hand_value(self):
        ric = riccati_backward(scalar_system(), np.array([[1.0]]))
        assert ric.Pi[1, 0, 0] == pytest.approx(1.0)
        assert ric.Pi[0, 0, 0] == pytest.approx(0.5)

    def test_zero_terminal_weight_fixed_point(self):
        rng = np.random.default_rng(2)
        sys = random_ltv_system(rng)
        ric = riccati_backward(sys, np.zeros((sys.n, sys.n)))
        assert np.all(ric.Pi == 0)
        assert np.allclose(ric.gates, np.eye(sys.m), atol=1e-14)

    def test_psd_terminal_weight_stays_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sys = random_ltv_system(rng)
            f = random_spd(rng, sys.n, lo=0.0, hi=2.0)
            ric = riccati_backward(sys, f)
            for k in range(sys.horizon + 1):
                assert np.linalg.eigvalsh(ric.Pi[k])[0] >= -1e-10

    def test_recursion_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sys = random_ltv_system(rng)
            f = random_spd(rng, sys.n)
            ric = riccati_backward(sys, f)
            for k in range(sys.horizon):
                a, b = sys.a(k), sys.b(k)
                pa = ric.Pi[k + 1] @ a
                expect = a.T @ pa - pa.T @ b @ np.linalg.solve(ric.gates[k], b.T @ pa)
                assert np.linalg.norm(ric.Pi[k] - expect) <= 1e-10 * (
                    1 + np.linalg.norm(expect)
                )

    def test_gate_failure_carries_step(self):
        # strongly indefinite terminal weight drives the gate negative at once
        sys = scalar_system(horizon=2)
        with pytest.raises(GateNotPD) as info:
            riccati_backward(sys, np.array([[-2.0]]))
        assert info.value.step == 1


class TestLqrPolicy:
    def test_zero_weight_pure_exploration(self):
        rng = np.random.default_rng(3)
        sys = random_ltv_system(rng)
        ric = riccati_backward(sys, np.zeros((sys.n, sys.n)))
        pol = lqr_policy(sys, ric, epsilon=0.7)
        assert np.all(pol.gains == 0)
        assert np.allclose(pol.noise_covs, 0.7 * np.eye(sys.m)[None], atol=1e-14)

    def test_scalar_hand_policy(self):
        sys = scalar_system()
        ric = riccati_backward(sys, np.array([[1.0]]))
        pol = lqr_policy(sys, ric, np.zeros(1), 1.0)
        assert pol.gains[0, 0, 0] == pytest.approx(-0.5)
        assert pol.noise_covs[0, 0, 0] == pytest.approx(0.5)
        assert np.all(pol.feedforwards == 0)

    def test_nonzero_target_feedforward(self):
        sys = scalar_system(horizon=1, a=2.0)
        ric = riccati_backward(sys, np.array([[1.0]]))
        pol = lqr_policy(sys, ric, np.array([3.0]), 1.0)
        # c_0 = -K_0 Phi(0,1) target = -(-1/2 * 2) * (1/2) * 3
        assert pol.feedforwards[0, 0] == pytest.approx(1.5)

    def test_mean_optimality_against_perturbations(self):
        rng = np.random.default_rng(12)
        sys = random_ltv_system(rng, n_max=2, horizon_max=5)
        f = random_spd(rng, sys.n, lo=1.0, hi=2.0)
        ric = riccati_backward(sys, f)
        pol = lqr_policy(sys, ric, epsilon=1.0)
        x0 = rng.standard_normal(sys.n)

        def mean_cost(gains):
            x = x0.copy()
            cost = 0.0
            for k in range(sys.horizon):
                u = gains[k] @ x
                cost += 0.5 * float(u @ u)
                x = sys.a(k) @ x + sys.b(k) @ u
            return cost + 0.5 * float(x @ f @ x)

        base = mean_cost(pol.gains)
        for _ in range(100):
            noise = [0.05 * rng.standard_normal((sys.m, sys.n)) for _ in range(sys.horizon)]
            perturbed = [pol.gains[k] + noise[k] for k in range(sys.horizon)]
            assert mean_cost(perturbed) >= base - 1e-12


class TestEpsilonNormalization:
    def test_identity_at_unit_weight(self):
        sys = scalar_system()
        prob = MaxEntLqrProblem(sys, SymMatrix(np.eye(1)), np.zeros(1), 1.0)
        assert epsilon_normalize(prob) is prob

    def test_direct_substitution(self):
        sys = scalar_system()
        prob = MaxEntLqrProblem(sys, SymMatrix(2.0 * np.eye(1)), np.zeros(1), 4.0)
        norm = epsilon_normalize(prob)
        assert norm.epsilon == 1.0
        assert norm.system.B[0, 0, 0] == pytest.approx(2.0)
        assert norm.terminal_weight.data[0, 0] == pytest.approx(0.5)

    def test_round_trip_matches_direct_solve(self):
        rng = np.random.default_rng(21)
        for eps in (0.25, 1.7):
            sys = random_ltv_system(rng)
            f = random_spd(rng, sys.n)
            target = rng.standard_normal(sys.n)
            prob = MaxEntLqrProblem(sys, SymMatrix(f), target, eps)
            direct = prob.solve()
            mapped = denormalize_policy(epsilon_normalize(prob).solve(), eps)
            assert np.allclose(direct.gains, mapped.gains, atol=1e-10)
            assert np.allclose(direct.feedforwards, mapped.feedforwards, atol=1e-10)
            assert np.allclose(direct.noise_covs, mapped.noise_covs, atol=1e-10)

    def test_noise_scales_linearly_gain_invariant(self):
        rng = np.random.default_rng(27)
        sys = random_ltv_system(rng)
        f = random_spd(rng, sys.n)
        ric = riccati_backward(sys, f)
        pol_1 = lqr_policy(sys, ric, epsilon=1.0)
        pol_5 = lqr_policy(sys, ric, epsilon=5.0)
        assert np.array_equal(pol_1.gains, pol_5.gains)
        assert np.allclose(pol_5.noise_covs, 5.0 * pol_1.noise_covs, atol=1e-14)

    def test_nonpositive_epsilon_rejected(self):
        sys = scalar_system()
        with pytest.raises(NonpositiveEpsilon):
            MaxEntLqrProblem(sys, SymMatrix(np.eye(1)), np.zeros(1), -1.0)
        with pytest.raises(NonpositiveEpsilon):
            denormalize_policy(
                lqr_policy(sys, riccati_backward(sys, np.eye(1))), 0.0
            )

    def test_closed_loop_law_invariant_under_normalization(self):
        rng = np.random.default_rng(33)
        sys = random_ltv_system(rng)
        f = random_spd(rng, sys.n)
        eps = 0.3
        prob = MaxEntLqrProblem(sys, SymMatrix(f), np.zeros(sys.n), eps)
        norm = epsilon_normalize(prob)
        init = GaussianMarginal(np.zeros(sys.n), SymMatrix(random_spd(rng, sys.n)))
        m_direct, c_direct = propagate_policy_moments(sys, prob.solve(), init)
        m_norm, c_norm = propagate_policy_moments(norm.system, norm.solve(), init)
        assert np.allclose(m_direct, m_norm, atol=1e-12)
        assert np.allclose(c_direct, c_norm, atol=1e-11)


class TestSoftValueOffsets:
    def test_lazy_diagnostic_shape_and_sign(self):
        rng = np.random.default_rng(41)
        sys = random_ltv_system(rng)
        ric = riccati_backward(sys, random_spd(rng, sys.n))
        offsets = soft_value_offsets(sys, ric, epsilon=1.0)
        assert offsets.shape == (sys.horizon + 1,)
        assert offsets[-1] == 0.0

    def test_accumulates_per_step_log_normalizer(self):
        sys = scalar_system()
        ric = riccati_backward(sys, np.array([[1.0]]))
        offsets = soft_value_offsets(sys, ric, epsilon=1.0)
        expected = -0.5 * (np.log(2 * np.pi) - np.log(2.0))
        assert offsets[0] == pytest.approx(expected)
