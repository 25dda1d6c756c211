import numpy as np
import pytest

from maxent_steer import (
    DimensionMismatch,
    LinearSystemModel,
    NotPD,
    SingularGramian,
    bridge_verify,
    conditional_gaussian_oracle,
    coupling_objective,
    gaussian_kl,
    mean_steering,
    pinned_controller,
    pinned_moments_controller,
    point_to_point_policy,
    reachability_gramian,
    sample_ensemble,
    transition,
)
from maxent_steer.system import _require_reachable

from conftest import (
    DEMO_A,
    DEMO_B,
    DEMO_SIGMA0,
    DEMO_SIGMA_T,
    DEMO_X0,
    DEMO_XT,
    random_feasible_instance,
    random_pinned_instance,
    random_spd,
)


class TestPointToPointPolicy:
    def test_scalar_single_step_exact(self):
        sys = LinearSystemModel(np.eye(1), np.eye(1), 1)
        pol = point_to_point_policy(sys, np.zeros(1), np.array([2.0]))
        # u_0 = target - x, deterministically
        assert pol.gains[0, 0, 0] == pytest.approx(-1.0)
        assert pol.feedforwards[0, 0] == pytest.approx(2.0)
        assert pol.noise_covs[0, 0, 0] == 0.0

    def test_demo_paths_reach_target(self, demo_system):
        pol = point_to_point_policy(demo_system, DEMO_X0, DEMO_XT)
        ens = sample_ensemble(demo_system, pol, DEMO_X0, 500, 99)
        assert np.abs(ens.states[:, -1] - DEMO_XT).max() <= 1e-8

    def test_last_step_noise_annihilates_input_range(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            sys, x0, xt = random_pinned_instance(rng)
            pol = point_to_point_policy(sys, x0, xt)
            w_last = pol.noise_covs[-1]
            if np.linalg.norm(sys.b(sys.horizon - 1)) == 0:
                continue
            # singular at the final step and zero on the row space of B
            assert np.linalg.eigvalsh(w_last)[0] <= 1e-12
            probe = sys.b(sys.horizon - 1).T @ rng.standard_normal(sys.n)
            assert np.linalg.norm(w_last @ probe) <= 1e-10 * (1 + np.linalg.norm(probe))

    def test_noise_eigenvalues_within_unit_band(self):
        rng = np.random.default_rng(67)
        sys, x0, xt = random_pinned_instance(rng)
        pol = point_to_point_policy(sys, x0, xt)
        for k in range(sys.horizon):
            w = np.linalg.eigvalsh(pol.noise_covs[k])
            assert w[0] >= 0.0
            assert w[-1] <= 1.0 + 1e-10

    def test_wide_input_noise_is_projection_onto_nullspace(self):
        # more inputs than states: the final-step covariance is a genuine
        # orthogonal projection (idempotent, singular, not zero)
        rng = np.random.default_rng(71)
        a = np.stack([np.eye(2) + 0.2 * rng.standard_normal((2, 2)) for _ in range(4)])
        b = rng.standard_normal((4, 2, 3))
        sys = LinearSystemModel(a, b)
        pol = point_to_point_policy(sys, np.zeros(2), np.ones(2))
        w_last = pol.noise_covs[-1]
        assert np.linalg.norm(w_last @ w_last - w_last) <= 1e-9
        eigs = np.linalg.eigvalsh(w_last)
        assert eigs[0] <= 1e-12 and eigs[-1] == pytest.approx(1.0, abs=1e-9)

    def test_controller_closed_loop_consistency(self, demo_system):
        ctrl = pinned_controller(demo_system, DEMO_X0, DEMO_XT)
        pol = ctrl.policy
        for k in range(demo_system.horizon):
            a_cl = demo_system.a(k) + demo_system.b(k) @ pol.gains[k]
            assert np.allclose(a_cl, ctrl.closed_loop[k], atol=1e-9)
            feed_state = demo_system.b(k) @ pol.feedforwards[k]
            assert np.allclose(feed_state, ctrl.target_gain[k] @ DEMO_XT, atol=1e-9)

    def test_requires_invertible_gramian(self):
        sys = LinearSystemModel(np.eye(2), np.zeros((2, 1)), 3)
        with pytest.raises(SingularGramian):
            point_to_point_policy(sys, np.zeros(2), np.ones(2))


class TestPinnedMoments:
    def test_zero_endpoints_zero_mean(self):
        rng = np.random.default_rng(73)
        sys, _, _ = random_pinned_instance(rng)
        mom = pinned_moments_controller(sys, np.zeros(sys.n), np.zeros(sys.n))
        assert np.abs(mom.mean).max() <= 1e-12

    def test_endpoints_pinned_exactly(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            sys, x0, xt = random_pinned_instance(rng)
            mom = pinned_moments_controller(sys, x0, xt)
            assert np.allclose(mom.mean[0], x0, atol=1e-12)
            assert np.allclose(mom.mean[-1], xt, atol=1e-9)
            assert np.abs(mom.cov_block(0, 0)).max() == 0.0
            assert np.abs(mom.cov_block(sys.horizon, sys.horizon)).max() <= 1e-9

    def test_free_drift_target_keeps_drift_mean(self):
        rng = np.random.default_rng(83)
        sys, x0, _ = random_pinned_instance(rng)
        xt = transition(sys, sys.horizon, 0) @ x0
        mom = pinned_moments_controller(sys, x0, xt)
        for k in range(sys.horizon + 1):
            drift = transition(sys, k, 0) @ x0
            assert np.allclose(mom.mean[k], drift, atol=1e-9 * (1 + np.abs(drift).max()))

    def test_matches_conditioning_oracle_random(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            sys, x0, xt = random_pinned_instance(rng)
            ctrl = pinned_moments_controller(sys, x0, xt)
            oracle = conditional_gaussian_oracle(sys, x0, xt)
            assert np.abs(ctrl.mean - oracle.mean).max() <= 1e-9
            assert np.abs(ctrl.cov - oracle.cov).max() <= 1e-9

    def test_diagonal_blocks_psd(self):
        rng = np.random.default_rng(91)
        sys, x0, xt = random_pinned_instance(rng)
        mom = pinned_moments_controller(sys, x0, xt)
        for k in range(sys.horizon + 1):
            block = mom.cov_block(k, k)
            assert np.linalg.eigvalsh(block)[0] >= -1e-10 * (1 + np.abs(block).max())

    def test_matches_conditioning_oracle_demo(self, demo_system):
        ctrl = pinned_moments_controller(demo_system, DEMO_X0, DEMO_XT)
        oracle = conditional_gaussian_oracle(demo_system, DEMO_X0, DEMO_XT)
        assert np.abs(ctrl.mean - oracle.mean).max() <= 1e-9
        assert np.abs(ctrl.cov - oracle.cov).max() <= 1e-9

    def test_mean_matches_conditional_formula(self):
        # ell_k = Phi(k,0) x0 + P_k Phi(N,k)^T P_N^{-1} (xt - Phi(N,0) x0)
        rng = np.random.default_rng(97)
        for _ in range(10):
            sys, x0, xt = random_pinned_instance(rng)
            horizon = sys.horizon
            p = np.zeros((sys.n, sys.n))
            ps = [p]
            for k in range(horizon):
                p = sys.a(k) @ p @ sys.a(k).T + sys.b(k) @ sys.b(k).T
                ps.append(p)
            pn_inv = np.linalg.inv(ps[horizon])
            innov = xt - transition(sys, horizon, 0) @ x0
            mom = pinned_moments_controller(sys, x0, xt)
            for k in range(horizon + 1):
                expect = transition(sys, k, 0) @ x0 + ps[k] @ transition(
                    sys, horizon, k
                ).T @ pn_inv @ innov
                assert np.abs(mom.mean[k] - expect).max() <= 1e-9 * (
                    1 + np.abs(expect).max()
                )

    def test_two_filtration_identity(self):
        # Phi(N,k)^T P_N^{-1} Phi(N,k) = (P_k + Q_k)^{-1} wherever defined
        rng = np.random.default_rng(101)
        for _ in range(10):
            sys, _, _ = random_pinned_instance(rng)
            horizon, n = sys.horizon, sys.n
            p = np.zeros((n, n))
            ps = [p]
            for k in range(horizon):
                p = sys.a(k) @ p @ sys.a(k).T + sys.b(k) @ sys.b(k).T
                ps.append(p)
            qs = [None] * (horizon + 1)
            qs[horizon] = np.zeros((n, n))
            for k in range(horizon - 1, -1, -1):
                a_inv = np.linalg.inv(sys.a(k))
                qs[k] = a_inv @ (qs[k + 1] + sys.b(k) @ sys.b(k).T) @ a_inv.T
            pn_inv = np.linalg.inv(ps[horizon])
            for k in range(horizon + 1):
                total = ps[k] + qs[k]
                w = np.abs(np.linalg.eigvalsh(total))
                if w.min() <= 1e-9 * max(1.0, w.max()):
                    continue
                phi = transition(sys, horizon, k)
                lhs = phi.T @ pn_inv @ phi
                rhs = np.linalg.inv(total)
                assert np.abs(lhs - rhs).max() <= 1e-9 * (1 + np.abs(rhs).max())

    def test_sampled_paths_match_kernel(self, demo_system):
        ctrl = pinned_controller(demo_system, DEMO_X0, DEMO_XT)
        ens = sample_ensemble(demo_system, ctrl, DEMO_X0, 4000, 11)
        mom = pinned_moments_controller(demo_system, DEMO_X0, DEMO_XT)
        mid = demo_system.horizon // 2
        sample_cov = np.cov(ens.states[:, mid].T)
        assert np.linalg.norm(sample_cov - mom.cov_block(mid, mid)) <= 0.1 * (
            1 + np.linalg.norm(mom.cov_block(mid, mid))
        )

    def test_dimension_checks(self, demo_system):
        with pytest.raises(DimensionMismatch):
            pinned_moments_controller(demo_system, np.zeros(3), DEMO_XT)


class TestGaussianKl:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(103)
        s = random_spd(rng, 3)
        assert gaussian_kl(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_value(self):
        assert gaussian_kl(2 * np.eye(2), np.eye(2)) == pytest.approx(
            1.0 - np.log(2.0), abs=1e-12
        )

    def test_asymmetry(self):
        rng = np.random.default_rng(107)
        a, b = random_spd(rng, 2), random_spd(rng, 2)
        assert gaussian_kl(a, b) != pytest.approx(gaussian_kl(b, a), abs=1e-12)

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            kl = gaussian_kl(a, b)
            assert kl >= 0.0
            if np.linalg.norm(a - b) > 1e-6:
                assert kl > 0.0

    def test_not_pd_rejected(self):
        with pytest.raises(NotPD):
            gaussian_kl(np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(NotPD):
            gaussian_kl(np.eye(2), np.diag([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gaussian_kl(np.eye(2), np.eye(3))


class TestBridgeVerify:
    def test_demo_instance_all_residuals_small(self, demo_system):
        report = bridge_verify(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
        assert report.skipped_reason is None
        assert not report.epsilon_normalized
        assert report.max_residual <= 1e-7
        assert report.ok()

    def test_demo_small_weight_normalized(self, demo_system):
        report = bridge_verify(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, 0.02)
        assert report.epsilon_normalized
        assert report.max_residual <= 1e-7

    def test_random_instances(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            sys, s0, st, eps = random_feasible_instance(rng)
            report = bridge_verify(sys, s0, st, eps)
            assert report.skipped_reason is None
            assert report.max_residual <= 1e-7

    def test_path_and_coupling_relative_entropies_agree(self, demo_system):
        report = bridge_verify(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
        assert report.path_kl == pytest.approx(report.coupling_kl, rel=1e-7)
        assert report.path_kl > 0

    def test_infeasible_boundary_reports_skip(self, demo_system):
        phi = transition(demo_system, 50, 0)
        gr = reachability_gramian(demo_system, 50, 0).data
        sigma_t = phi @ DEMO_SIGMA0 @ phi.T + gr
        report = bridge_verify(demo_system, DEMO_SIGMA0, sigma_t, 1.0)
        assert report.skipped_reason is not None
        assert not report.ok()
        assert np.isnan(report.max_residual)

    def test_optimal_coupling_maximizes_objective(self, demo_system):
        report = bridge_verify(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
        y_opt = report.coupling_cross
        f_opt = coupling_objective(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, y_opt)
        rng = np.random.default_rng(127)
        accepted = 0
        while accepted < 100:
            perturbed = y_opt + 1e-2 * rng.standard_normal(y_opt.shape)
            try:
                f_pert = coupling_objective(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, perturbed)
            except NotPD:
                continue
            accepted += 1
            assert f_pert <= f_opt + 1e-12

    def test_coupling_objective_refuses_unreachable_system(self):
        sys = LinearSystemModel([[0.9, 0.1], [0.05, 1.2]], np.zeros((2, 1)), 10)
        with pytest.raises(SingularGramian, match="reachability Gramian of the full horizon is singular"):
            coupling_objective(sys, DEMO_SIGMA0, DEMO_SIGMA_T, np.zeros((2, 2)))

    def test_coupling_objective_reads_reachability_from_the_spectrum(self):
        """G_r = N I has zero off-diagonal entries but is well conditioned; G_r = N [[1, 1], [1, 1]]
        has entries of one size but is singular. Only its eigenvalues tell the two apart."""
        reachable = LinearSystemModel(np.eye(2), np.eye(2), 10)
        f = coupling_objective(reachable, DEMO_SIGMA0, DEMO_SIGMA_T, np.zeros((2, 2)))
        assert f == pytest.approx(np.linalg.slogdet(DEMO_SIGMA_T)[1], rel=1e-12)
        unreachable = LinearSystemModel(np.eye(2), [[1.0], [1.0]], 10)
        with pytest.raises(SingularGramian, match="reachability Gramian of the full horizon is singular"):
            coupling_objective(unreachable, DEMO_SIGMA0, DEMO_SIGMA_T, np.zeros((2, 2)))

    def test_reachability_rule_refuses_a_matrix(self):
        with pytest.raises(ValueError, match="one vector of eigenvalues"):
            _require_reachable(10.0 * np.eye(2))


def test_singular_dynamics_are_served():
    """Demo at N = 20 with A_3 = 0: the pinned pieces invert no A_k, so the controller
    follows the minimum-energy mean path and its rollouts hit the target."""
    a = np.stack([DEMO_A] * 20)
    a[3] = 0.0
    sys = LinearSystemModel(a, DEMO_B, 20)
    moments = pinned_moments_controller(sys, DEMO_X0, DEMO_XT)
    assert np.abs(moments.mean - mean_steering(sys, DEMO_X0, DEMO_XT)[1]).max() <= 1e-12
    ens = sample_ensemble(sys, point_to_point_policy(sys, DEMO_X0, DEMO_XT), DEMO_X0, 50, 3)
    assert np.abs(ens.states[:, -1] - DEMO_XT).max() <= 1e-9
