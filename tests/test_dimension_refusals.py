"""Shape mismatches between a system and the Riccati solutions, policies and
Lyapunov pairs built for it are refused as :class:`DimensionMismatch`."""

import numpy as np
import pytest

from maxent_steer import (
    AffineGaussianPolicy,
    DimensionMismatch,
    GaussianMarginal,
    LinearSystemModel,
    lqr_policy,
    optimal_density_policy,
    propagate_policy_moments,
    riccati_backward,
    solve_coupled_lyapunov,
)

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T


@pytest.fixture
def short():
    return LinearSystemModel(DEMO_A, DEMO_B, 5)


def test_riccati_terminal_weight_of_another_size(short):
    with pytest.raises(DimensionMismatch, match="terminal weight is 3x3, state dim is 2"):
        riccati_backward(short, np.eye(3))


def test_lqr_policy_from_a_sweep_of_another_horizon(short):
    other = riccati_backward(LinearSystemModel(DEMO_A, DEMO_B, 6), np.eye(2))
    with pytest.raises(DimensionMismatch, match="Riccati solution does not match the system"):
        lqr_policy(short, other)


def test_policy_with_two_dimensional_gains():
    with pytest.raises(DimensionMismatch, match=r"gains must be \(N, m, n\)"):
        AffineGaussianPolicy(np.zeros((1, 2)), np.zeros((5, 1)), np.ones((5, 1, 1)))


@pytest.mark.parametrize("shape", [(4, 1), (5, 2)])
def test_policy_with_feedforwards_of_the_wrong_shape(shape):
    with pytest.raises(DimensionMismatch, match="inconsistent policy shapes"):
        AffineGaussianPolicy(np.zeros((5, 1, 2)), np.zeros(shape), np.ones((5, 1, 1)))


def test_density_policy_from_a_pair_of_another_horizon(short):
    pair = solve_coupled_lyapunov(LinearSystemModel(DEMO_A, DEMO_B, 20), DEMO_SIGMA0, DEMO_SIGMA_T)
    with pytest.raises(DimensionMismatch, match="Lyapunov pair does not match the system"):
        optimal_density_policy(short, pair)


def test_moments_of_a_policy_of_another_system(short):
    other = LinearSystemModel(DEMO_A, DEMO_B, 6)
    policy = lqr_policy(other, riccati_backward(other, np.eye(2)))
    with pytest.raises(DimensionMismatch, match="policy does not match system"):
        propagate_policy_moments(short, policy, GaussianMarginal(np.zeros(2), np.eye(2)))
