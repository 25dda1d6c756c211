"""Mean steering takes its feedforward from a closed loop of the Riccati sweep.

The minimum-energy mean path is checked against a 60-digit mpmath
reference, its endpoint against the target on long and 8-state horizons,
and the terminal mean of :func:`general_policy` under float64 propagation.
"""

import mpmath
import numpy as np
import pytest

from maxent_steer import (
    DimensionMismatch,
    GaussianMarginal,
    LinearSystemModel,
    SingularGramian,
    SymMatrix,
    general_policy,
    mean_steering,
    propagate_policy_moments,
)

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T, DEMO_X0, DEMO_XT

DIGITS = 60
TOL = 1e-12


def reference_mean_steering(a, b, horizon, mu0, mu_t):
    """ubar_k = B^T Phi(N, k+1)^T G_r(N, 0)^{-1} (mu_N - Phi(N, 0) mu_0) and its mean
    path, for a time-invariant (A, B), in DIGITS-digit arithmetic."""
    with mpmath.workdps(DIGITS):
        am, bm = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
        phi = [mpmath.eye(am.rows)]  # phi[j] = Phi(N, N - j)
        for _ in range(horizon):
            phi.append(phi[-1] * am)
        gram = mpmath.zeros(am.rows, am.rows)
        for j in range(horizon):
            w = phi[j] * bm
            gram += w * w.T
        m0 = mpmath.matrix(mu0.tolist())
        y = mpmath.lu_solve(gram, mpmath.matrix(mu_t.tolist()) - phi[horizon] * m0)
        ubar = [bm.T * phi[horizon - k - 1].T * y for k in range(horizon)]
        mu = [m0]
        for k in range(horizon):
            mu.append(am * mu[k] + bm * ubar[k])
        as_array = lambda vs: np.array([[float(x) for x in v] for v in vs])  # noqa: E731
        return as_array(ubar), as_array(mu)


def near_identity_plant():
    """8-state near-identity plant: spectral radius 1.05, min |eigenvalue| 0.86, m = 3."""
    rng = np.random.default_rng(2)
    lam = np.array([1.05, 1.02, 1.0, 0.98, 0.95, 0.92, 0.89, 0.86])
    v = np.eye(8) + 0.2 * rng.standard_normal((8, 8))
    a = v @ np.diag(lam) @ np.linalg.inv(v)
    b = 0.3 * rng.standard_normal((8, 3))
    return a, b, np.ones(8), np.zeros(8)


@pytest.mark.parametrize("horizon", [50, 65, 100])
def test_mean_steering_matches_the_extended_reference(horizon):
    sys = LinearSystemModel(DEMO_A, DEMO_B, horizon)
    ubar, mu = mean_steering(sys, DEMO_X0, DEMO_XT)
    ubar_ref, mu_ref = reference_mean_steering(DEMO_A, DEMO_B, horizon, DEMO_X0, DEMO_XT)
    assert np.abs(ubar - ubar_ref).max() <= TOL
    assert np.abs(mu - mu_ref).max() <= TOL


@pytest.mark.parametrize(
    "plant, horizon",
    [("demo", 500), ("demo", 2000), ("near-identity8", 100), ("near-identity8", 200)],
)
def test_mean_steering_hits_the_target(plant, horizon):
    a, b, mu0, mu_t = (DEMO_A, DEMO_B, DEMO_X0, DEMO_XT) if plant == "demo" else near_identity_plant()
    _, mu = mean_steering(LinearSystemModel(a, b, horizon), mu0, mu_t)
    assert np.isfinite(mu).all()
    assert np.abs(mu[-1] - mu_t).max() <= TOL


@pytest.mark.parametrize("horizon", [50, 62, 65])
def test_general_policy_terminal_mean(horizon):
    sys = LinearSystemModel(DEMO_A, DEMO_B, horizon)
    initial = GaussianMarginal(DEMO_X0, SymMatrix(DEMO_SIGMA0))
    terminal = GaussianMarginal(DEMO_XT, SymMatrix(DEMO_SIGMA_T))
    policy = general_policy(sys, initial, terminal)
    means, _ = propagate_policy_moments(sys, policy, initial)
    assert np.abs(means[-1] - DEMO_XT).max() <= TOL


def test_unreachable_system_is_refused():
    sys = LinearSystemModel(DEMO_A, np.zeros((2, 1)), 10)
    with pytest.raises(SingularGramian, match="reachability Gramian of the full horizon is singular"):
        mean_steering(sys, DEMO_X0, DEMO_XT)


@pytest.mark.parametrize("mu0, mu_t", [(np.zeros(3), DEMO_XT), (DEMO_X0, np.zeros(1))])
def test_wrong_length_means_are_refused(mu0, mu_t):
    with pytest.raises(DimensionMismatch):
        mean_steering(LinearSystemModel(DEMO_A, DEMO_B, 10), mu0, mu_t)
