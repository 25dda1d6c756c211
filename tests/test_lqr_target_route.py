"""A terminal target enters the regulator policy through its closed-loop costate.

The target feedforwards of :func:`lqr_policy` are checked against a 60-digit
mpmath Riccati and costate reference on long demo horizons, where pulling the
target back through A_k^{-1} amplified round-off by Phi(k, N), and on a plant
with a singular A_k, where it could not be pulled back at all.
"""

import mpmath
import numpy as np
import pytest

from maxent_steer import (
    DimensionMismatch,
    LinearSystemModel,
    MaxEntLqrProblem,
    SymMatrix,
    lqr_policy,
    riccati_backward,
)

from conftest import DEMO_A, DEMO_B, DEMO_XT

DIGITS = 60
TOL = 1e-12
WEIGHT = 10.0 * np.eye(2)

def reference_policy(a_seq, b, weight, target):
    """Gains, feedforwards and unit-weight noise covariances of the terminal-target
    regulator for a stack ``a_seq`` and one B, in DIGITS-digit arithmetic:
    R_k = (I + B^T Pi_{k+1} B)^{-1}, K_k = -R_k B^T Pi_{k+1} A_k and
    c_k = -R_k B^T s_{k+1}, with the costate s_N = -Pi_N xbar_N and
    s_k = (A_k + B K_k)^T s_{k+1}."""
    horizon = len(a_seq)
    gains, feeds, covs = [None] * horizon, [None] * horizon, [None] * horizon
    with mpmath.workdps(DIGITS):
        bm = mpmath.matrix(b.tolist())
        pi = mpmath.matrix(weight.tolist())
        s = -(pi * mpmath.matrix(target.tolist()))
        eye = mpmath.eye(bm.cols)
        for k in range(horizon - 1, -1, -1):
            am = mpmath.matrix(a_seq[k].tolist())
            r = mpmath.inverse(eye + bm.T * pi * bm)
            gain = -(r * bm.T * pi * am)
            gains[k], feeds[k], covs[k] = gain, -(r * bm.T * s), r
            acl = am + bm * gain
            s = acl.T * s
            pi = acl.T * pi * am
            pi = (pi + pi.T) / 2
        as_array = lambda ms: np.array([[[float(x) for x in row] for row in m.tolist()] for m in ms])  # noqa: E731
        return as_array(gains), as_array(feeds)[:, :, 0], as_array(covs)

@pytest.mark.parametrize("horizon", [50, 200, 500, 2000])
def test_target_feedforwards_match_the_extended_reference(horizon):
    sys = LinearSystemModel(DEMO_A, DEMO_B, horizon)
    policy = lqr_policy(sys, riccati_backward(sys, WEIGHT), DEMO_XT)
    _, feed_ref, _ = reference_policy(sys.A, DEMO_B, WEIGHT, DEMO_XT)
    assert np.abs(policy.feedforwards - feed_ref).max() <= TOL

@pytest.mark.parametrize("epsilon", [1.0, 0.5])
def test_singular_dynamics_with_a_target(epsilon):
    """Demo at N = 20 with A_3 = 0: served, where the A^{-1} pullback raised SingularA."""
    a = np.stack([DEMO_A] * 20)
    a[3] = 0.0
    sys = LinearSystemModel(a, DEMO_B, 20)
    policy = MaxEntLqrProblem(sys, SymMatrix(WEIGHT), DEMO_XT, epsilon).solve()
    gains, feeds, covs = reference_policy(a, DEMO_B, WEIGHT, DEMO_XT)
    for got in (policy.gains, policy.feedforwards, policy.noise_covs):
        assert np.isfinite(got).all()
    assert np.abs(policy.gains - gains).max() <= TOL
    assert np.abs(policy.feedforwards - feeds).max() <= TOL
    assert np.abs(policy.noise_covs - epsilon * covs).max() <= TOL
    assert np.any(policy.feedforwards[3:])


@pytest.mark.parametrize("target", [[1.0, 0.0, 0.0], [1.0], [[1.0], [0.0]]])
def test_target_of_the_wrong_shape_is_refused(target):
    sys = LinearSystemModel(DEMO_A, DEMO_B, 5)
    with pytest.raises(DimensionMismatch, match="terminal target"):
        lqr_policy(sys, riccati_backward(sys, WEIGHT), target)
    with pytest.raises(DimensionMismatch, match="terminal target"):
        MaxEntLqrProblem(sys, SymMatrix(WEIGHT), target, 1.0)
