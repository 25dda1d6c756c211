"""The conditioning oracle, which factors the observed block once, against the
pairwise construction: one joint Gaussian of (y_k, y_s, y_N) per pair of times,
each conditioned through the public ``gaussian_condition``."""

import numpy as np
import pytest

from maxent_steer import LinearSystemModel, conditional_gaussian_oracle, gaussian_condition
from maxent_steer.system import _Pipeline

from conftest import DEMO_A, DEMO_B, DEMO_X0, DEMO_XT


def pairwise_oracle(sys, x0bar, target):
    x = np.longdouble
    pipe = _Pipeline(sys)
    horizon, n = sys.horizon, sys.n
    gcn, mk, total = pipe.gcn, pipe.mk, pipe.gcn[horizon]
    g0 = pipe.phic[0] @ np.asarray(x0bar, dtype=x)
    y_obs = pipe.phic[horizon] @ np.asarray(target, dtype=x)
    mean = np.zeros((horizon + 1, n))
    cov = np.zeros((horizon + 1, horizon + 1, n, n))
    mean[horizon] = target
    for k in range(horizon):
        joint = np.block([[gcn[k], gcn[k]], [gcn[k], total]])
        cond = gaussian_condition(joint, np.concatenate([g0, g0]), y_obs)
        mean[k] = mk[k] @ cond.mean
        c_kk = mk[k] @ cond.cov.data @ mk[k].T
        cov[k, k] = (c_kk + c_kk.T) / 2
        for s in range(k + 1, horizon):
            joint = np.block(
                [[gcn[k], gcn[k], gcn[k]], [gcn[k], gcn[s], gcn[s]], [gcn[k], gcn[s], total]]
            )
            cond = gaussian_condition(joint, np.concatenate([g0, g0, g0]), y_obs)
            cov[k, s] = mk[k] @ cond.cov.data[:n, n:] @ mk[s].T
            cov[s, k] = cov[k, s].T
    return mean, cov


def plants():
    rng = np.random.default_rng(11)
    horizon = 12
    a = np.eye(3) + 0.2 * rng.standard_normal((horizon, 3, 3))
    b = 0.5 * rng.standard_normal((horizon, 3, 2))
    return [
        (LinearSystemModel(DEMO_A, DEMO_B, 20), DEMO_X0, DEMO_XT),
        (LinearSystemModel(a, b, horizon), rng.standard_normal(3), rng.standard_normal(3)),
    ]


@pytest.mark.parametrize("case", range(2))
def test_oracle_matches_pairwise_conditioning(case):
    sys, x0, xt = plants()[case]
    mean, cov = pairwise_oracle(sys, x0, xt)
    oracle = conditional_gaussian_oracle(sys, x0, xt)
    assert np.abs(oracle.mean - mean).max() <= 1e-15 * np.abs(mean).max()
    assert np.abs(oracle.cov - cov).max() <= 1e-15 * np.abs(cov).max()
