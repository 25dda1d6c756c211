"""bridge_verify on a time-varying plant with one zero input matrix."""

import numpy as np

from maxent_steer import LinearSystemModel, bridge_verify

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T


def test_zero_input_step_keeps_kl_decomposition():
    horizon = 20
    b = np.stack([DEMO_B] * horizon)
    b[5] = 0.0
    sys = LinearSystemModel(DEMO_A, b, horizon)
    report = bridge_verify(sys, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
    assert report.skipped_reason is None
    assert report.residuals["kl_decomposition"] <= 1e-9
    assert report.ok()
