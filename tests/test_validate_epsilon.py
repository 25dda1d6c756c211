"""A nonpositive entropy weight is reported by the feasibility check whether or
not a Gramian invertibility window exists."""

import warnings

import numpy as np
import pytest

from maxent_steer import LinearSystemModel, validate_assumptions

from conftest import DEMO_A


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_epsilon_reported_without_a_window(eps):
    uncontrollable = LinearSystemModel(DEMO_A, np.zeros((2, 1)), 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_assumptions(uncontrollable, np.eye(2), 0.3 * np.eye(2), eps)
    assert not report.feasible
    assert report.gramian_window is None
    assert f"epsilon must be positive, got {eps}" in report.diagnostics
    assert "no reachability-Gramian invertibility window exists" in report.diagnostics


def test_epsilon_not_checked_without_boundary():
    report = validate_assumptions(LinearSystemModel(DEMO_A, np.zeros((2, 1)), 50), epsilon=0.0)
    assert not any("epsilon" in d for d in report.diagnostics)
