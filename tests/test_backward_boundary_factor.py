"""The backward boundary factor vanishes when the initial covariance is the
reverse-time forecast Phi(0, N) SN Phi(0, N)^T + eps G_c(N, 0) of the terminal one:
the feasibility check names that factor, and the solver refuses the problem."""

import numpy as np
import pytest

from maxent_steer import InfeasibleProblem, LinearSystemModel, solve_coupled_lyapunov, validate_assumptions
from maxent_steer.system import controllability_gramian, transition

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA_T

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

HORIZON = 20


def reverse_forecast(sys, eps):
    phi = transition(sys, 0, sys.horizon)
    return phi @ DEMO_SIGMA_T @ phi.T + eps * controllability_gramian(sys, sys.horizon, 0).data


@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_validate_names_the_backward_factor(eps):
    sys = LinearSystemModel(DEMO_A, DEMO_B, HORIZON)
    report = validate_assumptions(sys, reverse_forecast(sys, eps), DEMO_SIGMA_T, eps)
    assert not report.feasible
    assert len(report.diagnostics) == 1
    assert report.diagnostics[0].startswith("backward boundary factor is singular")
    assert report.b_matrix_min_singular < 1e-13
    # the forward factor is the identity minus a vanishing backward one
    assert report.f_matrix_min_singular == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_solver_refuses_with_the_report(eps):
    sys = LinearSystemModel(DEMO_A, DEMO_B, HORIZON)
    with pytest.raises(InfeasibleProblem, match="^backward boundary factor is singular") as info:
        solve_coupled_lyapunov(sys, reverse_forecast(sys, eps), DEMO_SIGMA_T, eps)
    assert info.value.report is not None
    assert not info.value.report.feasible
