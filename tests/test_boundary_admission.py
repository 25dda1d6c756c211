"""One rule admits the boundary covariances, and every boundary-problem entry point
reads it: each covariance must be n x n, finite, and positive definite (smallest
eigenvalue above 1e-12 max(1, |largest|)). A refused covariance is named with its
reason in either slot, and no LinAlgError, NaN result or RuntimeWarning gets out
instead."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from maxent_steer import (
    DimensionMismatch,
    GaussianMarginal,
    InfeasibleProblem,
    LinearSystemModel,
    NonpositiveEpsilon,
    NotPD,
    bridge_verify,
    coupling_objective,
    gaussian_kl,
    general_policy,
    normalized_boundary,
    solve_coupled_lyapunov,
    validate_assumptions,
)
from maxent_steer.cli import main

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DEMO_SPEC = Path(__file__).resolve().parent.parent / "specs" / "steer2d_density.json"

REFUSED = {
    "minus-identity": (-np.eye(2), "not positive definite"),
    "singular": (np.diag([1.0, 0.0]), "not positive definite"),
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), "not finite"),
    "inf": (np.array([[np.inf, 0.0], [0.0, 1.0]]), "not finite"),
}


def boundary(slot, cov):
    return (cov, DEMO_SIGMA_T) if slot == "initial" else (DEMO_SIGMA0, cov)


def marginal(cov):
    return GaussianMarginal(np.zeros(cov.shape[0]), cov)


@pytest.fixture
def plant():
    return LinearSystemModel(DEMO_A, DEMO_B, 50)


@pytest.mark.parametrize("slot", ["initial", "terminal"])
@pytest.mark.parametrize("case", sorted(REFUSED))
class TestRefusedCovariance:
    def reason(self, slot, case):
        return f"{slot} covariance is {REFUSED[case][1]}"

    def test_validate_reports_the_reason_and_forms_no_factor(self, plant, slot, case):
        report = validate_assumptions(plant, *boundary(slot, REFUSED[case][0]), 1.0)
        assert not report.feasible
        assert report.diagnostics == (self.reason(slot, case),)
        assert np.isnan(report.f_matrix_min_singular) and np.isnan(report.b_matrix_min_singular)
        # the dynamics are still analysed
        assert report.gramian_window == validate_assumptions(plant).gramian_window

    @pytest.mark.parametrize("entry", ["solve", "general_policy"])
    def test_solvers_raise_infeasible_with_the_report(self, plant, slot, case, entry):
        sigma0, sigma_t = boundary(slot, REFUSED[case][0])
        with pytest.raises(InfeasibleProblem) as info:
            if entry == "solve":
                solve_coupled_lyapunov(plant, sigma0, sigma_t, 1.0)
            else:
                general_policy(plant, marginal(sigma0), marginal(sigma_t), 1.0)
        assert str(info.value) == self.reason(slot, case)
        assert info.value.report is not None
        assert info.value.report.diagnostics == (self.reason(slot, case),)

    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_bridge_verify_skips_with_the_reason(self, plant, slot, case, eps):
        report = bridge_verify(plant, *boundary(slot, REFUSED[case][0]), eps)
        assert report.skipped_reason == self.reason(slot, case)
        assert not report.ok()
        assert np.isnan(report.max_residual)

    def test_normalized_boundary_raises_not_pd(self, plant, slot, case):
        with pytest.raises(NotPD, match=f"^{self.reason(slot, case)}$"):
            normalized_boundary(plant, *boundary(slot, REFUSED[case][0]))

    def test_coupling_objective_raises_not_pd(self, plant, slot, case):
        with pytest.raises(NotPD, match=f"^{self.reason(slot, case)}$"):
            coupling_objective(plant, *boundary(slot, REFUSED[case][0]), np.zeros((2, 2)))


@pytest.mark.parametrize("slot", ["initial", "terminal"])
class TestWrongSize:
    def test_validate_reports_the_size(self, plant, slot):
        report = validate_assumptions(plant, *boundary(slot, np.eye(3)))
        assert not report.feasible
        shapes = "3x3 and 2x2" if slot == "initial" else "2x2 and 3x3"
        assert report.diagnostics == (f"boundary covariances must be 2x2, got {shapes}",)

    def test_entry_points_raise_dimension_mismatch(self, plant, slot):
        sigma0, sigma_t = boundary(slot, np.eye(3))
        for call in (
            lambda: solve_coupled_lyapunov(plant, sigma0, sigma_t),
            lambda: general_policy(plant, marginal(sigma0), marginal(sigma_t)),
            lambda: bridge_verify(plant, sigma0, sigma_t),
            lambda: normalized_boundary(plant, sigma0, sigma_t),
            lambda: coupling_objective(plant, sigma0, sigma_t, np.zeros((2, 2))),
        ):
            with pytest.raises(DimensionMismatch, match="boundary covariances must be 2x2"):
                call()


class TestOrderOfRefusal:
    def test_the_first_refused_covariance_is_named(self, plant):
        nan = REFUSED["nan"][0]
        report = validate_assumptions(plant, -np.eye(2), nan)
        assert report.diagnostics == ("initial covariance is not positive definite",)
        with pytest.raises(NotPD, match="^initial covariance is not finite$"):
            normalized_boundary(plant, nan, -np.eye(2))

    def test_epsilon_then_size_then_definiteness(self, plant):
        for call in (
            lambda sigma0: solve_coupled_lyapunov(plant, sigma0, DEMO_SIGMA_T, 0.0),
            lambda sigma0: bridge_verify(plant, sigma0, DEMO_SIGMA_T, 0.0),
        ):
            for sigma0 in (np.eye(3), -np.eye(2)):
                with pytest.raises(NonpositiveEpsilon):
                    call(sigma0)
        with pytest.raises(DimensionMismatch):
            solve_coupled_lyapunov(plant, np.eye(3), -np.eye(2))

    @pytest.mark.parametrize("slot", ["initial", "terminal"])
    @pytest.mark.parametrize("case", ["size", *sorted(REFUSED)])
    def test_every_raising_entry_point_refuses_epsilon_first(self, plant, slot, case):
        sigma0, sigma_t = boundary(slot, np.eye(3) if case == "size" else REFUSED[case][0])
        for call in (normalized_boundary, solve_coupled_lyapunov, bridge_verify):
            with pytest.raises(NonpositiveEpsilon, match="^epsilon must be positive, got 0.0$"):
                call(plant, sigma0, sigma_t, 0.0)

    def test_validate_reports_epsilon_and_covariance(self, plant):
        report = validate_assumptions(plant, -np.eye(2), DEMO_SIGMA_T, 0.0)
        assert report.diagnostics == (
            "epsilon must be positive, got 0.0",
            "initial covariance is not positive definite",
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("slot", ["initial", "terminal"])
class TestMirroredInfinities:
    """+inf and -inf in mirrored entries sum to NaN when symmetrized: the raw
    input is refused as not finite first, with no warning."""

    cov = np.array([[1.0, np.inf], [-np.inf, 1.0]])

    def test_validate_reports_not_finite(self, plant, slot):
        report = validate_assumptions(plant, *boundary(slot, self.cov))
        assert not report.feasible
        assert report.diagnostics == (f"{slot} covariance is not finite",)

    def test_solver_raises_infeasible(self, plant, slot):
        with pytest.raises(InfeasibleProblem, match=f"^{slot} covariance is not finite$"):
            solve_coupled_lyapunov(plant, *boundary(slot, self.cov))

    def test_bridge_verify_skips(self, plant, slot):
        assert bridge_verify(plant, *boundary(slot, self.cov)).skipped_reason == f"{slot} covariance is not finite"

    def test_normalized_boundary_and_objective_raise_not_pd(self, plant, slot):
        with pytest.raises(NotPD, match=f"^{slot} covariance is not finite$"):
            normalized_boundary(plant, *boundary(slot, self.cov))
        with pytest.raises(NotPD, match=f"^{slot} covariance is not finite$"):
            coupling_objective(plant, *boundary(slot, self.cov), np.zeros((2, 2)))


class TestThreshold:
    """The cut is relative to max(1, |largest eigenvalue|)."""

    @pytest.mark.parametrize(
        "cov, admitted",
        [
            (np.diag([1.0, 2e-12]), True),
            (np.diag([1.0, 5e-13]), False),
            (np.diag([1e6, 2e-6]), True),
            (np.diag([1e6, 5e-7]), False),
            (np.diag([1e-11, 1e-11]), True),
            (np.diag([1e-13, 1e-13]), False),
        ],
    )
    def test_smallest_eigenvalue_against_the_cut(self, plant, cov, admitted):
        report = validate_assumptions(plant, cov, DEMO_SIGMA_T)
        refused = "initial covariance is not positive definite" in report.diagnostics
        assert refused is not admitted

    def test_admitted_boundary_still_solves(self, plant):
        assert validate_assumptions(plant, DEMO_SIGMA0, DEMO_SIGMA_T).feasible
        assert solve_coupled_lyapunov(plant, DEMO_SIGMA0, DEMO_SIGMA_T).horizon == 50


@pytest.mark.parametrize("slot", ["first", "second"])
@pytest.mark.parametrize("case", ["nan", "inf"])
def test_gaussian_kl_refuses_a_covariance_that_is_not_finite(slot, case):
    bad = REFUSED[case][0]
    args = (bad, np.eye(2)) if slot == "first" else (np.eye(2), bad)
    with pytest.raises(NotPD, match=f"^{slot} covariance is not finite$"):
        gaussian_kl(*args)


class TestCli:
    def spec(self, tmp_path):
        spec = json.loads(DEMO_SPEC.read_text())
        spec["initial"]["cov"] = (-np.eye(2)).tolist()
        path = tmp_path / "minus_identity.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_validate_exits_one_with_the_note(self, tmp_path):
        result = CliRunner().invoke(main, ["validate", "--spec", self.spec(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "feasible: False" in result.output
        assert "note: initial covariance is not positive definite" in result.output
        assert "Traceback" not in result.output

    def test_solve_exits_one_with_the_reason(self, tmp_path):
        out = tmp_path / "policy.json"
        result = CliRunner().invoke(main, ["solve", "--spec", self.spec(tmp_path), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.stderr == "error: initial covariance is not positive definite\n"
        assert not out.exists()
