"""Refusals carry their true reason: a nonpositive, NaN or infinite entropy weight,
boundary covariances of the wrong size, a float64 overflow in the feasibility check
or in a Riccati sweep, and a gate that is not positive definite."""

import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from maxent_steer import (
    BranchDegenerate,
    DimensionMismatch,
    GateNotPD,
    GaussianMarginal,
    InfeasibleProblem,
    LinearSystemModel,
    MaxEntLqrProblem,
    NonpositiveEpsilon,
    NumericalLimit,
    bridge_verify,
    general_policy,
    lqr_policy,
    normalized_boundary,
    riccati_backward,
    solve_coupled_lyapunov,
    validate_assumptions,
)
from maxent_steer import steering
from maxent_steer.cli import main

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T

DENSITY_SPEC = {
    "horizon": 50,
    "epsilon": 1.0,
    "A": DEMO_A.tolist(),
    "B": DEMO_B.tolist(),
    "initial": {"mean": [0.0, 0.0], "cov": DEMO_SIGMA0.tolist()},
    "terminal": {"mean": [0.0, 0.0], "cov": DEMO_SIGMA_T.tolist()},
    "seed": 7,
    "samples": 8,
}


class TestNonpositiveEpsilon:
    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_validate_reports_instead_of_raising(self, demo_system, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_assumptions(demo_system, np.eye(2), 0.3 * np.eye(2), eps)
        assert not report.feasible
        assert any("epsilon must be positive" in d for d in report.diagnostics)
        # the window search does not depend on the weight
        assert report.gramian_window == validate_assumptions(demo_system).gramian_window

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_bridge_verify_raises_before_scaling(self, demo_system, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonpositiveEpsilon):
                bridge_verify(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, eps)

    def test_solve_raises(self, demo_system):
        with pytest.raises(NonpositiveEpsilon):
            solve_coupled_lyapunov(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, 0.0)

    @pytest.mark.parametrize("command", ["bridge-check", "solve", "validate"])
    def test_cli_override_zero_is_input_error(self, tmp_path, command):
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps(DENSITY_SPEC))
        args = [command, "--spec", str(spec), "--epsilon-override", "0"]
        if command == "solve":
            args += ["--out", str(tmp_path / "policy.json")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "verified" not in result.output

    def test_nan_weight_is_refused_like_a_nonpositive_one(self, demo_system):
        nan = float("nan")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_assumptions(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, nan)
            for call in (
                lambda: solve_coupled_lyapunov(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, nan),
                lambda: bridge_verify(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, nan),
                lambda: MaxEntLqrProblem(demo_system, np.eye(2), None, nan),
                lambda: lqr_policy(demo_system, riccati_backward(demo_system, np.eye(2)), epsilon=nan),
            ):
                with pytest.raises(NonpositiveEpsilon, match="got nan"):
                    call()
        assert not report.feasible
        assert "epsilon must be positive, got nan" in report.diagnostics

    @pytest.mark.parametrize("command", ["bridge-check", "solve", "validate"])
    def test_cli_override_nan_is_input_error(self, tmp_path, command):
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps(DENSITY_SPEC))
        args = [command, "--spec", str(spec), "--epsilon-override", "nan"]
        if command == "solve":
            args += ["--out", str(tmp_path / "policy.json")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "epsilon must be positive, got nan" in result.stderr

    def test_infinite_weight_is_refused_like_a_nan_one(self, demo_system):
        inf = float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_assumptions(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, inf)
            for call in (
                lambda: solve_coupled_lyapunov(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, inf),
                lambda: bridge_verify(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, inf),
                lambda: MaxEntLqrProblem(demo_system, np.eye(2), None, inf),
                lambda: lqr_policy(demo_system, riccati_backward(demo_system, np.eye(2)), epsilon=inf),
            ):
                with pytest.raises(NonpositiveEpsilon, match="epsilon must be finite, got inf"):
                    call()
        assert not report.feasible
        assert "epsilon must be finite, got inf" in report.diagnostics

    @pytest.mark.parametrize("command", ["bridge-check", "solve", "validate"])
    def test_cli_override_inf_is_input_error(self, tmp_path, command):
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps(DENSITY_SPEC))
        args = [command, "--spec", str(spec), "--epsilon-override", "inf"]
        if command == "solve":
            args += ["--out", str(tmp_path / "policy.json")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "epsilon must be finite, got inf" in result.stderr


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("slot", ["initial", "terminal"])
@pytest.mark.parametrize(
    "cov",
    [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [-np.inf, 1.0]]],
    ids=["nan", "inf", "mirrored-inf"],
)
def test_non_finite_marginal_is_refused_as_not_finite(demo_system, slot, cov):
    """A marginal builds without a warning, mirrored +inf and -inf included, and
    ``general_policy`` refuses it by its reason."""
    bad = GaussianMarginal(np.zeros(2), cov)
    assert not np.isfinite(bad.cov.data).all()
    good = GaussianMarginal(np.zeros(2), DEMO_SIGMA_T)
    boundary = (bad, good) if slot == "initial" else (GaussianMarginal(np.zeros(2), DEMO_SIGMA0), bad)
    with pytest.raises(InfeasibleProblem, match=f"^{slot} covariance is not finite$"):
        general_policy(demo_system, *boundary)


class TestBoundarySize:
    """Boundary covariances that are not n x n are refused before any solve."""

    SIG3 = np.eye(3)

    def test_validate_reports_instead_of_raising(self, demo_system):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_assumptions(demo_system, self.SIG3, self.SIG3)
        assert not report.feasible
        assert "boundary covariances must be 2x2, got 3x3 and 3x3" in report.diagnostics
        assert report.gramian_window == validate_assumptions(demo_system).gramian_window

    def test_validate_reports_a_non_square_covariance(self, demo_system):
        report = validate_assumptions(demo_system, DEMO_SIGMA0, np.ones(2))
        assert not report.feasible
        assert any("square" in d for d in report.diagnostics)

    def test_solvers_raise_dimension_mismatch(self, demo_system):
        init = GaussianMarginal(np.zeros(3), self.SIG3)
        for call in (
            lambda: solve_coupled_lyapunov(demo_system, DEMO_SIGMA0, self.SIG3),
            lambda: general_policy(demo_system, init, init),
            lambda: normalized_boundary(demo_system, self.SIG3, DEMO_SIGMA_T),
            lambda: bridge_verify(demo_system, self.SIG3, DEMO_SIGMA_T),
            lambda: bridge_verify(demo_system, self.SIG3, DEMO_SIGMA_T, 0.5),
        ):
            with pytest.raises(DimensionMismatch, match="boundary covariances must be 2x2"):
                call()


class TestFloat64Overflow:
    def test_long_horizon_reports_overflow_without_warnings(self):
        sys = LinearSystemModel(DEMO_A, DEMO_B, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_assumptions(sys, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
        assert not report.feasible
        assert report.gramian_window is None
        notes = [d for d in report.diagnostics if "overflow double precision" in d]
        assert len(notes) == 1
        assert "k < " in notes[0] and "k > " in notes[0]

    def test_no_overflow_note_on_short_horizon(self, demo_system):
        report = validate_assumptions(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
        assert report.feasible
        assert not any("overflow" in d for d in report.diagnostics)


def test_gate_failure_of_the_sweep_reaches_callers_as_branch_degenerate(monkeypatch):
    def failing_sweep(sys, terminal_weight, epsilon=1.0):
        raise GateNotPD(17, "gate at step 17 has min eigenvalue -1.000e-03")

    # a fresh model: one that solved this boundary before keeps its solve
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    monkeypatch.setattr(steering, "riccati_backward", failing_sweep)
    with pytest.raises(BranchDegenerate) as info:
        solve_coupled_lyapunov(sys, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
    assert info.value.step == 17
    assert "step 17" in str(info.value)


class TestRiccatiOverflow:
    """A Pi that overflows from a finite terminal weight is a numerical limit: the gate
    above it is not finite because of the overflow, not because it is indefinite."""

    SYS = LinearSystemModel([[1e160, 0.0], [0.0, 1.0]], np.eye(2), 3)

    def test_overflowed_pi_is_a_numerical_limit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalLimit) as info:
                riccati_backward(self.SYS, np.eye(2))
        assert not isinstance(info.value, GateNotPD)
        assert info.value.step == 2
        assert str(info.value) == "Riccati sweep overflowed: Pi at step 2 is not finite"

    @pytest.fixture
    def overflowing_solve(self, monkeypatch):
        """The minus-branch sweep of every density solve overflows as above."""
        def overflowing_sweep(sys, terminal_weight):
            return riccati_backward(self.SYS, np.eye(2))

        monkeypatch.setattr(steering, "riccati_backward", overflowing_sweep)

    @pytest.mark.usefixtures("overflowing_solve")
    def test_minus_branch_passes_the_limit_on(self):
        with pytest.raises(NumericalLimit):
            solve_coupled_lyapunov(LinearSystemModel(DEMO_A, DEMO_B, 50), DEMO_SIGMA0, DEMO_SIGMA_T)

    @pytest.mark.usefixtures("overflowing_solve")
    def test_cli_exit_one(self, tmp_path):
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps(DENSITY_SPEC))
        args = ["solve", "--spec", str(spec), "--out", str(tmp_path / "policy.json")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "Riccati sweep overflowed: Pi at step 2 is not finite" in result.stderr
