"""Refusals carry their true reason: a nonpositive (or NaN) entropy weight, a float64
overflow in the feasibility check, and a gate that is not positive definite."""

import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from maxent_steer import (
    BranchDegenerate,
    GateNotPD,
    LinearSystemModel,
    MaxEntLqrProblem,
    NonpositiveEpsilon,
    bridge_verify,
    lqr_policy,
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


def test_gate_failure_of_the_sweep_reaches_callers_as_branch_degenerate(
    demo_system, monkeypatch
):
    def failing_sweep(sys, terminal_weight, epsilon=1.0):
        raise GateNotPD(17, "gate at step 17 has min eigenvalue -1.000e-03")

    monkeypatch.setattr(steering, "riccati_backward", failing_sweep)
    with pytest.raises(BranchDegenerate) as info:
        solve_coupled_lyapunov(demo_system, DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)
    assert info.value.step == 17
    assert "step 17" in str(info.value)
