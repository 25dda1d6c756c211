"""bridge_verify at small entropy weights: the two relative entropies stay
consistent down to epsilon = 1e-12 on the demo, and where the optimal endpoint
coupling is no longer positive definite at working precision the check is
refused as a numerical limit, with no RuntimeWarning on the way."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from maxent_steer import LinearSystemModel, NumericalLimit, bridge_verify
from maxent_steer.cli import main

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T
from test_cli import DENSITY_SPEC

SRC = str(Path(__file__).resolve().parents[1] / "src")


def demo_report(horizon, epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return bridge_verify(LinearSystemModel(DEMO_A, DEMO_B, horizon), DEMO_SIGMA0, DEMO_SIGMA_T, epsilon)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-4, 1e-6])
def test_demo_n50_small_epsilon_keeps_the_kl_decomposition(epsilon):
    report = demo_report(50, epsilon)
    assert report.residuals["kl_decomposition"] <= 1e-9
    assert report.ok()


def test_demo_n65_is_verified_at_epsilon_1e_2():
    assert demo_report(65, 1e-2).ok()


def test_demo_n50_at_epsilon_1e_12_counts_every_input_step():
    # a rank cut floored at max(1, .) would count every step as input-free: path KL 0
    report = demo_report(50, 1e-12)
    assert report.path_kl > 0
    assert report.path_kl == pytest.approx(report.coupling_kl, rel=1e-9, abs=0)


@pytest.mark.parametrize("epsilon", [1e-14, 1e-300])
def test_tiny_epsilon_is_a_numerical_limit(epsilon):
    with pytest.raises(NumericalLimit, match="endpoint coupling") as exc:
        demo_report(50, epsilon)
    assert exc.value.step == 50


@pytest.mark.parametrize("epsilon", ["1e-14", "1e-300"])
def test_cli_tiny_epsilon_exits_one_with_the_reason(tmp_path, epsilon):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DENSITY_SPEC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "maxent_steer.cli",
         "bridge-check", "--spec", str(path), "--epsilon-override", epsilon],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: the optimal endpoint coupling is not positive definite")
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_epsilon_1e_4_is_verified(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DENSITY_SPEC))
    result = CliRunner().invoke(main, ["bridge-check", "--spec", str(path), "--epsilon-override", "1e-4"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[-1] == "verified"
