"""A point count below 1 or a level that is not positive is malformed input:
`ellipse` exits 2 with a usage message, no traceback and no CSV, like
`--samples 0`; `ellipse_points` refuses such arguments with ValueError."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from test_cli import DENSITY_SPEC

from maxent_steer.cli import ellipse_points, main

SRC = str(Path(__file__).resolve().parents[1] / "src")

CASES = [("--points", "0"), ("--points", "-3"), ("--level", "-1"), ("--level", "0")]


def _args(tmp_path, option, value):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DENSITY_SPEC))
    out = tmp_path / "ellipse.csv"
    return ["ellipse", "--spec", str(path), option, value, "--out", str(out)], out


@pytest.mark.parametrize("option,value", CASES)
def test_bad_ellipse_argument_is_a_usage_error(tmp_path, option, value):
    args, out = _args(tmp_path, option, value)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert option in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("option,value", [("--points", "0"), ("--level", "-1")])
def test_bad_ellipse_argument_console_has_no_traceback(tmp_path, option, value):
    args, out = _args(tmp_path, option, value)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "maxent_steer.cli", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not out.exists()


def test_non_finite_level_exits_two(tmp_path):
    args, out = _args(tmp_path, "--level", "nan")
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert not out.exists()


@pytest.mark.parametrize("level", [0.0, -1.0, -0.0, np.nan, np.inf, -np.inf])
def test_ellipse_points_refuses_level(level):
    with pytest.raises(ValueError, match="level"):
        ellipse_points(np.eye(2), level, 8)


@pytest.mark.parametrize("count", [0, -3])
def test_ellipse_points_refuses_count(count):
    with pytest.raises(ValueError, match="count"):
        ellipse_points(np.eye(2), 3.0, count)


def test_small_positive_level_is_accepted():
    _, pts = ellipse_points(np.eye(2), 1e-3, 4)
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1e-3, rtol=1e-12, atol=0)
