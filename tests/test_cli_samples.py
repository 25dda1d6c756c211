"""A nonpositive --samples is malformed input: exit 2 with a usage message, like a
spec with "samples": 0, and no traceback or CSV."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from test_cli import DENSITY_SPEC, PINNED_SPEC

from maxent_steer.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

CASES = {
    "steer": (DENSITY_SPEC, "0"),
    "pin": (PINNED_SPEC, "-3"),
}


def _args(tmp_path, command):
    spec, samples = CASES[command]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "paths.csv"
    return ["--spec", str(path), "--samples", samples, "--out", str(out)], out


@pytest.mark.parametrize("command", sorted(CASES))
def test_nonpositive_samples_is_a_usage_error(tmp_path, command):
    args, out = _args(tmp_path, command)
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "--samples" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(CASES))
def test_nonpositive_samples_console_has_no_traceback(tmp_path, command):
    args, out = _args(tmp_path, command)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "maxent_steer.cli", command, *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not out.exists()


def test_spec_with_zero_samples_exits_two_too(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(DENSITY_SPEC, samples=0)))
    out = tmp_path / "paths.csv"
    result = CliRunner().invoke(main, ["steer", "--spec", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert not out.exists()
