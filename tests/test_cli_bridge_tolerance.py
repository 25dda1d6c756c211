"""A bridge-check tolerance that is not positive and finite is malformed input:
exit 2 with an `error:` line and no verdict, like a bad `--epsilon-override`."""

import json

import pytest
from click.testing import CliRunner

from maxent_steer.cli import main

from test_cli import DENSITY_SPEC


def _invoke(tmp_path, tolerance):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DENSITY_SPEC))
    return CliRunner().invoke(main, ["bridge-check", "--spec", str(path), "--tolerance", tolerance])


@pytest.mark.parametrize("tolerance", ["nan", "0", "-0.0", "-1e-7", "inf", "-inf"])
def test_bad_tolerance_exits_two(tmp_path, tolerance):
    result = _invoke(tmp_path, tolerance)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: tolerance must be positive and finite")
    assert "verified" not in result.stdout
    assert "FAILED" not in result.stdout


@pytest.mark.parametrize("tolerance,verdict", [("1e-7", "verified"), ("1e-30", "FAILED at tolerance 1e-30")])
def test_positive_tolerance_is_applied(tmp_path, tolerance, verdict):
    result = _invoke(tmp_path, tolerance)
    assert result.exit_code == (0 if verdict == "verified" else 1), result.output
    assert result.stdout.splitlines()[-1] == verdict
