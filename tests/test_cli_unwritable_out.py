"""An --out path that cannot be opened is malformed input: exit 2 with the
reason, no traceback, no file, and no CSV worker process."""

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
    "solve": (DENSITY_SPEC, []),
    "steer": (DENSITY_SPEC, ["--samples", "1000"]),
    "pin": (PINNED_SPEC, []),
    "ellipse": (DENSITY_SPEC, []),
}


def _args(tmp_path, command):
    spec, extra = CASES[command]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "missing" / "out.csv"
    return [command, "--spec", str(path), *extra, "--out", str(out)], out


@pytest.mark.parametrize("command", sorted(CASES))
def test_unwritable_out_exits_two(tmp_path, monkeypatch, command):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or pytest.fail("forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    args, out = _args(tmp_path, command)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: cannot write {out}: " in result.output
    assert not out.exists() and not out.parent.exists()
    assert forks == []


@pytest.mark.parametrize("command", sorted(CASES))
def test_unwritable_out_console_has_no_traceback(tmp_path, command):
    args, out = _args(tmp_path, command)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "maxent_steer.cli", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write "), proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not out.exists()


def test_directory_as_out_exits_two(tmp_path):
    args, _ = _args(tmp_path, "ellipse")
    result = CliRunner().invoke(main, args[:-1] + [str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "error: cannot write" in result.output
