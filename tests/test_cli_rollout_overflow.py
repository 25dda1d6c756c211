"""A rollout whose states overflow is a failed run, not malformed input: `steer`
prints one error line naming the first non-finite step, exits 1, prints no
numpy warning and writes no CSV."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
HORIZON = 400


def test_overflowing_rollout_exits_one_with_the_step(tmp_path):
    spec = tmp_path / "unstable.json"
    spec.write_text(json.dumps({
        "horizon": HORIZON,
        "epsilon": 1.0,
        "A": [[10.0]],
        "B": [[1.0]],
        "initial": {"mean": [1.0], "cov": [[1e-4]]},
        "terminal": {"mean": [0.0], "cov": [[1.0]]},
    }))
    policy = tmp_path / "open_loop.json"
    policy.write_text(json.dumps({
        "kind": "maxent-steer-policy",
        "horizon": HORIZON,
        "n": 1,
        "m": 1,
        "gains": [[[0.0]]] * HORIZON,
        "feedforwards": [[0.0]] * HORIZON,
        "noise_covs": [[[0.0]]] * HORIZON,
    }))
    out = tmp_path / "paths.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "maxent_steer.cli", "steer", "--spec", str(spec),
         "--policy", str(policy), "--samples", "3", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    # |x_0| is within 5% of 1, so x_k ~ 10^k first leaves the double range at k = 309
    assert proc.stderr == "error: rollout failed: the sampled states are not finite at step 309\n"
    assert proc.stdout == ""
    assert not out.exists()
