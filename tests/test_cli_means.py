import json

import numpy as np
from click.testing import CliRunner

from maxent_steer import general_policy
from maxent_steer.cli import main
from maxent_steer.specio import load_policy, load_spec

# the README demo with boundary means that need a nonzero feedforward
SHIFTED_SPEC = {
    "horizon": 50,
    "epsilon": 0.5,
    "A": [[0.9, 0.1], [0.05, 1.2]],
    "B": [[0.0], [0.22]],
    "initial": {"mean": [2.0, -1.0], "cov": [[7.0, 3.0], [3.0, 5.0]]},
    "terminal": {"mean": [-1.0, 0.5], "cov": [[0.3, 0.0], [0.0, 0.3]]},
    "seed": 7,
    "samples": 64,
}


def test_solve_matches_general_policy_with_nonzero_means(tmp_path):
    spec_path = tmp_path / "shifted.json"
    spec_path.write_text(json.dumps(SHIFTED_SPEC))
    out = tmp_path / "policy.json"
    result = CliRunner().invoke(main, ["solve", "--spec", str(spec_path), "--out", str(out)])
    assert result.exit_code == 0, result.output

    saved, _ = load_policy(str(out))
    spec = load_spec(str(spec_path))
    direct = general_policy(spec.system(), spec.initial, spec.terminal, spec.epsilon)
    assert np.any(direct.feedforwards != 0)
    np.testing.assert_array_equal(saved.gains, direct.gains)
    np.testing.assert_array_equal(saved.feedforwards, direct.feedforwards)
    np.testing.assert_array_equal(saved.noise_covs, direct.noise_covs)
