import json

import numpy as np
import pytest
from click.testing import CliRunner

from maxent_steer.cli import ellipse_points, main
from maxent_steer.errors import NotTwoDimensional, ParseError
from maxent_steer.specio import canonical_json, load_policy, load_spec

DENSITY_SPEC = {
    "horizon": 50,
    "epsilon": 1.0,
    "A": [[0.9, 0.1], [0.05, 1.2]],
    "B": [[0.0], [0.22]],
    "initial": {"mean": [0.0, 0.0], "cov": [[7.0, 3.0], [3.0, 5.0]]},
    "terminal": {"mean": [0.0, 0.0], "cov": [[0.3, 0.0], [0.0, 0.3]]},
    "seed": 7,
    "samples": 64,
}

PINNED_SPEC = {
    "horizon": 50,
    "epsilon": 1.0,
    "A": [[0.9, 0.1], [0.05, 1.2]],
    "B": [[0.0], [0.22]],
    "initial": {"point": [-2.0, 4.0]},
    "terminal": {"point": [1.0, 0.0]},
    "seed": 7,
    "samples": 32,
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_spec(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidate:
    def test_feasible_spec_exits_zero(self, runner, tmp_path):
        path = write_spec(tmp_path, DENSITY_SPEC)
        result = runner.invoke(main, ["validate", "--spec", path])
        assert result.exit_code == 0, result.output
        assert "feasible: True" in result.output

    def test_zero_input_matrix_infeasible(self, runner, tmp_path):
        spec = dict(DENSITY_SPEC, B=[[0.0], [0.0]])
        path = write_spec(tmp_path, spec)
        result = runner.invoke(main, ["validate", "--spec", path])
        assert result.exit_code == 1
        assert "feasible: False" in result.output

    def test_malformed_file_exit_two_with_position(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"horizon": 50,\n  "epsilon": oops}')
        result = runner.invoke(main, ["validate", "--spec", str(path)])
        assert result.exit_code == 2
        assert ":2:" in result.output  # line of the bad token

    def test_mixed_modes_exit_two(self, runner, tmp_path):
        spec = dict(DENSITY_SPEC)
        spec["terminal"] = {"point": [1.0, 0.0]}
        path = write_spec(tmp_path, spec)
        result = runner.invoke(main, ["validate", "--spec", path])
        assert result.exit_code == 2
        assert "mixed boundary modes" in result.output

    def test_point_mode_validates_without_covariances(self, runner, tmp_path):
        path = write_spec(tmp_path, PINNED_SPEC)
        result = runner.invoke(main, ["validate", "--spec", path])
        assert result.exit_code == 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("A", [[float("nan"), 0.1], [0.05, 1.2]]),
            ("B", [[0.0], [float("inf")]]),
            ("initial", {"mean": [float("nan"), 0.0], "cov": [[7.0, 3.0], [3.0, 5.0]]}),
            ("terminal", {"cov": [[float("-inf"), 0.0], [0.0, 0.3]]}),
            ("epsilon", float("nan")),
            ("epsilon", float("inf")),
        ],
        ids=["A-NaN", "B-Infinity", "mean-NaN", "cov-minus-Infinity", "epsilon-NaN", "epsilon-Infinity"],
    )
    def test_non_finite_number_exit_two(self, runner, tmp_path, field, value):
        path = write_spec(tmp_path, dict(DENSITY_SPEC, **{field: value}))
        result = runner.invoke(main, ["validate", "--spec", path])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: field '{field}")
        assert "Traceback" not in result.output


class TestSolve:
    def test_writes_policy_with_terminal_weight_diagnostics(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, DENSITY_SPEC)
        out = tmp_path / "policy.json"
        result = runner.invoke(main, ["solve", "--spec", spec_path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        policy, doc = load_policy(str(out))
        eigs = doc["diagnostics"]["q_terminal_inverse_eigenvalues"]
        assert eigs[0] == pytest.approx(-45.81, abs=0.02)
        assert eigs[1] == pytest.approx(3.33, abs=0.02)
        assert np.all(policy.feedforwards == 0)  # zero-mean spec

    def test_round_trip_is_byte_identical(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, DENSITY_SPEC)
        out = tmp_path / "policy.json"
        assert runner.invoke(main, ["solve", "--spec", spec_path, "--out", str(out)]).exit_code == 0
        original = out.read_bytes()
        doc = json.loads(original)
        (tmp_path / "resaved.json").write_text(canonical_json(doc))
        assert (tmp_path / "resaved.json").read_bytes() == original

    def test_point_mode_rejected(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, PINNED_SPEC)
        result = runner.invoke(main, ["solve", "--spec", spec_path, "--out", str(tmp_path / "p.json")])
        assert result.exit_code == 2

    def test_infeasible_exit_one(self, runner, tmp_path):
        spec = dict(DENSITY_SPEC, B=[[0.0], [0.0]])
        spec_path = write_spec(tmp_path, spec)
        result = runner.invoke(main, ["solve", "--spec", spec_path, "--out", str(tmp_path / "p.json")])
        assert result.exit_code == 1


class TestSteerAndPin:
    def test_pinned_run_reaches_target(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, PINNED_SPEC)
        out = tmp_path / "paths.csv"
        result = runner.invoke(main, ["pin", "--spec", spec_path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sample,step,x1,x2,u1"
        final = [l for l in lines[1:] if l.split(",")[1] == "50"]
        assert len(final) == 32
        for row in final:
            fields = row.split(",")
            assert abs(float(fields[2]) - 1.0) <= 1e-8
            assert abs(float(fields[3]) - 0.0) <= 1e-8
            assert fields[4] == ""  # no control at the terminal step

    def test_pin_serves_singular_dynamics(self, runner, tmp_path):
        """The nilpotent shift plant: every A_k singular, reachable in two steps."""
        spec = dict(PINNED_SPEC, horizon=6, A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
        out = tmp_path / "paths.csv"
        result = runner.invoke(main, ["pin", "--spec", write_spec(tmp_path, spec), "--out", str(out)])
        assert result.exit_code == 0, result.output
        final = [l.split(",") for l in out.read_text().strip().split("\n")[1:] if l.split(",")[1] == "6"]
        assert final and all(abs(float(r[2]) - 1.0) <= 1e-9 and abs(float(r[3])) <= 1e-9 for r in final)

    def test_pin_rejects_density_spec(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, DENSITY_SPEC)
        result = runner.invoke(main, ["pin", "--spec", spec_path, "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2

    def test_density_steer_runs(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, DENSITY_SPEC)
        out = tmp_path / "paths.csv"
        result = runner.invoke(
            main, ["steer", "--spec", spec_path, "--samples", "16", "--seed", "3", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 16 * 51

    def test_steer_with_saved_policy_single_deterministic_path(self, runner, tmp_path):
        from maxent_steer.lqr import AffineGaussianPolicy
        from maxent_steer.specio import save_policy

        spec = dict(PINNED_SPEC, samples=1)
        spec_path = write_spec(tmp_path, spec)
        horizon = spec["horizon"]
        policy = AffineGaussianPolicy(
            np.zeros((horizon, 1, 2)), np.zeros((horizon, 1)), np.zeros((horizon, 1, 1))
        )
        pol_path = tmp_path / "zero.json"
        save_policy(str(pol_path), policy)
        out = tmp_path / "one.csv"
        result = runner.invoke(
            main,
            ["steer", "--spec", spec_path, "--policy", str(pol_path), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == horizon + 1
        # zero policy leaves the free drift: u columns are all zero
        assert all(row.split(",")[4] in ("0", "") for row in rows)

    @pytest.mark.parametrize("gains", ["abc", [[[0.0, 0.0]], [[0.0]]]], ids=["non-numeric", "ragged"])
    def test_malformed_policy_file_exit_two(self, runner, tmp_path, gains):
        spec_path = write_spec(tmp_path, dict(PINNED_SPEC, horizon=2, samples=1))
        pol_path = tmp_path / "bad.json"
        pol_path.write_text(json.dumps({
            "kind": "maxent-steer-policy",
            "gains": gains,
            "feedforwards": [[0.0], [0.0]],
            "noise_covs": [[[0.0]], [[0.0]]],
        }))
        result = runner.invoke(
            main, ["steer", "--spec", spec_path, "--policy", str(pol_path), "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: field 'gains': ")
        assert "Traceback" not in result.output

    def test_non_finite_policy_file_exit_two(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, dict(PINNED_SPEC, horizon=2, samples=1))
        pol_path = tmp_path / "nan.json"
        pol_path.write_text(json.dumps({
            "kind": "maxent-steer-policy",
            "gains": [[[float("nan"), 0.0]], [[0.0, 0.0]]],
            "feedforwards": [[0.0], [0.0]],
            "noise_covs": [[[0.0]], [[0.0]]],
        }))
        result = runner.invoke(
            main, ["steer", "--spec", spec_path, "--policy", str(pol_path), "--out", str(tmp_path / "p.csv")]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: field 'gains': ")
        assert "Traceback" not in result.output
        assert not (tmp_path / "p.csv").exists()

    def test_csv_values_round_trip_17_digits(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, dict(DENSITY_SPEC, samples=2))
        out = tmp_path / "paths.csv"
        assert runner.invoke(main, ["steer", "--spec", spec_path, "--out", str(out)]).exit_code == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        value = float(row[2])
        assert format(value, ".17g") == row[2]


class TestEllipse:
    def test_identity_gives_circle(self, runner, tmp_path):
        spec = dict(DENSITY_SPEC)
        spec["terminal"] = {"cov": [[1.0, 0.0], [0.0, 1.0]]}
        spec_path = write_spec(tmp_path, spec)
        out = tmp_path / "circle.csv"
        result = runner.invoke(
            main,
            ["ellipse", "--spec", spec_path, "--which", "terminal", "--level", "3",
             "--points", "90", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 90
        for row in rows:
            _, x1, x2 = (float(v) for v in row.split(","))
            assert np.hypot(x1, x2) == pytest.approx(3.0, abs=1e-12)

    def test_diagonal_semi_axes(self):
        angles, pts = ellipse_points(np.diag([4.0, 1.0]), 1.0, 4)
        assert pts[0] == pytest.approx([2.0, 0.0], abs=1e-12)
        assert pts[1] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_quadric_residual(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, DENSITY_SPEC)
        out = tmp_path / "ellipse.csv"
        result = runner.invoke(
            main,
            ["ellipse", "--spec", spec_path, "--which", "initial", "--level", "3",
             "--points", "128", "--out", str(out)],
        )
        assert result.exit_code == 0
        inv = np.linalg.inv(np.array(DENSITY_SPEC["initial"]["cov"]))
        for row in out.read_text().strip().split("\n")[1:]:
            _, x1, x2 = (float(v) for v in row.split(","))
            p = np.array([x1, x2])
            assert abs(p @ inv @ p - 9.0) <= 1e-10

    def test_not_two_dimensional(self):
        with pytest.raises(NotTwoDimensional):
            ellipse_points(np.eye(3), 3.0, 8)

    def test_point_mode_rejected(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, PINNED_SPEC)
        result = runner.invoke(
            main, ["ellipse", "--spec", spec_path, "--out", str(tmp_path / "e.csv")]
        )
        assert result.exit_code == 2


class TestBridgeCheck:
    def test_unit_weight_verifies(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, DENSITY_SPEC)
        result = runner.invoke(main, ["bridge-check", "--spec", spec_path])
        assert result.exit_code == 0, result.output
        assert "verified" in result.output

    def test_small_weight_normalization_noted(self, runner, tmp_path):
        spec_path = write_spec(tmp_path, dict(DENSITY_SPEC, epsilon=0.02))
        result = runner.invoke(main, ["bridge-check", "--spec", spec_path])
        assert result.exit_code == 0, result.output
        assert "absorbed into the input matrix" in result.output

    def test_infeasible_names_failed_hypothesis(self, runner, tmp_path):
        spec = dict(DENSITY_SPEC, B=[[0.0], [0.0]])
        spec_path = write_spec(tmp_path, spec)
        result = runner.invoke(main, ["bridge-check", "--spec", spec_path])
        assert result.exit_code == 1
        assert "not verified" in result.output


class TestSpecio:
    def test_load_spec_reports_field_errors(self, tmp_path):
        bad = dict(DENSITY_SPEC, horizon=0)
        path = write_spec(tmp_path, bad, "bad.json")
        with pytest.raises(ParseError) as info:
            load_spec(path)
        assert "horizon" in str(info.value)

    def test_dimension_cross_checks(self, tmp_path):
        bad = dict(DENSITY_SPEC)
        bad["initial"] = {"mean": [0.0, 0.0, 0.0], "cov": np.eye(3).tolist()}
        path = write_spec(tmp_path, bad, "bad.json")
        with pytest.raises(ParseError):
            load_spec(path)

    def test_bundled_specs_parse(self):
        for name in ("specs/steer2d_density.json", "specs/steer2d_pinned.json"):
            spec = load_spec(name)
            assert spec.horizon == 50

    def test_canonical_json_round_trip(self):
        doc = {"b": [1.0, 0.25, 1e-17], "a": {"nested": [[0.1, 0.2]]}, "n": 3}
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text
