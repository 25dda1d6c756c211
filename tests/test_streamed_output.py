"""The chunked CSV writers and the block noise streams of sample_ensemble.

The writers are compared byte for byte against a per-value reference that
formats every number with ``format(x, ".17g")``.
"""

import math

import numpy as np
import pytest

from maxent_steer import GaussianMarginal, SymMatrix, general_policy, sample_ensemble
from maxent_steer.simulate import BLOCK
from maxent_steer.specio import CSV_CHUNK, write_ellipse_csv, write_trajectory_csv

from conftest import DEMO_SIGMA0, DEMO_SIGMA_T

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 0.1]


def _fmt(x) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def reference_trajectory_csv(path, states, controls):
    count, steps, n = states.shape
    m = controls.shape[2]
    header = (
        "sample,step,"
        + ",".join(f"x{i + 1}" for i in range(n))
        + ","
        + ",".join(f"u{j + 1}" for j in range(m))
    )
    lines = [header]
    for i in range(count):
        for k in range(steps):
            xs = ",".join(_fmt(v) for v in states[i, k])
            us = ",".join(_fmt(v) for v in controls[i, k]) if k < steps - 1 else "," * (m - 1)
            lines.append(f"{i},{k},{xs},{us}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_ellipse_csv(path, angles, points):
    lines = ["angle,x1,x2"]
    for t, p in zip(angles, points):
        lines.append(f"{_fmt(t)},{_fmt(p[0])},{_fmt(p[1])}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def mixed_values(rng, shape):
    """Doubles over many magnitudes with the extreme and signed-zero values mixed in."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    rng.shuffle(flat)
    return values


COUNTS = [1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 3]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_trajectory_bytes_match_per_value_writer(tmp_path, n, m):
    rng = np.random.default_rng(100 * n + m)
    steps = 4
    for count in COUNTS:
        states = mixed_values(rng, (count, steps, n))
        controls = mixed_values(rng, (count, steps - 1, m))
        write_trajectory_csv(str(tmp_path / "new.csv"), states, controls)
        reference_trajectory_csv(str(tmp_path / "ref.csv"), states, controls)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), count


def test_ellipse_bytes_match_per_value_writer(tmp_path):
    rng = np.random.default_rng(5)
    for count in COUNTS:
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        points = mixed_values(rng, (count, 2))
        write_ellipse_csv(str(tmp_path / "new.csv"), angles, points)
        reference_ellipse_csv(str(tmp_path / "ref.csv"), angles, points)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), count


@pytest.mark.parametrize("where", ["states", "controls"])
def test_nan_in_last_sample_refused_before_writing(tmp_path, where):
    count = CSV_CHUNK + 1
    states = np.ones((count, 4, 2))
    controls = np.ones((count, 3, 1))
    (states if where == "states" else controls)[-1, -1, -1] = np.nan
    path = tmp_path / "paths.csv"
    path.write_text("previous contents\n")
    with pytest.raises(ValueError, match="non-finite"):
        write_trajectory_csv(str(path), states, controls)
    assert path.read_text() == "previous contents\n"


def test_ellipse_infinity_refused_before_writing(tmp_path):
    points = np.ones((CSV_CHUNK + 1, 2))
    points[-1, 1] = np.inf
    path = tmp_path / "ellipse.csv"
    path.write_text("previous contents\n")
    with pytest.raises(ValueError, match="non-finite"):
        write_ellipse_csv(str(path), np.zeros(len(points)), points)
    assert path.read_text() == "previous contents\n"


def test_sample_prefixes_stable_across_block_boundary(demo_system):
    zero = np.zeros(2)
    initial = GaussianMarginal(zero, SymMatrix(DEMO_SIGMA0))
    policy = general_policy(demo_system, initial, GaussianMarginal(zero, SymMatrix(DEMO_SIGMA_T)), 1.0)
    counts = [5, BLOCK, BLOCK + 1, 2 * BLOCK + 88]
    runs = [sample_ensemble(demo_system, policy, initial, c, seed=11) for c in counts]
    for small, large in zip(runs, runs[1:]):
        k = small.sample_count
        assert np.array_equal(large.states[:k], small.states)
        assert np.array_equal(large.controls[:k], small.controls)
    # distinct blocks draw distinct noise
    assert not np.array_equal(runs[-1].states[0], runs[-1].states[BLOCK])
