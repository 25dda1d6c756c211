"""The chunked CSV writers and the block noise streams of sample_ensemble.

The writers are compared byte for byte against a per-value reference that
formats every number with ``format(x, ".17g")``.
"""

import math

import numpy as np
import pytest

from maxent_steer import GaussianMarginal, LinearSystemModel, SymMatrix, general_policy, sample_ensemble
from maxent_steer.linalg import PINV_RCOND, psd_sqrt_raw
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


def four_state_problem():
    """n = 4, m = 2, N = 30: a different A_k and B_k at every step."""
    rng = np.random.default_rng(3)
    a = np.stack([np.eye(4) + 0.1 * rng.standard_normal((4, 4)) for _ in range(30)])
    system = LinearSystemModel(a, rng.standard_normal((30, 4, 2)), 30)
    initial = GaussianMarginal(np.ones(4), SymMatrix(2.0 * np.eye(4)))
    policy = general_policy(system, initial, GaussianMarginal(np.zeros(4), SymMatrix(0.5 * np.eye(4))), 0.7)
    return system, policy, initial


def test_sample_prefixes_stable_across_block_boundary(demo_system):
    zero = np.zeros(2)
    initial = GaussianMarginal(zero, SymMatrix(DEMO_SIGMA0))
    policy = general_policy(demo_system, initial, GaussianMarginal(zero, SymMatrix(DEMO_SIGMA_T)), 1.0)
    # a 1-sample ensemble is a prefix too: every block rolls out all its rows
    counts = [1, 2, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 88]
    for system, policy, initial in ((demo_system, policy, initial), four_state_problem()):
        runs = [sample_ensemble(system, policy, initial, c, seed=11) for c in counts]
        for small, large in zip(runs, runs[1:]):
            k = small.sample_count
            assert np.array_equal(large.states[:k], small.states), k
            assert np.array_equal(large.controls[:k], small.controls), k
        # distinct blocks draw distinct noise
        assert not np.array_equal(runs[-1].states[0], runs[-1].states[BLOCK])


def whole_ensemble_reference(system, policy, initial, count, seed):
    """The rollout of all ``count`` rows at once, as earlier versions did it."""
    n, m, horizon = system.n, system.m, system.horizon
    z0, zu = np.zeros((count, n)), np.zeros((count, horizon, m))
    for lo in range(0, count, BLOCK):
        rng = np.random.default_rng(np.random.SeedSequence([seed, lo // BLOCK]))
        hi = min(lo + BLOCK, count)
        z0[lo:hi] = rng.standard_normal((BLOCK, n))[: hi - lo]
        zu[lo:hi] = rng.standard_normal((BLOCK, horizon, m))[: hi - lo]
    sqrt0 = psd_sqrt_raw(initial.cov.data, snap_tol=PINV_RCOND)
    sqrt_r = psd_sqrt_raw(policy.noise_covs, snap_tol=PINV_RCOND)
    states, controls = np.zeros((count, horizon + 1, n)), np.zeros((count, horizon, m))
    states[:, 0] = initial.mean + z0 @ sqrt0.T
    for k in range(horizon):
        controls[:, k] = states[:, k] @ policy.gains[k].T + policy.feedforwards[k] + zu[:, k] @ sqrt_r[k].T
        states[:, k + 1] = states[:, k] @ system.A[k].T + controls[:, k] @ system.B[k].T
    return states, controls


def test_block_rollouts_keep_the_whole_ensemble_bits(demo_system):
    """From two samples on, rolling out block by block changes no bit."""
    zero = np.zeros(2)
    initial = GaussianMarginal(zero, SymMatrix(DEMO_SIGMA0))
    policy = general_policy(demo_system, initial, GaussianMarginal(zero, SymMatrix(DEMO_SIGMA_T)), 1.0)
    for system, policy, initial in ((demo_system, policy, initial), four_state_problem()):
        for count in (2, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 7):
            ens = sample_ensemble(system, policy, initial, count, seed=11)
            states, controls = whole_ensemble_reference(system, policy, initial, count, 11)
            assert np.array_equal(ens.states, states), count
            assert np.array_equal(ens.controls, controls), count
