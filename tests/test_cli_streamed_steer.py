"""`steer` and `pin` stream the ensemble: a first pass rolls out every noise
block to check it, then the writer's processes roll the blocks out again as
they format them, each block in the one process that formats it. The bytes
are those of `write_trajectory_csv` on the whole `sample_ensemble`, for any
sample count and CPU count, and no process holds more than one block of
paths."""

import json
import os
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from maxent_steer import AffineGaussianPolicy, GaussianMarginal, LinearSystemModel, cli, simulate, specio
from maxent_steer.cli import main
from maxent_steer.simulate import BLOCK, sample_ensemble
from maxent_steer.specio import load_policy, load_spec, write_trajectory_csv
from maxent_steer.steering import _general_policy_and_pair

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 1000]


def demo_spec():
    return {
        "horizon": 50,
        "epsilon": 1.0,
        "A": DEMO_A.tolist(),
        "B": DEMO_B.tolist(),
        "initial": {"mean": [-2.0, 4.0], "cov": DEMO_SIGMA0.tolist()},
        "terminal": {"mean": [1.0, 0.0], "cov": DEMO_SIGMA_T.tolist()},
    }


def time_varying_spec():
    """n = 4, m = 2, N = 30, a different A_k and B_k at every step."""
    rng = np.random.default_rng(5)
    horizon = 30
    return {
        "horizon": horizon,
        "epsilon": 0.5,
        "A": np.stack([np.eye(4) + 0.05 * rng.standard_normal((4, 4)) for _ in range(horizon)]).tolist(),
        "B": (0.3 * rng.standard_normal((horizon, 4, 2))).tolist(),
        "initial": {"mean": [1.0, 0.0, -1.0, 2.0], "cov": (2.0 * np.eye(4)).tolist()},
        "terminal": {"mean": [0.0, 0.0, 0.0, 0.0], "cov": (0.5 * np.eye(4)).tolist()},
    }


SPECS = {"demo": demo_spec, "time-varying": time_varying_spec}


@pytest.fixture()
def forks(monkeypatch):
    """Count this process's forks; returns a setter for the usable CPUs."""
    calls = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    monkeypatch.setattr(specio, "_FORK_MIN_VALUES", 1)

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)), raising=False)
        calls.clear()
        return calls

    return set_cpus


def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def steer(spec_path, out, count, seed, *extra):
    return CliRunner().invoke(
        main, ["steer", "--spec", spec_path, *extra, "--samples", str(count), "--seed", str(seed), "--out", str(out)]
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_streamed_bytes_equal_the_whole_ensemble_writer(tmp_path, forks, name):
    spec_path = write_spec(tmp_path, SPECS[name]())
    spec = load_spec(spec_path)
    system = spec.system()
    policy, _ = _general_policy_and_pair(system, spec.initial, spec.terminal, spec.epsilon)
    for count in COUNTS:
        ens = sample_ensemble(system, policy, spec.initial, count, 11)
        write_trajectory_csv(str(tmp_path / "ref.csv"), ens.states, ens.controls)
        for workers in (1, 2):
            calls = forks(workers)
            result = steer(spec_path, tmp_path / "new.csv", count, 11)
            assert result.exit_code == 0, result.output
            assert len(calls) == min(workers, -(-count // BLOCK)) - 1, (count, workers)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), (count, workers)


def test_one_sample_is_the_prefix_of_two(tmp_path):
    spec_path = write_spec(tmp_path, demo_spec())
    for count in (1, 2):
        assert steer(spec_path, tmp_path / f"{count}.csv", count, 11).exit_code == 0
    one = (tmp_path / "1.csv").read_text().splitlines()
    two = (tmp_path / "2.csv").read_text().splitlines()
    assert two[: len(one)] == one and len(two) == 2 * len(one) - 1


def overflowing_problem(tmp_path, count, seed):
    """x_{k+1} = 10 x_k from x_0 ~ N(0, c^2), with c chosen so that the
    largest |x_0|, drawn in block 2, overflows one step before any draw of
    blocks 0 and 1."""
    horizon = 170
    unit = sample_ensemble(
        LinearSystemModel(np.array([[10.0]]), np.array([[1.0]]), 1),
        AffineGaussianPolicy(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1, 1))),
        GaussianMarginal(np.zeros(1), np.eye(1)),
        count,
        seed,
    ).states[:, 0, 0]
    early, late = np.abs(unit[: 2 * BLOCK]).max(), np.abs(unit[2 * BLOCK :]).max()
    assert late > 1.05 * early
    scale = np.finfo(float).max / 1e160 / np.sqrt(early * late)
    spec = tmp_path / "unstable.json"
    spec.write_text(json.dumps({
        "horizon": horizon,
        "epsilon": 1.0,
        "A": [[10.0]],
        "B": [[1.0]],
        "initial": {"mean": [0.0], "cov": [[scale**2]]},
        "terminal": {"mean": [0.0], "cov": [[1.0]]},
    }))
    policy = tmp_path / "open_loop.json"
    policy.write_text(json.dumps({
        "kind": "maxent-steer-policy",
        "horizon": horizon,
        "n": 1,
        "m": 1,
        "gains": [[[0.0]]] * horizon,
        "feedforwards": [[0.0]] * horizon,
        "noise_covs": [[[0.0]]] * horizon,
    }))
    return str(spec), str(policy)


def first_nonfinite_step(states):
    finite = np.isfinite(states).all(axis=(0, 2))
    return int(np.argmin(finite)) if not finite.all() else None


@pytest.mark.parametrize("workers", [1, 2])
def test_overflow_first_in_block_two_exits_one_and_keeps_out(tmp_path, forks, workers):
    count, seed = 700, 2
    spec_path, policy_path = overflowing_problem(tmp_path, count, seed)
    spec = load_spec(spec_path)
    with np.errstate(over="ignore", invalid="ignore"):
        states = sample_ensemble(spec.system(), load_policy(policy_path)[0], spec.initial, count, seed).states
    step = first_nonfinite_step(states)
    # the first two blocks overflow one step later: only block 2 names the step
    assert step is not None and first_nonfinite_step(states[: 2 * BLOCK]) == step + 1
    out = tmp_path / "paths.csv"
    out.write_bytes(b"previous run\n")
    calls = forks(workers)
    result = steer(spec_path, out, count, seed, "--policy", policy_path)
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: rollout failed: the sampled states are not finite at step {step}\n"
    assert result.stdout == ""
    assert out.read_bytes() == b"previous run\n"
    assert calls == []


def test_cli_does_not_sample_the_whole_ensemble(tmp_path, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the command line rolled out the whole ensemble")

    monkeypatch.setattr(simulate, "sample_ensemble", refuse)
    assert not hasattr(cli, "sample_ensemble")
    result = steer(write_spec(tmp_path, demo_spec()), tmp_path / "paths.csv", 3 * BLOCK + 5, 4)
    assert result.exit_code == 0, result.output


def test_one_block_alive_at_a_time(tmp_path, monkeypatch, forks):
    """On one process, every block is dropped before the next is rolled out,
    in the check pass and in the writer alike."""
    forks(1)
    real = cli._block_rollout
    alive, rolled = [], []

    def tracked(*args):
        rollout = real(*args)

        def wrapped(b):
            assert all(ref() is None for ref in alive), f"a block is still held when block {b} is rolled out"
            states, controls = rollout(b)
            alive[:] = [weakref.ref(states), weakref.ref(controls)]
            rolled.append(b)
            return states, controls

        return wrapped

    monkeypatch.setattr(cli, "_block_rollout", tracked)
    count = 4 * BLOCK + 7
    result = steer(write_spec(tmp_path, demo_spec()), tmp_path / "paths.csv", count, 4)
    assert result.exit_code == 0, result.output
    # one check pass and one writing pass over the five blocks
    assert rolled == [0, 1, 2, 3, 4] * 2


def test_each_block_is_rolled_out_by_one_writer(tmp_path, monkeypatch, forks):
    """Across the forked writers, every noise block is rolled out exactly once,
    by worker b mod 2, after the check pass has rolled out each block once."""
    forks(2)
    real = cli._block_rollout
    log = tmp_path / "rollouts.log"

    def logged(*args):
        rollout = real(*args)

        def wrapped(b):
            with open(log, "a") as fh:  # one short append per line, so the processes do not interleave
                fh.write(f"{os.getpid()} {b}\n")
            return rollout(b)

        return wrapped

    monkeypatch.setattr(cli, "_block_rollout", logged)
    blocks = 5
    result = steer(write_spec(tmp_path, demo_spec()), tmp_path / "paths.csv", (blocks - 1) * BLOCK + 7, 4)
    assert result.exit_code == 0, result.output
    entries = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    check, written = entries[:blocks], entries[blocks:]
    assert check == [(os.getpid(), b) for b in range(blocks)]
    (child,) = {pid for pid, _ in written} - {os.getpid()}
    want = [(child if b % 2 else os.getpid(), b) for b in range(blocks)]
    assert sorted(written, key=lambda e: e[1]) == want
