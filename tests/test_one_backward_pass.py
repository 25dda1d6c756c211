"""One backward pass per closed loop: the Riccati sweep keeps its gains K_k and
the closed-loop transitions Psi(N, k), and the density solve, the mean route and
the target route read them instead of sweeping their closed loop a second time."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from maxent_steer import (
    GaussianMarginal,
    LinearSystemModel,
    MaxEntLqrProblem,
    general_policy,
    lqr,
    lqr_policy,
    mean_steering,
    riccati_backward,
    solve_coupled_lyapunov,
    steering,
    system,
)
from maxent_steer.cli import main
from maxent_steer.linalg import psd_sqrt_raw
from maxent_steer.steering import _steering_gramian
from maxent_steer.system import _backward_sweep

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T, DEMO_X0, DEMO_XT
from test_stacked_density_path import PLANTS, same_bits


@pytest.fixture()
def passes(monkeypatch):
    """Counters of the Riccati sweeps run and of the ``_backward_sweep`` calls made."""
    sweeps, backward = [], []
    sweep, back = lqr.riccati_backward, system._backward_sweep

    def counted_sweep(*args):
        sweeps.append(1)
        return sweep(*args)

    def counted_backward(*args):
        backward.append(1)
        return back(*args)

    for module in (lqr, steering):
        monkeypatch.setattr(module, "riccati_backward", counted_sweep)
    monkeypatch.setattr(system, "_backward_sweep", counted_backward)
    return sweeps, backward


def demo(passes):
    """The demo model with its open-loop feasibility sweep already run and kept,
    and the counters cleared."""
    sys = LinearSystemModel(DEMO_A, DEMO_B, 50)
    sys._feasibility
    for counter in passes:
        counter.clear()
    return sys


def test_no_closed_loop_route_beside_the_sweep():
    for module in (lqr, steering):
        assert not hasattr(module, "_backward_sweep")
        assert not hasattr(module, "psd_sqrt_raw")


def test_general_policy_sweeps_its_closed_loop_once(passes):
    sys = demo(passes)
    initial, terminal = GaussianMarginal(DEMO_X0, DEMO_SIGMA0), GaussianMarginal(DEMO_XT, DEMO_SIGMA_T)
    policy = general_policy(sys, initial, terminal)
    assert np.any(policy.feedforwards)
    assert (len(passes[0]), len(passes[1])) == (1, 0)


def test_mean_steering_sweeps_its_closed_loop_once(passes):
    mean_steering(demo(passes), DEMO_X0, DEMO_XT)
    assert (len(passes[0]), len(passes[1])) == (1, 0)


def test_lqr_target_route_sweeps_once_and_solves_nothing(passes, monkeypatch):
    sys = demo(passes)
    policy = MaxEntLqrProblem(sys, np.eye(2), DEMO_XT, 0.5).solve()
    assert np.any(policy.feedforwards)
    assert (len(passes[0]), len(passes[1])) == (1, 0)
    ric = riccati_backward(sys, np.eye(2))
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    lqr_policy(sys, ric, DEMO_XT, 0.5)
    assert solves == []


def test_cli_solve_sweeps_its_closed_loop_once(passes, tmp_path):
    spec = {
        "horizon": 50,
        "epsilon": 1.0,
        "A": DEMO_A.tolist(),
        "B": DEMO_B.tolist(),
        "initial": {"mean": DEMO_X0.tolist(), "cov": DEMO_SIGMA0.tolist()},
        "terminal": {"mean": DEMO_XT.tolist(), "cov": DEMO_SIGMA_T.tolist()},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = CliRunner().invoke(main, ["solve", "--spec", str(path), "--out", str(tmp_path / "policy.json")])
    assert result.exit_code == 0, result.output
    # the command line's model runs its open-loop feasibility sweep once; no closed loop is swept again
    assert (len(passes[0]), len(passes[1])) == (1, 1)


def closed_loop_product(sys, gains):
    """Psi(N, k) = Psi(N, k+1) (A_k + B_k K_k), one step at a time."""
    psi = np.empty((sys.horizon + 1, sys.n, sys.n))
    psi[-1] = np.eye(sys.n)
    for k in range(sys.horizon - 1, -1, -1):
        psi[k] = psi[k + 1] @ (sys.A[k] + sys.B[k] @ gains[k])
    return psi


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_psi_is_the_product_of_the_returned_closed_loop(name):
    sys, sig0, sig_t, eps = PLANTS[name]()[:4]
    lyap = solve_coupled_lyapunov(sys, sig0, sig_t, eps)
    assert same_bits(lyap.psi, closed_loop_product(sys, lyap.gains))
    ric = riccati_backward(sys, np.eye(sys.n))
    assert same_bits(ric.psi, closed_loop_product(sys, ric.gains))


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_steering_gramian_agrees_with_the_square_root_route(name):
    """S from one stacked sum over the sweep's Psi against the former route: a second
    backward sweep of the closed loop, driven by B_k R_k^{1/2}."""
    sys, sig0, sig_t, eps = PLANTS[name]()[:4]
    lyap = solve_coupled_lyapunov(sys, sig0, sig_t, eps)
    want = _backward_sweep(sys.A + sys.B @ lyap.gains, sys.B @ psd_sqrt_raw(lyap.noise_base))[1][0]
    got = _steering_gramian(sys, lyap.psi, lyap.noise_base)
    assert np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
