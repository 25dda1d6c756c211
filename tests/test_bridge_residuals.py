"""The per-step residuals of bridge_verify are stacked norms; they agree with the
per-step loops they replaced up to the rounding of the norms."""

import numpy as np
import pytest

from maxent_steer import LinearSystemModel, bridge_verify
from maxent_steer.linalg import psd_sqrt_raw, solve_linear, symmetrize
from maxent_steer.pinned import _PinnedPieces
from maxent_steer.steering import _minus_pair
from maxent_steer.system import _validate, _xd

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T, random_feasible_instance

# the stacked and per-step Frobenius norms may sum their squares in different orders
RTOL = 8 * np.finfo(np.float64).eps


def rel(diff, ref):
    return float(np.linalg.norm(np.asarray(diff, dtype=np.float64))) / (
        1.0 + float(np.linalg.norm(np.asarray(ref, dtype=np.float64)))
    )


def loop_residuals(sys, sig0, sig_t):
    """Coupled-Gramian, feedforward, closed-loop and noise residuals, one step at a time."""
    pipe = _validate(sys, sig0, sig_t, 1.0)[1]
    lyap = _minus_pair(pipe)
    a, b, horizon = pipe.A, pipe.B, sys.horizon
    ref = _PinnedPieces(a, b)
    opt = _PinnedPieces(a + b @ lyap.gains, b @ psd_sqrt_raw(_xd(lyap.noise_base)))
    r1 = symmetrize(pipe.mk @ (pipe.gcn[horizon] - pipe.gcn) @ np.swapaxes(pipe.mk, -1, -2))
    r2 = symmetrize(solve_linear(opt.phi_n, np.swapaxes(solve_linear(opt.phi_n, opt.gr), -1, -2)))
    jk = np.asarray(r1 + r1 @ solve_linear(_xd(lyap.Q), r2) - r2, dtype=np.float64)
    r1, r2 = np.asarray(r1, dtype=np.float64), np.asarray(r2, dtype=np.float64)
    gramian = 0.0
    for k in range(horizon + 1):
        scale = max(float(np.linalg.norm(r1[k])), float(np.linalg.norm(r2[k])))
        gramian = max(gramian, float(np.linalg.norm(jk[k])) / (1.0 + scale))
    feed = cl = noise = 0.0
    for k in range(horizon):
        feed = max(feed, rel(ref.D[k] - opt.D[k], ref.D[k]))
        cl = max(cl, rel(ref.Ahat[k] - opt.Ahat[k], ref.Ahat[k]))
        noise = max(noise, rel(ref.Lam[k] - opt.Lam[k], ref.Lam[k]))
    return {"gramian_coupling": gramian, "feedforward": feed, "closed_loop": cl, "noise": noise}


def _zero_input_step():
    b = np.stack([DEMO_B] * 20)
    b[5] = 0.0
    return LinearSystemModel(DEMO_A, b, 20), DEMO_SIGMA0, DEMO_SIGMA_T


PLANTS = {
    "demo-N50": lambda: (LinearSystemModel(DEMO_A, DEMO_B, 50), DEMO_SIGMA0, DEMO_SIGMA_T),
    "zero-B5": _zero_input_step,
    "random-tv": lambda: random_feasible_instance(
        np.random.default_rng(4), n_max=4, horizon_max=30, time_varying=True
    )[:3],
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_stacked_residuals_match_the_step_loops(plant):
    sys, sig0, sig_t = PLANTS[plant]()
    got = bridge_verify(sys, sig0, sig_t, 1.0).residuals
    for name, want in loop_residuals(sys, sig0, sig_t).items():
        assert got[name] == pytest.approx(want, rel=RTOL, abs=1e-300), name
