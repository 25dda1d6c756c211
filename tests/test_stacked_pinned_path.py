"""The pinned controller, its moment kernel and the bridge check do each piece of
extended-precision work once per stack. The routes they replaced are kept here
as references:

- the per-row loop of the moment kernel;
- ``rcond_eig`` of the spectrum of G_r(N, 0) and then ``pinv_eig`` of the
  eigenpairs of the G_r(N, k) stack;
- the path relative entropy as a per-step loop over n x n pseudo-inverses;
- the coupling relative entropy as ``_kl_x`` on the 2n x 2n coupling blocks.

The controller pieces must agree bit for bit, refusals included; the two
relative entropies are computed in other coordinates and must agree to
rounding."""

import importlib.util
import sys as _sys
from pathlib import Path

import numpy as np
import pytest

from maxent_steer import (
    LinearSystemModel,
    SingularGramian,
    bridge_verify,
    pinned_controller,
    pinned_moments_controller,
    point_to_point_policy,
)
from maxent_steer import pinned
from maxent_steer.linalg import _sym_from_eig, pinv_eig, psd_sqrt_raw, rcond_eig, sym_eig, symmetrize
from maxent_steer.pinned import NOISE_SNAP_RTOL, _kl_x, _PinnedPieces
from maxent_steer.steering import _minus_pair
from maxent_steer.system import (
    INVERTIBILITY_RCOND,
    _backward_sweep,
    _endpoints,
    _f64,
    _lyapunov_forward,
    _validate,
    _X,
    _xd,
)

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T, DEMO_X0, DEMO_XT

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


def swap(m):
    return np.swapaxes(m, -1, -2)


# ---------------------------------------------------------------------------
# reference routes
# ---------------------------------------------------------------------------


class LoopPieces:
    """The pinned pieces with a reachability verdict and a pseudo-inverse of their own."""

    def __init__(self, a_seq, b_seq):
        a_seq = np.asarray(a_seq)
        b_seq = np.asarray(b_seq, dtype=a_seq.dtype)
        b_t = swap(b_seq)
        phi_n, gr = _backward_sweep(a_seq, b_seq)
        if rcond_eig(sym_eig(gr[0])[0]) <= INVERTIBILITY_RCOND:
            raise SingularGramian("reachability Gramian of the full horizon is singular")
        self.phi_n = phi_n
        self.gr = gr
        phi_1 = phi_n[1:]
        phi_1t = swap(phi_1)
        self.Gd = pinv_eig(*sym_eig(gr[:-1]))
        self.D = b_seq @ b_t @ phi_1t @ self.Gd
        self.Ahat = (np.eye(a_seq.shape[1], dtype=_X) - self.D @ phi_1) @ a_seq
        w_raw = symmetrize(np.eye(b_seq.shape[2], dtype=_X) - b_t @ phi_1t @ self.Gd @ phi_1 @ b_seq)
        ew, ev = sym_eig(w_raw)
        ew = np.where(ew <= NOISE_SNAP_RTOL * np.fmax(1.0, _f64(ew[:, -1:])), 0, ew)
        self.W = _sym_from_eig(ew, ev)
        self.Lam = symmetrize(b_seq @ self.W @ b_t)


def loop_moments(sys, x0bar, target):
    """The moment kernel one row k at a time, on the reference pieces."""
    x0bar, xt = _endpoints(sys, x0bar, target, "points")
    pieces = LoopPieces(_xd(sys.A), _xd(sys.B))
    horizon, n = sys.horizon, sys.n
    mean = np.zeros((horizon + 1, n))
    cov = np.zeros((horizon + 1, horizon + 1, n, n))
    ell = _xd(x0bar)
    mean[0] = _f64(ell)
    for k in range(horizon):
        ell = pieces.Ahat[k] @ ell + pieces.D[k] @ _xd(xt)
        mean[k + 1] = _f64(ell)
    diags_x = _lyapunov_forward(pieces.Ahat, pieces.Lam, 0)
    ahat_t = swap(pieces.Ahat)
    for k in range(horizon + 1):
        row = np.empty((horizon + 1 - k, n, n), dtype=_X)
        row[0] = diags_x[k]
        for s in range(k, horizon):
            row[s - k + 1] = row[s - k] @ ahat_t[s]
        cov[k, k:] = _f64(row)
        cov[k + 1 :, k] = swap(cov[k, k + 1 :])
    return mean, cov


def _optimal_process(sys, sig0, sig_t):
    pipe = _validate(sys, sig0, sig_t, 1.0)[1]
    lyap = _minus_pair(pipe)
    return pipe.A, pipe.B, lyap, pipe.B @ psd_sqrt_raw(_xd(lyap.noise_base))


def loop_path_kl(sys, sig0, sig_t):
    """Path relative entropy at unit weight, step by step through the n x n B B^T."""
    a_seq, b_seq, lyap, bhalf_seq = _optimal_process(sys, sig0, sig_t)
    acl_seq = a_seq + b_seq @ lyap.gains
    s_opt = symmetrize(bhalf_seq @ swap(bhalf_seq))
    w_refs, v_refs = sym_eig(symmetrize(b_seq @ swap(b_seq)))
    w_opts = sym_eig(s_opt)[0]
    ranks = np.sum(w_refs > INVERTIBILITY_RCOND * np.fmax(1.0, _f64(w_refs[:, -1:])), axis=1)
    sigmas = _lyapunov_forward(acl_seq, s_opt, _xd(sig0))
    path_kl = _X(0.0)
    for k in range(sys.horizon):
        rank = int(ranks[k])
        if rank > 0:
            w_ref, v_ref, w_opt = w_refs[k], v_refs[k], w_opts[k]
            s_ref_pinv = (v_ref[:, -rank:] / w_ref[-rank:]) @ v_ref[:, -rank:].T
            delta = b_seq[k] @ lyap.gains[k]
            path_kl += (
                np.sum(np.log(w_ref[-rank:]))
                - np.sum(np.log(w_opt[-rank:]))
                + np.trace(s_ref_pinv @ s_opt[k])
                + np.trace(s_ref_pinv @ delta @ sigmas[k] @ delta.T)
                - rank
            ) / 2
    return path_kl


def loop_coupling_kl(sys, sig0, sig_t):
    """Coupling relative entropy at unit weight, on the assembled 2n x 2n couplings."""
    a_seq, b_seq, lyap, bhalf_seq = _optimal_process(sys, sig0, sig_t)
    ref = LoopPieces(a_seq, b_seq)
    opt = LoopPieces(a_seq + b_seq @ lyap.gains, bhalf_seq)
    sig0_x, sig_t_x = _xd(sig0), _xd(sig_t)
    y_cross = opt.phi_n[0] @ sig0_x
    phi0, gr0 = ref.phi_n[0], ref.gr[0]
    coupling_opt = np.block([[sig0_x, y_cross.T], [y_cross, sig_t_x]])
    y_ref = phi0 @ sig0_x
    coupling_ref = np.block([[sig0_x, y_ref.T], [y_ref, symmetrize(y_ref @ phi0.T + gr0)]])
    return _kl_x(coupling_opt, coupling_ref)


# ---------------------------------------------------------------------------
# plants
# ---------------------------------------------------------------------------


def _pinned_n3_m1():
    rng = np.random.default_rng(10)
    a = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    return LinearSystemModel(a, 0.5 * rng.standard_normal((3, 1)), 50), rng.standard_normal(3), rng.standard_normal(3)


def _random_tv():
    rng = np.random.default_rng(3)
    a = np.eye(4) + 0.3 * rng.standard_normal((25, 4, 4))
    return LinearSystemModel(a, rng.standard_normal((25, 4, 2)), 25), rng.standard_normal(4), rng.standard_normal(4)


def _singular_a3():
    a = np.stack([DEMO_A] * 20)
    a[3] = 0.0
    return LinearSystemModel(a, DEMO_B, 20), DEMO_X0, DEMO_XT


POINT_PLANTS = {
    "demo-N50": lambda: (LinearSystemModel(DEMO_A, DEMO_B, 50), DEMO_X0, DEMO_XT),
    "demo-N1": lambda: (LinearSystemModel(DEMO_A, np.eye(2), 1), DEMO_X0, DEMO_XT),
    "pinned-n3-m1-N50": _pinned_n3_m1,
    "random-tv-n4-m2": _random_tv,
    "singular-A3": _singular_a3,
    "n1": lambda: (LinearSystemModel(np.array([[1.1]]), np.array([[0.5]]), 12), np.ones(1), -np.ones(1)),
}

# the controller serves demo N=65 and refuses the other three: G_r(N, 0) is singular at tolerance
REFUSAL_PLANTS = {
    "demo-N65": lambda: LinearSystemModel(DEMO_A, DEMO_B, 65),
    "demo-N80": lambda: LinearSystemModel(DEMO_A, DEMO_B, 80),
    "zero-B": lambda: LinearSystemModel(DEMO_A, np.zeros((2, 1)), 10),
    "demo-N100": lambda: LinearSystemModel(DEMO_A, DEMO_B, 100),
}


def _demo(horizon, b=DEMO_B):
    return LinearSystemModel(DEMO_A, b, horizon), DEMO_SIGMA0, DEMO_SIGMA_T


def _zero_input_step():
    b = np.stack([DEMO_B] * 20)
    b[5] = 0.0
    return _demo(20, b)


DENSITY_PLANTS = {
    "demo-N50": lambda: _demo(50),
    "rank1-m3-n2": lambda: _demo(30, np.array([[0.1], [0.22]]) @ np.array([[1.0, -0.5, 2.0]])),
    "duplicated-columns": lambda: _demo(50, np.array([[0.0, 0.0], [0.22, 0.22]])),
    "zero-B5": _zero_input_step,
    "n1": lambda: (
        LinearSystemModel(np.array([[1.1]]), np.array([[0.5]]), 12), np.array([[2.0]]), np.array([[0.3]])
    ),
    "n1-m2": lambda: (
        LinearSystemModel(np.array([[1.1]]), np.array([[0.5, -0.2]]), 12), np.array([[2.0]]), np.array([[0.3]])
    ),
}


def verify_plants():
    """The bridge plants of the benchmark's verify workload (seed 1), taken at unit weight."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = _sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    rng = workloads._rng(1, "verify")
    return [workloads.density_problem(rng, f"bridge-n{n}-N{h}", n, h) for n in (2, 4, 6) for h in (50, 100)]


# ---------------------------------------------------------------------------
# bit-identical controller pieces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plant", sorted(POINT_PLANTS))
def test_pieces_match_the_separate_verdict_and_pseudo_inverse(plant):
    sys = POINT_PLANTS[plant]()[0]
    got = _PinnedPieces(_xd(sys.A), _xd(sys.B))
    want = LoopPieces(_xd(sys.A), _xd(sys.B))
    for name in ("phi_n", "gr", "Gd", "D", "Ahat", "W", "Lam"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(got.logdet_gr0, np.sum(np.log(sym_eig(got.gr[0])[0])))


@pytest.mark.parametrize("plant", sorted(REFUSAL_PLANTS))
def test_pieces_refuse_where_the_separate_verdict_does(plant):
    sys = REFUSAL_PLANTS[plant]()
    args = (_xd(sys.A), _xd(sys.B))
    try:
        want = LoopPieces(*args)
    except SingularGramian as exc:
        with pytest.raises(SingularGramian) as got:
            _PinnedPieces(*args)
        assert str(got.value) == str(exc)
    else:
        assert same_bits(_PinnedPieces(*args).Gd, want.Gd)


def test_refusal_plants_cover_both_verdicts():
    verdicts = set()
    for make in REFUSAL_PLANTS.values():
        sys = make()
        try:
            LoopPieces(_xd(sys.A), _xd(sys.B))
            verdicts.add("served")
        except SingularGramian:
            verdicts.add("refused")
    assert verdicts == {"served", "refused"}


@pytest.mark.parametrize("plant", sorted(POINT_PLANTS))
def test_controller_and_policy_match_the_reference_pieces(plant, monkeypatch):
    sys, x0, xt = POINT_PLANTS[plant]()
    got_ctrl = pinned_controller(sys, x0, xt)
    got_policy = point_to_point_policy(sys, x0, xt)
    with monkeypatch.context() as patch:
        patch.setattr(pinned, "_PinnedPieces", LoopPieces)
        want_ctrl = pinned_controller(sys, x0, xt)
        want_policy = point_to_point_policy(sys, x0, xt)
    for name in ("closed_loop", "target_gain", "noise_covs", "target"):
        assert same_bits(getattr(got_ctrl, name), getattr(want_ctrl, name)), name
    for got, want in ((got_ctrl.policy, want_ctrl.policy), (got_policy, want_policy)):
        for name in ("gains", "feedforwards", "noise_covs"):
            assert same_bits(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("plant", sorted(POINT_PLANTS))
def test_moment_kernel_by_diagonals_matches_the_row_loop(plant):
    sys, x0, xt = POINT_PLANTS[plant]()
    got = pinned_moments_controller(sys, x0, xt)
    mean, cov = loop_moments(sys, x0, xt)
    assert same_bits(got.mean, mean)
    assert same_bits(got.cov, cov)


# ---------------------------------------------------------------------------
# relative entropies in their own coordinates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plant", sorted(DENSITY_PLANTS))
def test_path_entropy_in_the_range_of_b_matches_the_n_by_n_loop(plant):
    sys, sig0, sig_t = DENSITY_PLANTS[plant]()
    report = bridge_verify(sys, sig0, sig_t, 1.0)
    want = float(loop_path_kl(sys, sig0, sig_t))
    assert want > 0
    assert report.path_kl == pytest.approx(want, rel=1e-15, abs=0)


def test_coupling_entropy_by_the_chain_rule_matches_the_joint_blocks():
    for p in verify_plants():
        sys = LinearSystemModel(p.a, p.b, p.horizon)
        report = bridge_verify(sys, p.sigma0, p.sigma_t, 1.0)
        assert report.skipped_reason is None, p.name
        want = float(loop_coupling_kl(sys, p.sigma0, p.sigma_t))
        assert abs(report.coupling_kl - want) <= 1e-12 * (1 + abs(want)), p.name
