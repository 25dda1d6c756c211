"""The density-synthesis path computes once per stack of steps: each stacked
expression gives, bit for bit (signs of zero included), what the per-step
loop it replaced gave. The per-step loops are kept here as references."""

import warnings

import numpy as np
import pytest

from maxent_steer import (
    GateNotPD,
    GaussianMarginal,
    LinearSystemModel,
    SymMatrix,
    general_policy,
    lqr_policy,
    propagate_policy_moments,
    riccati_backward,
    solve_coupled_lyapunov,
)
from maxent_steer.linalg import definiteness, inv, solve_linear, sym_eig, symmetrize
from maxent_steer.lqr import soft_value_offsets
from maxent_steer.steering import _minus_pair
from maxent_steer.system import _backward_sweep, _forward_gramians, _pullback_sweep, _validate

from conftest import DEMO_A, DEMO_B, DEMO_SIGMA0, DEMO_SIGMA_T, DEMO_X0, DEMO_XT

X = np.longdouble


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


# ---------------------------------------------------------------------------
# per-step reference loops
# ---------------------------------------------------------------------------


def loop_pullback_sweep(a, b):
    horizon, n = a.shape[0], a.shape[1]
    eye = np.eye(n, dtype=a.dtype)
    a_inv = solve_linear(a, eye)
    phi = np.empty((horizon + 1, n, n), dtype=a.dtype)
    gc = np.zeros_like(phi)
    phi[0] = eye
    for k in range(horizon):
        phi[k + 1] = phi[k] @ a_inv[k]
        w = phi[k + 1] @ b[k]
        gc[k + 1] = gc[k] + w @ w.T
    return phi, gc


def loop_backward_sweep(a, b):
    a = np.asarray(a)
    b = np.asarray(b, dtype=a.dtype)
    horizon, n = a.shape[0], a.shape[1]
    phi = np.empty((horizon + 1, n, n), dtype=a.dtype)
    gr = np.zeros_like(phi)
    phi[horizon] = np.eye(n)
    for k in range(horizon - 1, -1, -1):
        w = phi[k + 1] @ b[k]
        gr[k] = symmetrize(gr[k + 1] + w @ w.T)
        phi[k] = phi[k + 1] @ a[k]
    return phi, gr


def loop_forward_gramians(a, b):
    g = np.zeros((a.shape[0] + 1,) + a.shape[1:], dtype=a.dtype)
    for k in range(a.shape[0]):
        g[k + 1] = symmetrize(a[k] @ g[k] @ a[k].T + b[k] @ b[k].T)
    return g


def loop_pipeline_fields(sys):
    """``phic``, ``mk`` and ``gcn`` of the normalized coordinates, one step at a time."""
    a, b = sys.A.astype(X), sys.B.astype(X)
    horizon, n = sys.horizon, sys.n
    phi0, gc = loop_pullback_sweep(a, b)
    w, v = sym_eig(symmetrize(gc[horizon]))
    gcih = symmetrize((v / np.sqrt(w)) @ v.T)
    phic = [gcih @ p for p in phi0]
    mk = [symmetrize((v * np.sqrt(w)) @ v.T)]
    gcn = [np.zeros((n, n), dtype=X)]
    for k in range(horizon):
        bn = phic[k + 1] @ b[k]
        gcn.append(symmetrize(gcn[k] + bn @ bn.T))
        mk.append(a[k] @ mk[k])
    return np.array(phic), np.array(mk), np.array(gcn)


def loop_riccati(sys, terminal_weight):
    horizon, n, m = sys.horizon, sys.n, sys.m
    pi = np.zeros((horizon + 1, n, n))
    gates = np.zeros((horizon, m, m))
    pi[horizon] = SymMatrix(terminal_weight).data
    eye_m = np.eye(m)
    for k in range(horizon - 1, -1, -1):
        a, b = sys.A[k], sys.B[k]
        pb = pi[k + 1] @ b
        gate = symmetrize(eye_m + b.T @ pb)
        report = definiteness(gate)
        if not report.is_pd:
            raise GateNotPD(k, f"gate at step {k} has min eigenvalue {report.min_eig:.3e}")
        gates[k] = gate
        pa = pi[k + 1] @ a
        pi[k] = symmetrize(a.T @ pa - pa.T @ b @ np.linalg.solve(gate, b.T @ pa))
    return pi, gates


def loop_soft_value_offsets(sys, gates, epsilon=1.0):
    m = sys.m
    offsets = np.zeros(sys.horizon + 1)
    for k in range(sys.horizon - 1, -1, -1):
        sign, logdet = np.linalg.slogdet(gates[k])
        log_norm = 0.5 * (m * np.log(2 * np.pi) + m * np.log(epsilon) - sign * logdet)
        offsets[k] = offsets[k + 1] - epsilon * log_norm
    return offsets


def loop_lqr_policy(sys, pi, gates, epsilon=1.0):
    """Gains and noise covariances; the target feedforwards are held to an
    extended-precision reference in ``test_lqr_target_route.py`` instead."""
    horizon, n, m = sys.horizon, sys.n, sys.m
    gains = np.zeros((horizon, m, n))
    covs = np.zeros((horizon, m, m))
    for k in range(horizon):
        gains[k] = -np.linalg.solve(gates[k], sys.B[k].T @ pi[k + 1] @ sys.A[k])
        covs[k] = epsilon * symmetrize(np.linalg.inv(gates[k]))
    return gains, (covs + np.swapaxes(covs, 1, 2)) / 2


def loop_minus_pair(pipe):
    """P, Q, gates, gains and unit-weight noise of the minus branch."""
    qn0 = symmetrize(pipe.s0h @ solve_linear(pipe.f_core, pipe.s0h))
    pn0 = symmetrize(inv(inv(pipe.s0) - inv(qn0)))
    _, mk, gcn = loop_pipeline_fields(pipe.sys)
    q_seq = [symmetrize(m @ (qn0 - g) @ m.T) for m, g in zip(mk, gcn)]
    p_seq = [symmetrize(m @ (pn0 + g) @ m.T) for m, g in zip(mk, gcn)]
    pi, gates = loop_riccati(pipe.sys, np.asarray(inv(q_seq[-1]), dtype=np.float64))
    gains, noise = loop_lqr_policy(pipe.sys, pi, gates)
    as64 = lambda s: np.asarray(s, dtype=np.float64)  # noqa: E731
    return as64(p_seq), as64(q_seq), gates, gains, noise


def loop_policy_moments(sys, policy, initial):
    if isinstance(initial, GaussianMarginal):
        mean0, cov0 = initial.mean, initial.cov.data
    else:
        mean0 = np.asarray(initial, dtype=np.float64)
        cov0 = np.zeros((sys.n, sys.n))
    horizon, n = sys.horizon, sys.n
    means = np.zeros((horizon + 1, n))
    covs = np.zeros((horizon + 1, n, n))
    means[0] = mean0
    covs[0] = cov0
    for k in range(horizon):
        a_cl = sys.A[k] + sys.B[k] @ policy.gains[k]
        means[k + 1] = sys.A[k] @ means[k] + sys.B[k] @ policy.mean_control(k, means[k])
        cov = a_cl @ covs[k] @ a_cl.T + sys.B[k] @ policy.noise_covs[k] @ sys.B[k].T
        covs[k + 1] = (cov + cov.T) / 2
    return means, covs


# ---------------------------------------------------------------------------
# plants
# ---------------------------------------------------------------------------


def _time_varying():
    rng = np.random.default_rng(1)
    horizon = 100
    a = np.eye(4) + 0.08 * rng.standard_normal((horizon, 4, 4))
    b = 0.3 * rng.standard_normal((horizon, 4, 2))
    sys = LinearSystemModel(a, b, horizon)
    sig0, sig_t = np.diag([1.0, 2.0, 0.5, 1.5]), 0.2 * np.eye(4) + 0.05
    return sys, sig0, sig_t, 0.7, rng.standard_normal(4), rng.standard_normal(4)


def _square_input():
    rng = np.random.default_rng(5)
    a = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    b = 0.4 * rng.standard_normal((3, 3))
    sys = LinearSystemModel(a, b, 30)
    return sys, np.diag([1.0, 2.0, 3.0]), 0.5 * np.eye(3), 1.3, np.array([1.0, -1.0, 0.5]), np.zeros(3)


def _zero_input_step():
    horizon = 20
    b = np.stack([DEMO_B] * horizon)
    b[5] = 0.0
    return LinearSystemModel(DEMO_A, b, horizon), DEMO_SIGMA0, DEMO_SIGMA_T, 1.0, DEMO_X0, DEMO_XT


PLANTS = {
    "demo-N50": lambda: (
        LinearSystemModel(DEMO_A, DEMO_B, 50), DEMO_SIGMA0, DEMO_SIGMA_T, 1.0, DEMO_X0, DEMO_XT
    ),
    "tv-n4-m2-N100": _time_varying,
    "n1": lambda: (LinearSystemModel([[1.1]], [[0.5]], 20), [[2.0]], [[0.5]], 0.4, [0.3], [-1.0]),
    "m-equals-n": _square_input,
    "zero-B5": _zero_input_step,
}


@pytest.fixture(scope="module", params=sorted(PLANTS))
def plant(request):
    sys, sig0, sig_t, eps, mu0, mu_t = PLANTS[request.param]()
    sig0, sig_t = np.asarray(sig0, dtype=float), np.asarray(sig_t, dtype=float)
    report, pipe = _validate(sys, sig0, sig_t, eps)
    assert report.feasible, report.diagnostics
    return sys, sig0, sig_t, eps, np.asarray(mu0, dtype=float), np.asarray(mu_t, dtype=float), pipe


# ---------------------------------------------------------------------------
# stacked == per-step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, X])
def test_sweeps(plant, dtype):
    sys = plant[0]
    a, b = sys.A.astype(dtype), sys.B.astype(dtype)
    for got, want in zip(_backward_sweep(a, b), loop_backward_sweep(a, b)):
        assert same_bits(got, want)
    for got, want in zip(_pullback_sweep(a, b), loop_pullback_sweep(a, b)):
        assert same_bits(got, want)
    assert same_bits(_forward_gramians(a, b), loop_forward_gramians(a, b))


def test_backward_sweep_overflows_where_the_loop_did():
    """Float64 sums past half the range read inf, as the per-step symmetrize made them."""
    sys = LinearSystemModel(DEMO_A, DEMO_B, 2000)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _backward_sweep(sys.A, sys.B)
        want = loop_backward_sweep(sys.A, sys.B)
    assert not np.isfinite(want[1]).all()
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def test_pipeline_fields(plant):
    pipe = plant[-1]
    phic, mk, gcn = loop_pipeline_fields(pipe.sys)
    assert same_bits(pipe.phic, phic)
    assert same_bits(pipe.mk, mk)
    assert same_bits(pipe.gcn, gcn)


def test_minus_pair(plant):
    lyap = _minus_pair(plant[-1])
    p, q, gates, gains, noise = loop_minus_pair(plant[-1])
    assert same_bits(lyap.P, p)
    assert same_bits(lyap.Q, q)
    assert same_bits(lyap.gates, gates)
    assert same_bits(lyap.gains, gains)
    assert same_bits(lyap.noise_base, noise)


def test_riccati_and_lqr_policy(plant):
    sys, sig0, sig_t, eps, _, mu_t, _ = plant
    weight = np.linalg.inv(solve_coupled_lyapunov(sys, sig0, sig_t, eps).Q[-1])
    ric = riccati_backward(sys, weight)
    pi, gates = loop_riccati(sys, weight)
    assert same_bits(ric.Pi, pi)
    assert same_bits(ric.gates, gates)
    policy = lqr_policy(sys, ric, mu_t, eps)
    for got, want in zip((policy.gains, policy.noise_covs), loop_lqr_policy(sys, pi, gates, eps)):
        assert same_bits(got, want)


def test_policy_moments(plant):
    sys, sig0, sig_t, eps, mu0, mu_t, _ = plant
    initial = GaussianMarginal(mu0, sig0)
    policy = general_policy(sys, initial, GaussianMarginal(mu_t, sig_t), eps)
    for start in (initial, mu0):
        for got, want in zip(
            propagate_policy_moments(sys, policy, start), loop_policy_moments(sys, policy, start)
        ):
            assert same_bits(got, want)


# ---------------------------------------------------------------------------
# the gate check
# ---------------------------------------------------------------------------


def test_gate_not_pd_at_interior_step_of_multi_input_sweep():
    sys = LinearSystemModel(np.eye(2), np.eye(2), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GateNotPD) as info:
            riccati_backward(sys, -0.6 * np.eye(2))
    assert info.value.step == 3
    assert str(info.value) == "gate at step 3 has min eigenvalue -5.000e-01"


def test_gate_below_the_definiteness_tolerance_is_refused():
    """A positive gate under 1e-10 * max(1, |max eig|) does not count as positive definite."""
    sys = LinearSystemModel(np.eye(1), np.eye(1), 2)
    gate = 1.0 + (-1.0 + 1e-11)
    assert gate > 0 and not definiteness([[gate]]).is_pd
    with pytest.raises(GateNotPD) as info:
        riccati_backward(sys, [[-1.0 + 1e-11]])
    assert info.value.step == 1
    assert str(info.value) == f"gate at step 1 has min eigenvalue {gate:.3e}"


def _verdict_grid():
    """192 time-varying sweeps: n in {1, 2, 3, 5}, m in {1, 2, 4}, N in {3, 20}, and
    terminal weights from positive definite to strongly indefinite."""
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 5):
        for m in (1, 2, 4):
            for horizon in (3, 20):
                for shift in (1.0, 0.1, -0.02, -0.2, -1.0, -5.0, -30.0, -300.0):
                    a = np.eye(n) + 0.4 * rng.standard_normal((horizon, n, n)) / np.sqrt(n)
                    b = 0.6 * rng.standard_normal((horizon, n, m))
                    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                    weight = (q * (shift + abs(shift) * rng.uniform(-1, 1, n))) @ q.T
                    yield LinearSystemModel(a, b, horizon), weight


def _outcome(sweep, sys, weight):
    try:
        return sweep(sys, weight)
    except GateNotPD as exc:
        return exc


def test_stacked_gate_verdict_matches_the_checked_loop():
    """Same bits when the sweep returns; same exception, step and message when it
    refuses, at the last step or inside the sweep."""
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sys, weight in _verdict_grid():
            got, want = _outcome(riccati_backward, sys, weight), _outcome(loop_riccati, sys, weight)
            if isinstance(want, GateNotPD):
                assert isinstance(got, GateNotPD)
                assert (got.step, str(got)) == (want.step, str(want))
                seen.add("last" if want.step == sys.horizon - 1 else "interior")
            else:
                assert same_bits(got.Pi, want[0])
                assert same_bits(got.gates, want[1])
                seen.add("returned")
    assert seen == {"returned", "last", "interior"}


def test_one_stacked_eigvalsh_per_sweep(monkeypatch):
    """The step loop decides nothing: one eigvalsh over all gates, and no symmetrize."""
    sys = LinearSystemModel(np.eye(2), np.eye(2), 5)
    passing, refused = SymMatrix(np.eye(2)), SymMatrix(-0.6 * np.eye(2))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: calls.append(np.shape(g)) or eigvalsh(g))
    monkeypatch.setattr("maxent_steer.linalg.symmetrize", None)
    monkeypatch.setattr("maxent_steer.lqr.symmetrize", None)
    riccati_backward(sys, passing)
    with pytest.raises(GateNotPD):
        riccati_backward(sys, refused)
    assert calls == [(5, 2, 2), (5, 2, 2)]


def test_exactly_singular_gate_is_refused_at_its_step():
    """The gate at step 2 is exactly zero, so its solve fails; the verdict, not the
    LinAlgError, reports it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GateNotPD) as info:
            riccati_backward(LinearSystemModel([[1.0]], [[1.0]], 3), [[-1.0]])
    assert info.value.step == 2
    assert str(info.value) == "gate at step 2 has min eigenvalue 0.000e+00"


def test_overflow_below_a_refused_gate_is_silent():
    """Pi_3 = -1e300 refuses the gate at step 2; the overflowing steps below it were
    never part of the result and neither warn nor raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GateNotPD) as info:
            riccati_backward(LinearSystemModel([[1e150]], [[1.0]], 4), [[-0.5]])
    assert info.value.step == 2
    assert str(info.value) == "gate at step 2 has min eigenvalue -1.000e+300"


def test_gate_that_overflows_is_refused_by_its_own_eigenvalue():
    """B^T Pi B overflows to inf at step 2; the stacked call skips the gate that is not
    finite, and the refusal reports the eigenvalue the gate gets alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GateNotPD) as info:
            riccati_backward(LinearSystemModel([[1e160]], [[1e160]], 3), [[1.0]])
    assert info.value.step == 2
    assert str(info.value) == "gate at step 2 has min eigenvalue inf"


def test_overflow_with_passing_gates_warns_once():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ric = riccati_backward(LinearSystemModel([[1e200]], [[0.0]], 1), [[1.0]])
    assert ric.Pi[0, 0, 0] == np.inf
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "Riccati sweep overflowed: Pi at step 0 is not finite")
    ]


def test_soft_value_offsets_match_the_step_loop():
    rng = np.random.default_rng(17)
    sys = LinearSystemModel(
        np.eye(3) + 0.2 * rng.standard_normal((40, 3, 3)), 0.5 * rng.standard_normal((40, 3, 2)), 40
    )
    ric = riccati_backward(sys, np.diag([2.0, 1.0, 0.5]))
    for epsilon in (1.0, 0.3):
        want = loop_soft_value_offsets(sys, ric.gates, epsilon)
        assert np.abs(soft_value_offsets(sys, ric, epsilon) - want).max() <= 1e-14 * np.abs(want).max()
