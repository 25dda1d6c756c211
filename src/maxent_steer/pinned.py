"""Point-to-point steering, pinned processes, and bridge verification.

The point-steering controller is the vanishing-terminal-variance limit of
the entropy-regularized regulator: a linear feedback toward the target
with additive Gaussian noise whose covariance degenerates exactly in the
directions the remaining horizon can still reach. The state process it
induces is the noise-driven system conditioned on its endpoint (a pinned
process, generalizing the Brownian bridge), which this module verifies two
independent ways: by propagating the controller's closed loop, and by
Schur-complement conditioning of the joint Gaussian law.

:func:`bridge_verify` checks numerically that the optimal density-steering
process solves the minimum-relative-entropy (Schroedinger bridge) problem
with the noise-driven system as reference: the endpoint-coupling
first-order condition, a coupled-Gramian identity, equality of the pinned
dynamics of the reference and optimal processes, and consistency of the
path-space and coupling relative entropies.

Long unstable horizons make several of these comparisons catastrophically
ill-conditioned in double precision (the conditioning route loses up to
nine digits on the bundled example), so the module forms transition
products and Gramians in ``np.longdouble`` like the steering solver and
reports float64 results. The moments of a policy are float64: the pinned
kernel and the path relative entropy read those that
:func:`~maxent_steer.simulate.propagate_policy_moments` gives for the
float64 policy, the one that sampling draws from.

Transition products and Gramians come from the sweeps in
:mod:`maxent_steer.system`: ``_backward_sweep`` for the pinned pieces of the
reference and optimal processes, ``_Pipeline`` for the oracle and the bridge.

Each piece of work is done once per stack of steps:

- the pinned pieces take one eigendecomposition of the G_r(N, k) stack, which
  gives the reachability refusal (its k = 0 member), log det G_r(N, 0) and
  the pseudo-inverses G_r(N, k)^+;
- the controller's moment kernel is built one diagonal d = s - k at a time
  for all k, cov(k, k + d) = cov(k, k + d - 1) (A + B K)_{k+d-1}^T, so N
  stacked products replace N(N+1)/2 single ones;
- the path relative entropy is summed in the range of each B_k = U S V^T:
  with M = V^T N_k V (N_k the unit-weight noise covariance of the optimal
  process, K_k its gain, Sigma_k its state covariance and r the rank of B_k),
  step k adds (tr M - log det M - r + tr(V^T K_k Sigma_k K_k^T V)) / 2, from
  one m x m eigendecomposition stack of B_k^T B_k and one of M;
- the coupling relative entropy follows the chain rule over x_0, whose law
  both couplings share: with Y = Phi_Q(N, 0) Sigma_0 the optimal endpoint
  cross-covariance (Phi_Q the optimal closed loop's transition),
  S = Sigma_N - Y Sigma_0^{-1} Y^T and Delta = Y Sigma_0^{-1} - Phi(N, 0), it
  is (log det G_r(N, 0) - log det S + tr(G_r(N, 0)^{-1} (S + Delta Sigma_0
  Delta^T)) - n) / 2. S is positive definite for every epsilon > 0; where
  rounding has lost that (tiny epsilon), :func:`bridge_verify` raises
  :class:`NumericalLimit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPD, NumericalLimit
from .linalg import (
    GaussianMarginal,
    _condition_gain,
    _sym_from_eig,
    pinv_eig,
    psd_sqrt_raw,
    solve_linear,
    sym_eig,
    symmetrize,
)
from .lqr import AffineGaussianPolicy
from .simulate import propagate_policy_moments
from .steering import _minus_pair, optimal_density_policy
from .system import (
    INVERTIBILITY_RCOND,
    LinearSystemModel,
    _backward_sweep,
    _cov_of,
    _covariances,
    _endpoints,
    _f64,
    _Pipeline,
    _require_positive,
    _require_reachable,
    _validate,
    _X,
    _xd,
)

__all__ = [
    "PinnedController",
    "PinnedMoments",
    "BridgeReport",
    "pinned_controller",
    "point_to_point_policy",
    "pinned_moments_controller",
    "conditional_gaussian_oracle",
    "gaussian_kl",
    "bridge_verify",
    "coupling_objective",
]

#: eigenvalues of pinned noise covariances at or below this (relative) size
#: are snapped to exact zero so endpoint pinning survives sampling
NOISE_SNAP_RTOL = 1e-12


@dataclass(frozen=True)
class PinnedController:
    """Closed-loop form of the point-steering controller.

    x_{k+1} = closed_loop[k] x_k + target_gain[k] target + B_k w_k with
    w_k ~ N(0, noise_covs[k]); the input noise covariances are positive
    semidefinite and exactly singular where pinning requires it (at the
    last step they project onto the null space of B_{N-1}). ``policy`` is
    the same controller in input-space affine-Gaussian form.
    """

    closed_loop: np.ndarray
    target_gain: np.ndarray
    noise_covs: np.ndarray
    target: np.ndarray
    policy: AffineGaussianPolicy

    @property
    def horizon(self) -> int:
        return self.closed_loop.shape[0]

    def as_policy(self) -> AffineGaussianPolicy:
        return self.policy


@dataclass(frozen=True)
class PinnedMoments:
    """Mean path and two-time covariance kernel of a pinned process.

    ``cov[k, s]`` is E[(x_k - mean_k)(x_s - mean_s)^T]; the kernel is
    stored fully (both triangles).
    """

    mean: np.ndarray
    cov: np.ndarray

    @property
    def horizon(self) -> int:
        return self.mean.shape[0] - 1

    def cov_block(self, k: int, s: int) -> np.ndarray:
        return self.cov[k, s]


class _PinnedPieces:
    """Per-step controller matrices in extended precision, stacked over the steps.

    ``phi_n`` and ``gr`` stack Phi(N, k) and G_r(N, k) for k = 0..N, and
    ``logdet_gr0`` is log det G_r(N, 0). One eigendecomposition of the
    G_r(N, k) stack, k < N, gives that log det, the reachability refusal (its
    k = 0 member) and the pseudo-inverses. For each step k < N:
    Gd = G_r(N, k)^+, the state feedforward map
    D_k = B_k B_k^T Phi(N, k+1)^T Gd, the pinned closed loop
    Ahat_k = (I - D_k Phi(N, k+1)) A_k, the input noise covariance
    W_k = I - B_k^T Phi(N, k+1)^T Gd Phi(N, k+1) B_k (snapped PSD), and
    the state-space noise covariance Lam_k = B_k W_k B_k^T.
    """

    def __init__(self, a_seq, b_seq):
        a_seq = np.asarray(a_seq)
        b_seq = np.asarray(b_seq, dtype=a_seq.dtype)
        b_t = np.swapaxes(b_seq, -1, -2)
        phi_n, gr = _backward_sweep(a_seq, b_seq)
        w, v = sym_eig(gr[:-1])
        _require_reachable(w[0])
        self.phi_n = phi_n
        self.gr = gr
        self.logdet_gr0 = np.sum(np.log(w[0]))
        phi_1 = phi_n[1:]
        phi_1t = np.swapaxes(phi_1, -1, -2)
        self.Gd = pinv_eig(w, v)
        self.D = b_seq @ b_t @ phi_1t @ self.Gd
        self.Ahat = (np.eye(a_seq.shape[1], dtype=_X) - self.D @ phi_1) @ a_seq
        w_raw = symmetrize(np.eye(b_seq.shape[2], dtype=_X) - b_t @ phi_1t @ self.Gd @ phi_1 @ b_seq)
        ew, ev = sym_eig(w_raw)
        ew = np.where(ew <= NOISE_SNAP_RTOL * np.fmax(1.0, _f64(ew[:, -1:])), 0, ew)
        self.W = _sym_from_eig(ew, ev)
        self.Lam = symmetrize(b_seq @ self.W @ b_t)


def pinned_controller(sys: LinearSystemModel, x0bar, target) -> PinnedController:
    """Point-steering controller driving every path to ``target`` at time N.

    Requires an invertible full-horizon reachability Gramian G_r(N, 0).
    No A_k is inverted, so singular dynamics are allowed. The controller
    does not depend on ``x0bar``, which is only checked for its dimension;
    it is the initial state of the mean of :func:`pinned_moments_controller`.
    """
    x0bar, xt = _endpoints(sys, x0bar, target, "points")
    pieces = _PinnedPieces(_xd(sys.A), _xd(sys.B))
    bt_phi_gd = np.swapaxes(_xd(sys.B), -1, -2) @ np.swapaxes(pieces.phi_n[1:], -1, -2) @ pieces.Gd
    policy = AffineGaussianPolicy(
        _f64(-bt_phi_gd @ pieces.phi_n[:-1]), _f64(bt_phi_gd @ _xd(xt)), _f64(pieces.W)
    )
    return PinnedController(
        closed_loop=_f64(pieces.Ahat),
        target_gain=_f64(pieces.D),
        noise_covs=_f64(pieces.W),
        target=xt,
        policy=policy,
    )


def point_to_point_policy(sys: LinearSystemModel, x0bar, target) -> AffineGaussianPolicy:
    """Input-space policy of the point-steering controller.

    u_k ~ N(-B_k^T Phi(N,k+1)^T G_r(N,k)^+ Phi(N,k) (x - Phi(k,N) target),
            I - B_k^T Phi(N,k+1)^T G_r(N,k)^+ Phi(N,k+1) B_k)

    The noise covariance may be singular; at the final step it projects
    onto the null space of B_{N-1}, which is what pins the endpoint.
    """
    return pinned_controller(sys, x0bar, target).policy


def pinned_moments_controller(sys: LinearSystemModel, x0bar, target) -> PinnedMoments:
    """Mean path and covariance kernel of the controller-driven process.

    The moments of the float64 policy of :func:`pinned_controller`, the one
    that sampling draws from: the mean and the covariances cov(k, k) come from
    :func:`~maxent_steer.simulate.propagate_policy_moments`, and the
    cross-covariances follow one diagonal d = s - k at a time for all k,
    cov(k, k + d) = cov(k, k + d - 1) (A + B K)_{k+d-1}^T. Like
    :func:`pinned_controller`, it needs G_r(N, 0) invertible, not A_k.
    """
    policy = pinned_controller(sys, x0bar, target).policy
    mean, band = propagate_policy_moments(sys, policy, x0bar)
    horizon, n = sys.horizon, sys.n
    cov = np.zeros((horizon + 1, horizon + 1, n, n))
    acl_t = np.swapaxes(sys.A + sys.B @ policy.gains, -1, -2)
    steps = np.arange(horizon + 1)
    cov[steps, steps] = band
    for d in range(1, horizon + 1):
        band = band[:-1] @ acl_t[d - 1 :]
        k = steps[: horizon + 1 - d]
        cov[k, k + d] = band
        cov[k + d, k] = np.swapaxes(band, -1, -2)
    return PinnedMoments(mean, cov)


def conditional_gaussian_oracle(sys: LinearSystemModel, x0bar, target) -> PinnedMoments:
    """Pinned moments straight from Gaussian conditioning, for verification.

    Conditions the joint Gaussian law of the noise-driven states on the
    terminal state and reads off the conditional moments. The law is taken
    in normalized coordinates (states premultiplied by Gc^{-1/2} Phi(0, k)),
    where cov(y_k, y_s) = gcn[min(k, s)] is a bounded partial sum and the
    observed block T = gcn[N] is the identity up to round-off. T is checked
    and factored once, and all gains gcn[k] T^{-1} come from one solve. Block
    (k, s) of the conditional covariance is the Schur complement
    gcn[min(k, s)] - gcn[k] T^{-1} gcn[s], averaged with the transpose of
    block (s, k) as conditioning the pair (y_k, y_s) alone would give it; the
    joint of all times is never assembled. The conditional moments are mapped
    back afterwards. This shares no propagation code with
    :func:`pinned_moments_controller`.
    """
    x0bar, xt = _endpoints(sys, x0bar, target, "points")
    pipe = _Pipeline(sys)
    horizon, n = sys.horizon, sys.n
    gcn = pipe.gcn[:horizon]
    mk = pipe.mk  # map back to original coordinates: x_k = mk[k] y_k
    mk_t = np.swapaxes(mk, -1, -2)
    g0 = pipe.phic[0] @ _xd(x0bar)  # normalized mean, constant over time
    y_obs = pipe.phic[horizon] @ _xd(xt)
    # the gains of every y_k, k < N, stacked as the rows of one cross-covariance
    gains = _condition_gain(pipe.gcn[horizon], gcn.reshape(-1, n)).reshape(gcn.shape)

    mean = np.zeros((horizon + 1, n))
    # conditioning on the terminal state leaves no residual covariance with it
    cov = np.zeros((horizon + 1, horizon + 1, n, n))
    mean[:horizon] = _f64(mk[:horizon] @ (g0 + gains @ (y_obs - g0))[:, :, None])[:, :, 0]
    mean[horizon] = xt
    for k in range(horizon):
        # blocks (k, s), s >= k, of the Schur complement and (s, k) transposed
        upper = gcn[k] - gains[k] @ gcn[k:]
        lower = gcn[k] - gains[k:] @ gcn[k]
        row = mk[k] @ ((upper + np.swapaxes(lower, -1, -2)) / 2) @ mk_t[k:horizon]
        row[0] = symmetrize(row[0])
        cov[k, k:horizon] = _f64(row)
        cov[k + 1 : horizon, k] = np.swapaxes(cov[k, k + 1 : horizon], -1, -2)
    return PinnedMoments(mean, cov)


def _kl_x(sigma: np.ndarray, xi: np.ndarray) -> _X:
    """KL divergence between zero-mean Gaussians, dtype-generic, PD inputs."""
    sigma = np.asarray(sigma)
    xi = np.asarray(xi, dtype=sigma.dtype)
    n = sigma.shape[0]
    ws = sym_eig(sigma)[0]
    wx = sym_eig(xi)[0]
    if ws[0] <= 0:
        raise NotPD(f"first covariance is not positive definite (min eig {float(ws[0]):.3e})")
    if wx[0] <= 0:
        raise NotPD(f"second covariance is not positive definite (min eig {float(wx[0]):.3e})")
    trace_term = np.trace(solve_linear(xi, sigma))
    return (np.sum(np.log(wx)) - np.sum(np.log(ws)) + trace_term - n) / 2


def gaussian_kl(sigma, xi) -> float:
    """KL divergence between zero-mean Gaussians with the given covariances.

    0.5 (log det Xi - log det Sigma + tr(Xi^{-1} Sigma) - n); nonnegative,
    zero exactly when the covariances coincide, and asymmetric in its
    arguments. Both inputs must be finite and positive definite (:class:`NotPD`
    otherwise).
    """
    sigma = _cov_of(sigma)
    xi = _cov_of(xi)
    if sigma.shape != xi.shape:
        raise DimensionMismatch("covariances have different dimensions")
    for name, cov in (("first", sigma), ("second", xi)):
        if not np.isfinite(cov).all():
            raise NotPD(f"{name} covariance is not finite")
    return float(_kl_x(sigma, xi))


@dataclass(frozen=True)
class BridgeReport:
    """Residual bundle from :func:`bridge_verify` (all relative norms).

    ``first_order_residual``: endpoint-coupling optimality condition;
    ``gramian_coupling_residual``: the coupled-Gramian identity linking the
    reference and closed-loop controllability Gramians;
    ``feedforward_residual``, ``closed_loop_residual``, ``noise_residual``:
    equality of the pinned dynamics of reference and optimal processes;
    ``kl_residual``: path relative entropy against the endpoint-coupling
    relative entropy. ``skipped_reason`` is set (and residuals are NaN)
    when the steering problem itself was infeasible.
    """

    first_order_residual: float
    gramian_coupling_residual: float
    feedforward_residual: float
    closed_loop_residual: float
    noise_residual: float
    kl_residual: float
    path_kl: float
    coupling_kl: float
    coupling_cross: np.ndarray | None
    epsilon_normalized: bool
    skipped_reason: str | None = None

    @property
    def residuals(self) -> dict:
        return {
            "first_order": self.first_order_residual,
            "gramian_coupling": self.gramian_coupling_residual,
            "feedforward": self.feedforward_residual,
            "closed_loop": self.closed_loop_residual,
            "noise": self.noise_residual,
            "kl_decomposition": self.kl_residual,
        }

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self, tol: float = 1e-7) -> bool:
        if self.skipped_reason is not None:
            return False
        return self.max_residual <= tol


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    """Largest |diff_k| / (1 + |ref_k|) over the stacked matrices, Frobenius norms in float64."""
    num = np.linalg.norm(_f64(diff), axis=(-2, -1))
    return float(np.max(num / (1.0 + np.linalg.norm(_f64(ref), axis=(-2, -1)))))


def bridge_verify(
    sys: LinearSystemModel, sigma0, sigma_terminal, epsilon: float = 1.0
) -> BridgeReport:
    """Verify that the optimal steering process is the reference's bridge.

    Runs on the unit-entropy-weight problem; a different weight is first
    absorbed into the input matrix (noted by ``epsilon_normalized``).
    Report-style: an infeasible instance yields NaN residuals and a
    ``skipped_reason`` instead of an exception. An ``epsilon`` that is not
    positive and finite raises :class:`NonpositiveEpsilon`, and boundary
    covariances that are not n x n :class:`DimensionMismatch`. An optimal
    endpoint coupling that is not positive definite at working precision
    (which only a tiny ``epsilon`` brings about) raises :class:`NumericalLimit`.
    """
    _require_positive(epsilon)
    sig0, sig_t, _ = _covariances(sys, sigma0, sigma_terminal)
    normalized = epsilon != 1.0
    work = sys.with_input_scaled(np.sqrt(epsilon)) if normalized else sys

    def skipped(reason):
        nan = float("nan")
        return BridgeReport(
            nan, nan, nan, nan, nan, nan, nan, nan, None, normalized, reason
        )

    report, pipe = _validate(work, sig0, sig_t, 1.0)
    if not report.feasible:
        return skipped("; ".join(report.diagnostics) or "solvability assumptions fail")

    lyap = _minus_pair(pipe)
    horizon, n = work.horizon, work.n
    a_seq, b_seq = pipe.A, pipe.B
    # the optimal process: closed loop A_k + B_k K_k driven by B_k gate_k^{-1/2} w_k
    acl_seq = a_seq + b_seq @ lyap.gains
    bhalf_seq = b_seq @ psd_sqrt_raw(_xd(lyap.noise_base))
    ref_pieces = _PinnedPieces(a_seq, b_seq)
    opt_pieces = _PinnedPieces(acl_seq, bhalf_seq)
    sig0_x = _xd(sig0)
    sig_t_x = _xd(sig_t)

    # endpoint coupling first-order condition with Y the optimal cross-covariance
    # and S = Sigma_N - Y Sigma_0^{-1} Y^T the Schur complement of the optimal coupling
    y_cross = opt_pieces.phi_n[0] @ sig0_x  # Phi_Q(N, 0) Sigma_0
    phi0 = ref_pieces.phi_n[0]  # Phi(N, 0)
    eye = np.eye(n, dtype=_X)
    gain_t = opt_pieces.phi_n[0].T  # Sigma_0^{-1} Y^T
    schur = sig_t_x - y_cross @ gain_t
    w_schur = sym_eig(schur)[0]
    if not w_schur[0] > 0:
        # positive definite for every epsilon > 0; lost to rounding as epsilon -> 0
        raise NumericalLimit(
            horizon,
            "the optimal endpoint coupling is not positive definite at working precision "
            f"(min eigenvalue of its Schur complement {float(w_schur[0]):.3e})",
        )
    gr0_inv = solve_linear(ref_pieces.gr[0], eye)
    lhs = gain_t @ solve_linear(schur.T, eye)
    rhs = phi0.T @ gr0_inv
    res_first_order = _rel(lhs - rhs, rhs)

    # coupled-Gramian identity: R1 + R1 Q^{-1} R2 - R2 = 0 over the horizon, with
    # R1, R2 the controllability Gramians of [k, N] of the reference and optimal
    # processes; R1 = Phi(k, 0) Gc^{1/2} (I - gcn_k) Gc^{1/2} Phi(k, 0)^T in the
    # normalized coordinates and R2 = Phi_Q(k, N) G_r,Q(N, k) Phi_Q(k, N)^T
    mk, gcn = pipe.mk, pipe.gcn
    r1 = symmetrize(mk @ (gcn[horizon] - gcn) @ np.swapaxes(mk, -1, -2))
    phi_q = opt_pieces.phi_n
    r2 = symmetrize(solve_linear(phi_q, np.swapaxes(solve_linear(phi_q, opt_pieces.gr), -1, -2)))
    jk = r1 + r1 @ solve_linear(_xd(lyap.Q), r2) - r2
    scale = np.maximum(*np.linalg.norm(_f64(np.stack([r1, r2])), axis=(-2, -1)))
    res_gramian = float(np.max(np.linalg.norm(_f64(jk), axis=(-2, -1)) / (1.0 + scale)))

    # pinned-dynamics equality of the reference and optimal processes
    res_feed = _rel(ref_pieces.D - opt_pieces.D, ref_pieces.D)
    res_cl = _rel(ref_pieces.Ahat - opt_pieces.Ahat, ref_pieces.Ahat)
    res_noise = _rel(ref_pieces.Lam - opt_pieces.Lam, ref_pieces.Lam)

    # path relative entropy in the range of each B_k (module docstring), in float64
    # on the state covariances of the unit-weight optimal policy, V the
    # eigenvectors of B_k^T B_k above the relative rank cut; the dropped columns
    # of V are zeroed and M gets 1 on their diagonal, which adds 1 to tr M and
    # nothing to log det M, so every step subtracts m in place of r
    policy = optimal_density_policy(work, lyap, 1.0)
    sigmas = propagate_policy_moments(work, policy, GaussianMarginal(np.zeros(n), sig0))[1]
    w_b, v_b = np.linalg.eigh(np.swapaxes(work.B, -1, -2) @ work.B)
    dropped = ~(w_b > INVERTIBILITY_RCOND * w_b[:, -1:])
    v_t = np.swapaxes(np.where(dropped[:, None, :], 0, v_b), -1, -2)
    m_r = v_t @ policy.noise_covs @ np.swapaxes(v_t, -1, -2) + np.eye(work.m) * dropped[:, None, :]
    z = v_t @ policy.gains
    quad = np.trace(z @ sigmas[:-1] @ np.swapaxes(z, -1, -2), axis1=-2, axis2=-1)
    logdet_m = np.sum(np.log(np.linalg.eigvalsh(m_r)), axis=-1)
    path_kl = np.sum(np.trace(m_r, axis1=-2, axis2=-1) - logdet_m - work.m + quad) / 2

    # coupling relative entropy by the chain rule over x_0: given x_0, the optimal
    # x_N is N(Y Sigma_0^{-1} x_0, S) and the reference's N(Phi(N, 0) x_0, G_r(N, 0))
    delta = gain_t.T - phi0
    coupling_kl = (
        ref_pieces.logdet_gr0
        - np.sum(np.log(w_schur))
        + np.trace(gr0_inv @ (schur + delta @ sig0_x @ delta.T))
        - n
    ) / 2
    res_kl = abs(float(path_kl - coupling_kl)) / (1.0 + abs(float(coupling_kl)))

    return BridgeReport(
        first_order_residual=res_first_order,
        gramian_coupling_residual=res_gramian,
        feedforward_residual=res_feed,
        closed_loop_residual=res_cl,
        noise_residual=res_noise,
        kl_residual=res_kl,
        path_kl=float(path_kl),
        coupling_kl=float(coupling_kl),
        coupling_cross=_f64(y_cross),
        epsilon_normalized=normalized,
    )


def coupling_objective(sys: LinearSystemModel, sigma0, sigma_terminal, y) -> float:
    """Concave objective whose maximizer is the optimal endpoint cross-covariance.

    f(Y) = log det(Sigma_N - Y Sigma_0^{-1} Y^T) + 2 tr(Phi(N,0)^T G_r(N,0)^{-1} Y)

    Raises :class:`DimensionMismatch` unless both covariances are n x n,
    :class:`SingularGramian` when the full-horizon reachability Gramian is not
    invertible, and :class:`NotPD` when a covariance is not finite and positive
    definite or Y makes the log-det argument leave the cone (such Y are
    infeasible as cross-covariances).
    """
    sig0, sig_t, refusal = _covariances(sys, sigma0, sigma_terminal)
    if refusal is not None:
        raise NotPD(refusal)
    sig0, sig_t, y = _xd(sig0), _xd(sig_t), _xd(y)
    phi, gr = _backward_sweep(_xd(sys.A), _xd(sys.B))
    _require_reachable(sym_eig(gr[0])[0])
    schur = symmetrize(sig_t - y @ solve_linear(sig0, y.T))
    w = sym_eig(schur)[0]
    if w[0] <= 0:
        raise NotPD("cross-covariance is infeasible for the boundary marginals")
    logdet = float(np.sum(np.log(w)))
    trace_term = float(np.trace(phi[0].T @ solve_linear(gr[0], y)))
    return logdet + 2.0 * trace_term
