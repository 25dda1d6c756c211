"""Gaussian-to-Gaussian density steering with entropy regularization.

Solves the pair of Lyapunov difference equations coupled through their
boundary values, builds the optimal stochastic state-feedback policy from
the minus-branch solution, and decomposes problems with nonzero boundary
means into mean steering plus zero-mean covariance steering.

The boundary-coupled recursion is solved in normalized coordinates, where
the running system becomes a pure integrator driven by transformed input
columns: the forward solution is then an exact monotone sum of positive
semidefinite increments, which is the best-conditioned route back to the
original-coordinate sequences. Horizons with strongly unstable dynamics
still amplify boundary round-off through the coordinate map, so that
boundary solve runs in extended precision (``np.longdouble``) and is rounded
to float64 once at the end. The per-step policy then comes from the float64
Riccati sweep of :mod:`maxent_steer.lqr` from the terminal weight Q_N^{-1},
and the mean feedforwards, in float64, from the closed-loop transitions
Psi(N, k) that the same sweep accumulated.

This module builds no transition product or Gramian of its own: they come
from :mod:`maxent_steer.system`, whose model keeps the normalized
``_Pipeline`` of the last boundary it analysed; :func:`_minus_pair` solves
the minus branch once per pipeline and keeps the read-only
:class:`LyapunovPair` on it, so the solve, the policy and the bridge check
asked about one boundary share one solve. Each closed loop is swept once:
the density solve, :func:`mean_steering` and the target feedforwards of
:func:`~maxent_steer.lqr.lqr_policy` each run one Riccati sweep and read its
gains and Psi. The P and Q sequences, the mean-steering Gramian and the
feedforwards are stacked expressions over all steps, one kernel call per
stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchDegenerate, DimensionMismatch, GateNotPD, InfeasibleProblem, NotPD
from .linalg import (
    GaussianMarginal,
    SymMatrix,
    inv,
    rcond_eig,
    solve_linear,
    sym_eig,
    symmetrize,
)
from .lqr import AffineGaussianPolicy, _costate_feedforward, lqr_policy, riccati_backward
from .simulate import propagate_policy_moments
from .system import (
    INVERTIBILITY_RCOND,
    LinearSystemModel,
    _covariances,
    _endpoints,
    _f64,
    _Pipeline,
    _require_positive,
    _require_reachable,
    _validate,
    _X,
)

__all__ = [
    "GaussianMarginal",
    "NormalizedBoundary",
    "LyapunovPair",
    "normalized_boundary",
    "solve_coupled_lyapunov",
    "optimal_density_policy",
    "mean_steering",
    "general_policy",
]


@dataclass(frozen=True)
class NormalizedBoundary:
    """Boundary covariances pulled into normalized coordinates.

    ``F_mat`` and ``B_mat`` are the forward/backward boundary factors whose
    invertibility the solver requires; they always sum to the identity.
    """

    S0: SymMatrix
    SN: SymMatrix
    F_mat: SymMatrix
    B_mat: SymMatrix


@dataclass(frozen=True)
class LyapunovPair:
    """Minus-branch solution of the coupled Lyapunov boundary problem.

    ``P`` and ``Q`` stack the N+1 matrices of the two sequences, solved in
    extended precision. ``gates``, ``gains``, ``noise_base`` (the
    unit-weight noise covariances) and ``psi`` (the N+1 closed-loop
    transitions Psi(N, k)) are the output of the Riccati sweep from the
    terminal weight Q_N^{-1}; policy construction and the mean feedforwards
    read them instead of re-deriving them. The model keeps the pair with its
    boundary analysis and hands the same object to every caller, so all six
    arrays are read-only.
    """

    P: np.ndarray
    Q: np.ndarray
    gates: np.ndarray
    gains: np.ndarray
    noise_base: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        for name in ("P", "Q", "gates", "gains", "noise_base", "psi"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        return self.P.shape[0] - 1


def _minus_pair(pipe: _Pipeline) -> LyapunovPair:
    """Minus-branch solution of the boundary problem that ``pipe`` normalized,
    solved on first use and kept on ``pipe``; a refusal is not kept.

    ``P`` and ``Q`` are solved in ``np.longdouble``; the gates, gains, noise
    covariances and closed-loop transitions come from the Riccati sweep from
    H_N = Q_N^{-1}, and a gate that is not positive definite raises
    :class:`BranchDegenerate`.
    """
    if pipe.pair is None:
        pipe.pair = _solve_minus_pair(pipe)
    return pipe.pair


def _solve_minus_pair(pipe: _Pipeline) -> LyapunovPair:
    qn0 = symmetrize(pipe.s0h @ solve_linear(pipe.f_core, pipe.s0h))
    pn0 = symmetrize(inv(inv(pipe.s0) - inv(qn0)))
    mk_t = np.swapaxes(pipe.mk, -1, -2)
    q_seq = symmetrize(pipe.mk @ (qn0 - pipe.gcn) @ mk_t)
    p_seq = symmetrize(pipe.mk @ (pn0 + pipe.gcn) @ mk_t)
    # Q_N is invertible: normalized it is s0h f_core^{-1} (root - I/2) s0h^{-1},
    # root > I/2, and the feasibility check found f_core invertible
    try:
        ric = riccati_backward(pipe.sys, _f64(inv(q_seq[-1])))
    except GateNotPD as exc:
        raise BranchDegenerate(exc.step, str(exc)) from None
    return LyapunovPair(
        P=_f64(p_seq),
        Q=_f64(q_seq),
        gates=ric.gates,
        gains=ric.gains,
        noise_base=lqr_policy(pipe.sys, ric).noise_covs,
        psi=ric.psi,
    )


def normalized_boundary(
    sys: LinearSystemModel, sigma0, sigma_terminal, epsilon: float = 1.0
) -> NormalizedBoundary:
    """Pull the boundary covariances into normalized coordinates.

    S0 and SN are the initial/terminal covariances scaled by the inverse
    square root of the full-horizon controllability Gramian (the terminal
    one pulled back to time zero first); the forward and backward boundary
    factors decide solvability. Requires invertible dynamics and an
    invertible full-horizon controllability Gramian. ``epsilon`` must be
    positive and finite (:class:`NonpositiveEpsilon` otherwise, checked
    first, as in the other boundary entry points), and both covariances
    n x n (:class:`DimensionMismatch` otherwise), finite and positive
    definite (:class:`NotPD` otherwise).
    """
    _require_positive(epsilon)
    sig0, sig_t, refusal = _covariances(sys, sigma0, sigma_terminal)
    if refusal is not None:
        raise NotPD(refusal)
    pipe = sys._boundary(sig0, sig_t, epsilon)
    return NormalizedBoundary(
        S0=SymMatrix(_f64(pipe.s0)),
        SN=SymMatrix(_f64(pipe.sn)),
        F_mat=SymMatrix(_f64(pipe.f_core)),
        B_mat=SymMatrix(_f64(pipe.b_core)),
    )


def solve_coupled_lyapunov(
    sys: LinearSystemModel, sigma0, sigma_terminal, epsilon: float = 1.0
) -> LyapunovPair:
    """Solve the coupled Lyapunov pair and return the minus-branch solution.

    Validates the solvability assumptions first and raises
    :class:`InfeasibleProblem` (with the report attached) when they fail.
    Both boundary covariances must be n x n (:class:`DimensionMismatch`
    otherwise), and ``epsilon`` positive and finite (:class:`NonpositiveEpsilon`
    otherwise); a covariance that is not finite and positive definite is an
    infeasible problem. The returned pair
    satisfies the two forward recursions, the split boundary conditions,
    and has every gate matrix positive definite; a gate failure raises
    :class:`BranchDegenerate` and indicates violated hypotheses rather than
    a recoverable condition (the plus branch is never a fallback).
    """
    _require_positive(epsilon)
    report, pipe = _validate(sys, *_covariances(sys, sigma0, sigma_terminal)[:2], epsilon)
    if not report.feasible:
        raise InfeasibleProblem(
            "; ".join(report.diagnostics) or "solvability assumptions fail", report
        )
    return _minus_pair(pipe)


def optimal_density_policy(
    sys: LinearSystemModel, lyap: LyapunovPair, epsilon: float = 1.0
) -> AffineGaussianPolicy:
    """Zero-mean optimal density-control policy from a solved Lyapunov pair.

    K_k = -(I + B_k^T Q_{k+1}^{-1} B_k)^{-1} B_k^T Q_{k+1}^{-1} A_k,
    c_k = 0, and noise covariance eps (I + B_k^T Q_{k+1}^{-1} B_k)^{-1},
    read from the gains and noise covariances of the Riccati sweep that
    :func:`solve_coupled_lyapunov` ran from Q_N^{-1}.
    """
    _require_positive(epsilon)
    horizon, n, m = sys.horizon, sys.n, sys.m
    if lyap.P.shape != (horizon + 1, n, n):
        raise DimensionMismatch("Lyapunov pair does not match the system")
    return AffineGaussianPolicy(lyap.gains, np.zeros((horizon, m)), epsilon * lyap.noise_base)


def _steering_gramian(sys: LinearSystemModel, psi, inv_gates) -> np.ndarray:
    """S = sum_k Psi(N, k+1) B_k R_k B_k^T Psi(N, k+1)^T, the noise Gramian of the closed
    loop with transitions ``psi`` and inverse gates R_k, as one stacked sum."""
    w = psi[1:] @ sys.B
    return symmetrize((w @ inv_gates @ np.swapaxes(w, 1, 2)).sum(axis=0))


def _mean_feedforward(sys: LinearSystemModel, psi, inv_gates, mu0, mu_t) -> np.ndarray:
    """Feedforwards c_k that steer the mean of the closed loop with transitions
    ``psi`` = Psi(N, k) from ``mu0`` to ``mu_t`` with the least input energy.

    With R_k the inverse gates, the costate feedforwards
    c_k = -R_k B_k^T Psi(N, k+1)^T lam of :mod:`~maxent_steer.lqr`, where
    S lam = Psi(N, 0) mu0 - mu_t and S is :func:`_steering_gramian`. Raises
    :class:`SingularGramian` when S is singular, that is when the system is
    not reachable over the horizon.
    """
    s = _steering_gramian(sys, psi, inv_gates)
    _require_reachable(sym_eig(s)[0])
    lam = np.linalg.solve(s, psi[0] @ mu0 - mu_t)
    return _costate_feedforward(sys, inv_gates, psi, lam)


def mean_steering(sys: LinearSystemModel, mu0, mu_terminal):
    """Minimum-energy deterministic input driving the mean between endpoints.

    Returns ``(ubar, mu)`` where ``ubar`` is the (N, m) input sequence of
    least energy sum_k |ubar_k|^2 / 2 that takes the mean from mu_0 to mu_N,
    and ``mu`` the (N+1, n) mean path it generates. It is computed in float64
    on the closed loop of the Riccati sweep from H_N = I, as
    ubar_k = K_k mu_k + c_k with the feedforwards c_k of that loop. Raises
    :class:`SingularGramian` when the system is not reachable over the
    horizon. No dynamics inverses are needed.
    """
    mu0, mu_t = _endpoints(sys, mu0, mu_terminal, "means")
    ric = riccati_backward(sys, np.eye(sys.n))
    loop = lqr_policy(sys, ric)
    feed = _mean_feedforward(sys, ric.psi, loop.noise_covs, mu0, mu_t)
    mu = propagate_policy_moments(sys, AffineGaussianPolicy(loop.gains, feed, loop.noise_covs), mu0)[0]
    return (loop.gains @ mu[:-1, :, None])[:, :, 0] + feed, mu


def general_policy(
    sys: LinearSystemModel,
    initial: GaussianMarginal,
    terminal: GaussianMarginal,
    epsilon: float = 1.0,
) -> AffineGaussianPolicy:
    """Optimal policy for boundary distributions with arbitrary means.

    Decomposes into mean steering plus zero-mean covariance steering: the
    gains and noise covariances are those of the zero-mean problem, and the
    feedforwards c_k steer the mean of its closed loop with the least input
    energy, from the closed-loop transitions and gates the density solve
    already holds. The closed-loop mean follows the minimum-energy mean path
    and the closed-loop covariance the zero-mean solution.
    Boundary moments beyond mean and covariance are irrelevant: the same
    policy is optimal for any boundary laws with these first two moments.
    """
    return _general_policy_and_pair(sys, initial, terminal, epsilon)[0]


def _general_policy_and_pair(sys, initial, terminal, epsilon):
    """:func:`general_policy` together with the :class:`LyapunovPair` it solved."""
    lyap = solve_coupled_lyapunov(sys, initial.cov, terminal.cov, epsilon)
    base = optimal_density_policy(sys, lyap, epsilon)
    if not (np.any(initial.mean) or np.any(terminal.mean)):
        return base, lyap
    feed = _mean_feedforward(sys, lyap.psi, lyap.noise_base, initial.mean, terminal.mean)
    return AffineGaussianPolicy(base.gains, feed, base.noise_covs), lyap


# ---------------------------------------------------------------------------
# plus-branch propagation, exposed for the property-test harness only
# ---------------------------------------------------------------------------


def _plus_branch_gates(sys: LinearSystemModel, sigma0, sigma_terminal, epsilon: float = 1.0):
    """Propagate the plus-branch solution and report its gate spectra.

    Returns ``(q_seq, invertible, gate_min_eigs)``: the plus-branch Q
    sequence, whether it stayed invertible over the whole horizon, and the
    minimum eigenvalue of each gate computed where defined. Test harness
    use only; the solver never selects this branch.
    """
    pipe = sys._boundary(*_covariances(sys, sigma0, sigma_terminal)[:2], epsilon)
    horizon, n, m = sys.horizon, sys.n, sys.m
    core_plus = 2 * pipe.s0 + np.eye(n, dtype=_X) - pipe.f_core  # S0 + I/2 + root
    qn0 = symmetrize(pipe.s0h @ solve_linear(core_plus, pipe.s0h))
    q_seq = _f64(symmetrize(pipe.mk @ (qn0 - pipe.gcn) @ np.swapaxes(pipe.mk, -1, -2)))
    invertible = all(rcond_eig(sym_eig(q)[0]) > INVERTIBILITY_RCOND for q in q_seq)
    bn = pipe.phic[1:] @ pipe.B
    gate_min = np.full(horizon, np.nan)
    for k in range(horizon):
        try:
            gate = symmetrize(np.eye(m, dtype=_X) + bn[k].T @ solve_linear(qn0 - pipe.gcn[k + 1], bn[k]))
        except np.linalg.LinAlgError:
            invertible = False
        else:
            gate_min[k] = float(sym_eig(_f64(gate))[0][0])
    return q_seq, invertible, gate_min
