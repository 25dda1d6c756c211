"""Entropy-regularized linear-quadratic control.

Backward Riccati sweep for the quadratic terminal cost, the resulting
stochastic affine-Gaussian policy, and the entropy-weight normalization
that reduces any problem to unit weight. Only the Riccati recursion runs per
step; its gates are checked by one stacked eigenvalue call after the loop,
and the policy is one stacked solve and one stacked inverse over all steps.
Every feedforward, of a terminal target here and of the steered mean in
:mod:`~maxent_steer.steering`, is a closed-loop costate term
(:func:`_costate_feedforward`); no A_k is inverted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GateNotPD
from .linalg import DEFINITENESS_RTOL, SymMatrix, as_sym, symmetrize
from .system import LinearSystemModel, _backward_sweep, _require_positive

__all__ = [
    "AffineGaussianPolicy",
    "RiccatiSolution",
    "MaxEntLqrProblem",
    "riccati_backward",
    "lqr_policy",
    "epsilon_normalize",
    "denormalize_policy",
    "soft_value_offsets",
]


@dataclass(frozen=True)
class AffineGaussianPolicy:
    """Stochastic policy u_k ~ N(K_k x + c_k, R_k), k = 0..N-1.

    ``gains`` is (N, m, n), ``feedforwards`` (N, m), ``noise_covs``
    (N, m, m). Noise covariances are symmetrized on construction; they are
    positive definite for every entropy-regularized policy and may be
    singular positive semidefinite for point-steering limits.
    """

    gains: np.ndarray
    feedforwards: np.ndarray
    noise_covs: np.ndarray

    def __post_init__(self):
        k = np.ascontiguousarray(np.asarray(self.gains, dtype=np.float64))
        c = np.ascontiguousarray(np.asarray(self.feedforwards, dtype=np.float64))
        r = np.asarray(self.noise_covs, dtype=np.float64)
        if k.ndim != 3:
            raise DimensionMismatch(f"gains must be (N, m, n), got {k.shape}")
        horizon, m, _ = k.shape
        if c.shape != (horizon, m) or r.shape != (horizon, m, m):
            raise DimensionMismatch(
                f"inconsistent policy shapes: gains {k.shape}, "
                f"feedforwards {c.shape}, noise {r.shape}"
            )
        r = np.ascontiguousarray((r + np.swapaxes(r, 1, 2)) / 2)
        for arr in (k, c, r):
            arr.setflags(write=False)
        object.__setattr__(self, "gains", k)
        object.__setattr__(self, "feedforwards", c)
        object.__setattr__(self, "noise_covs", r)

    @property
    def horizon(self) -> int:
        return self.gains.shape[0]

    @property
    def m(self) -> int:
        return self.gains.shape[1]

    @property
    def n(self) -> int:
        return self.gains.shape[2]

    def mean_control(self, k: int, x: np.ndarray) -> np.ndarray:
        return self.gains[k] @ np.asarray(x, dtype=np.float64) + self.feedforwards[k]


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward Riccati sweep output.

    ``Pi`` stacks the N+1 cost-to-go weight matrices; ``gates`` the N
    matrices I + B_k^T Pi_{k+1} B_k whose positive definiteness licenses
    each step.
    """

    Pi: np.ndarray
    gates: np.ndarray


def riccati_backward(sys: LinearSystemModel, terminal_weight) -> RiccatiSolution:
    """Run the backward Riccati difference recursion from Pi_N = F.

    Pi_k = A_k^T Pi_{k+1} A_k
           - A_k^T Pi_{k+1} B_k (I + B_k^T Pi_{k+1} B_k)^{-1} B_k^T Pi_{k+1} A_k

    Every gate must be positive definite at the tolerance of ``definiteness``.
    The sweep runs the recursion alone and checks all its gates at once
    afterwards; :class:`GateNotPD` reports the largest failing step, the one
    where a step-by-step check would have stopped, and nothing computed below
    it warns or raises. A sweep whose gates pass but whose Pi overflows warns
    once, naming the first step that is not finite. The terminal weight may be
    indefinite. The recursion does not depend on the entropy weight.
    """
    f = as_sym(terminal_weight)
    if f.n != sys.n:
        raise DimensionMismatch(f"terminal weight is {f.n}x{f.n}, state dim is {sys.n}")
    horizon, n, m = sys.horizon, sys.n, sys.m
    pi = np.zeros((horizon + 1, n, n))
    gates = np.zeros((horizon, m, m))
    pi[horizon] = p = f.data
    eye_m = np.eye(m)
    a, b = sys.A, sys.B
    a_t, b_t = np.swapaxes(a, 1, 2), np.swapaxes(b, 1, 2)
    singular = None
    # A step below a refused gate is never used, so it may neither warn nor raise.
    with np.errstate(all="ignore"):
        for k in range(horizon - 1, -1, -1):
            g = eye_m + b_t[k] @ (p @ b[k])
            g = (g + g.T) / 2
            gates[k] = g
            pa = p @ a[k]
            mk = b_t[k] @ pa  # B_k^T Pi_{k+1} A_k
            try:
                x = np.linalg.solve(g, mk)
            except np.linalg.LinAlgError as exc:
                singular = exc
                break
            p = a_t[k] @ pa - mk.T @ x
            p = (p + p.T) / 2
            pi[k] = p
    refused = _refused_gate(gates[k:], k)
    lowest = k if refused is None else refused.step + 1
    bad = np.flatnonzero(~np.isfinite(pi[lowest:]).all(axis=(1, 2)))
    if bad.size and lowest + bad[-1] < horizon:  # overflowed from a finite Pi_N
        warnings.warn(
            f"Riccati sweep overflowed: Pi at step {lowest + int(bad[-1])} is not finite",
            RuntimeWarning,
            stacklevel=2,
        )
    if refused is not None:
        raise refused
    if singular is not None:
        raise singular
    return RiccatiSolution(pi, gates)


def _refused_gate(gates: np.ndarray, first_step: int):
    """The :class:`GateNotPD` of the largest step whose gate is not positive definite,
    or None. ``gates`` holds the steps from ``first_step`` on, decided by one stacked
    ``eigvalsh``; a gate that is not finite fails and is reported by its own."""
    finite = np.isfinite(gates).all(axis=(1, 2))
    w = np.linalg.eigvalsh(np.where(finite[:, None, None], gates, 0.0))
    failed = np.flatnonzero(~(w[:, 0] > DEFINITENESS_RTOL * np.maximum(1.0, np.abs(w[:, -1]))))
    if not failed.size:
        return None
    i = int(failed[-1])
    k = first_step + i
    w0 = w[i, 0] if finite[i] else np.linalg.eigvalsh(gates[i])[0]
    return GateNotPD(k, f"gate at step {k} has min eigenvalue {w0:.3e}")


def lqr_policy(
    sys: LinearSystemModel,
    ric: RiccatiSolution,
    terminal_target=None,
    epsilon: float = 1.0,
) -> AffineGaussianPolicy:
    """Optimal stochastic policy for the quadratic-terminal-cost problem.

    K_k = -(I + B_k^T Pi_{k+1} B_k)^{-1} B_k^T Pi_{k+1} A_k
    c_k = R_k B_k^T Psi(N, k+1)^T Pi_N xbar_N
    eps R_k, with R_k = (I + B_k^T Pi_{k+1} B_k)^{-1}, the noise covariance

    Psi is the transition of the closed loop A_k + B_k K_k, so no A_k is
    inverted and singular dynamics are allowed; with a zero (or omitted)
    target, or one that Pi_N annihilates, every c_k is zero.
    """
    _require_positive(epsilon)
    horizon, n, m = sys.horizon, sys.n, sys.m
    if ric.Pi.shape != (horizon + 1, n, n):
        raise DimensionMismatch("Riccati solution does not match the system")
    target = _terminal_target(terminal_target, n)
    gains = -np.linalg.solve(ric.gates, np.swapaxes(sys.B, 1, 2) @ ric.Pi[1:] @ sys.A)
    inv_gates = symmetrize(np.linalg.inv(ric.gates))
    lam = -ric.Pi[-1] @ target  # the terminal costate
    feed = np.zeros((horizon, m))
    if np.any(lam):
        feed = _costate_feedforward(sys, inv_gates, _backward_sweep(sys.A + sys.B @ gains, sys.B)[0], lam)
    return AffineGaussianPolicy(gains, feed, epsilon * inv_gates)


def _terminal_target(target, n: int) -> np.ndarray:
    """The terminal target as a float64 n-vector, zero when omitted."""
    if target is None:
        return np.zeros(n)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (n,):
        raise DimensionMismatch(f"terminal target has shape {target.shape}, state dim is {n}")
    return target


def _costate_feedforward(sys: LinearSystemModel, inv_gates, psi, lam) -> np.ndarray:
    """Feedforwards c_k = -R_k B_k^T Psi(N, k+1)^T lam, stacked (N, m), from the closed-loop
    transitions ``psi`` = Psi(N, k), k = 0..N, the unit-weight inverse gates R_k and the
    terminal costate ``lam``."""
    v = np.swapaxes(psi[1:], 1, 2) @ lam  # Psi(N, k+1)^T lam
    return -(inv_gates @ np.swapaxes(sys.B, 1, 2) @ v[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class MaxEntLqrProblem:
    """Problem data for the quadratic-terminal-cost entropy-regularized LQR."""

    system: LinearSystemModel
    terminal_weight: SymMatrix
    terminal_target: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "terminal_weight", as_sym(self.terminal_weight))
        object.__setattr__(self, "terminal_target", _terminal_target(self.terminal_target, self.system.n))
        _require_positive(self.epsilon)

    def solve(self) -> AffineGaussianPolicy:
        ric = riccati_backward(self.system, self.terminal_weight)
        return lqr_policy(self.system, ric, self.terminal_target, self.epsilon)


def epsilon_normalize(problem: MaxEntLqrProblem) -> MaxEntLqrProblem:
    """Transform to the equivalent unit-entropy-weight problem.

    Scales B by sqrt(eps) and the terminal weight by 1/eps; the rescaled
    control is u' = u / sqrt(eps), so a policy of the normalized problem
    maps back through :func:`denormalize_policy` with the same closed-loop
    state law. Identity when eps is already 1.
    """
    eps = problem.epsilon
    _require_positive(eps)
    if eps == 1.0:
        return problem
    return MaxEntLqrProblem(
        system=problem.system.with_input_scaled(np.sqrt(eps)),
        terminal_weight=SymMatrix(problem.terminal_weight.data / eps),
        terminal_target=problem.terminal_target,
        epsilon=1.0,
    )


def denormalize_policy(policy: AffineGaussianPolicy, epsilon: float) -> AffineGaussianPolicy:
    """Map a unit-weight policy back to the original control scale, u = sqrt(eps) u'."""
    _require_positive(epsilon)
    root = np.sqrt(epsilon)
    return AffineGaussianPolicy(
        root * policy.gains, root * policy.feedforwards, epsilon * policy.noise_covs
    )


def soft_value_offsets(sys: LinearSystemModel, ric: RiccatiSolution, epsilon: float = 1.0) -> np.ndarray:
    """State-independent additive constants of the soft value function.

    Diagnostic only; the policy never needs them. Entry k is the constant
    carried by the value function at step k: minus epsilon times the sum,
    over steps k..N-1, of the log-normalizer of the Gaussian policy
    integral, so 0 at the terminal step.
    """
    _require_positive(epsilon)
    m = sys.m
    sign, logdet = np.linalg.slogdet(ric.gates)
    # log sqrt((2 pi)^m det(eps * gate^{-1})) with det(gate) > 0 by the PD check
    log_norm = 0.5 * (m * np.log(2 * np.pi) + m * np.log(epsilon) - sign * logdet)
    offsets = np.zeros(sys.horizon + 1)
    offsets[:-1] = np.cumsum(-epsilon * log_norm[::-1])[::-1]
    return offsets
