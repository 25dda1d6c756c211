"""Monte-Carlo rollout of affine-Gaussian policies with reproducible seeding.

Samples draw their noise in fixed-size blocks: block b holds samples
b*BLOCK .. b*BLOCK+BLOCK-1 and owns one random stream spawned from
(seed, b), from which it always draws and rolls out the full block, trimming
the last one to the count afterwards. Sample i is therefore a pure function
of (problem, seed, i): no count, execution order or worker layout can change
it, and a larger ensemble extends a smaller one (a 1-sample one included).
One private block rollout serves both :func:`sample_ensemble`, which
concatenates the blocks, and the command line, which streams them to CSV one
block at a time, so its memory does not grow with the sample count. The
sampled values differ from versions that spawned one stream per sample.
Sampling draws noise through the PSD square root of each step covariance
with near-zero eigenvalues snapped to exact zero, so the degenerate noise
of point-steering controllers pins endpoints to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import PINV_RCOND, GaussianMarginal, psd_sqrt_raw
from .lqr import AffineGaussianPolicy
from .system import LinearSystemModel, _lyapunov_forward

__all__ = [
    "TrajectoryEnsemble",
    "EmpiricalMoments",
    "sample_ensemble",
    "empirical_moments",
    "propagate_policy_moments",
    "dynamics_residual",
]

# Samples per noise stream; changing it changes every sampled value.
BLOCK = 256


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled closed-loop paths: states (count, N+1, n), controls (count, N, m)."""

    states: np.ndarray
    controls: np.ndarray
    seed: int
    sample_count: int

    @property
    def horizon(self) -> int:
        return self.controls.shape[1]


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample mean and unbiased sample covariance at one step.

    ``cov_valid`` is False for single-sample ensembles, where the unbiased
    covariance is undefined and reported as zero.
    """

    mean: np.ndarray
    cov: np.ndarray
    sample_count: int
    cov_valid: bool


def _resolve_policy(policy) -> AffineGaussianPolicy:
    if isinstance(policy, AffineGaussianPolicy):
        return policy
    as_policy = getattr(policy, "as_policy", None)
    if as_policy is not None:
        return as_policy()
    raise TypeError(f"cannot simulate object of type {type(policy).__name__}")


def _block_rollout(sys: LinearSystemModel, policy, initial, count: int, seed: int):
    """Return ``rollout(b)``: the states and controls of samples
    b*BLOCK .. b*BLOCK+BLOCK-1 of a ``count``-sample ensemble, the last block
    trimmed to the count.

    Checks the dimensions and takes the PSD square roots of the initial and
    noise covariances once. Every block rolls out all BLOCK rows and is
    trimmed afterwards, so a row's bits never depend on how many rows are kept.
    """
    policy = _resolve_policy(policy)
    if policy.horizon != sys.horizon or policy.n != sys.n or policy.m != sys.m:
        raise DimensionMismatch(
            f"policy ({policy.horizon}, m={policy.m}, n={policy.n}) does not match "
            f"system ({sys.horizon}, m={sys.m}, n={sys.n})"
        )
    if count < 1:
        raise ValueError("sample count must be at least 1")
    horizon, n, m = sys.horizon, sys.n, sys.m

    if isinstance(initial, GaussianMarginal):
        mean0 = initial.mean
        sqrt0 = psd_sqrt_raw(initial.cov.data, snap_tol=PINV_RCOND)
    else:
        mean0 = np.asarray(initial, dtype=np.float64)
        sqrt0 = None
    if mean0.shape != (n,):
        raise DimensionMismatch(f"initial state has shape {mean0.shape}, expected ({n},)")

    sqrt_r = psd_sqrt_raw(policy.noise_covs, snap_tol=PINV_RCOND)
    base = int(seed) & 0xFFFFFFFFFFFFFFFF

    def rollout(b: int):
        rng = np.random.default_rng(np.random.SeedSequence([base, b]))
        z0 = rng.standard_normal((BLOCK, n))
        zu = rng.standard_normal((BLOCK, horizon, m))
        states = np.empty((BLOCK, horizon + 1, n))
        controls = np.empty((BLOCK, horizon, m))
        states[:, 0] = mean0 if sqrt0 is None else mean0 + z0 @ sqrt0.T
        for k in range(horizon):
            controls[:, k] = (
                states[:, k] @ policy.gains[k].T + policy.feedforwards[k] + zu[:, k] @ sqrt_r[k].T
            )
            states[:, k + 1] = states[:, k] @ sys.A[k].T + controls[:, k] @ sys.B[k].T
        rows = min(BLOCK, count - b * BLOCK)
        return states[:rows], controls[:rows]

    return rollout


def sample_ensemble(
    sys: LinearSystemModel, policy, initial, count: int, seed: int
) -> TrajectoryEnsemble:
    """Draw ``count`` independent closed-loop trajectories.

    ``policy`` is an :class:`AffineGaussianPolicy` or anything exposing
    ``as_policy()`` (the point-steering controller does); ``initial`` is a
    :class:`GaussianMarginal` or a fixed initial state vector. Sample i
    consumes row i % BLOCK of the block stream spawned from
    (seed, i // BLOCK), so it is a bit-reproducible function of
    (problem, seed, i) alone; its bits differ from versions that gave every
    sample its own stream. The ensemble is the concatenation of full-block
    rollouts, so a 1-sample ensemble is the prefix of every larger one too
    (versions that rolled out only ``count`` rows differed there by round-off).
    """
    rollout = _block_rollout(sys, policy, initial, count, seed)
    states = np.empty((count, sys.horizon + 1, sys.n))
    controls = np.empty((count, sys.horizon, sys.m))
    for lo in range(0, count, BLOCK):
        states[lo : lo + BLOCK], controls[lo : lo + BLOCK] = rollout(lo // BLOCK)
    return TrajectoryEnsemble(states, controls, int(seed), count)


def empirical_moments(ens: TrajectoryEnsemble, k: int) -> EmpiricalMoments:
    """Sample mean and unbiased covariance of the states at step k."""
    if not 0 <= k < ens.states.shape[1]:
        raise DimensionMismatch(f"step {k} outside the stored horizon")
    x = ens.states[:, k]
    mean = x.mean(axis=0)
    if ens.sample_count < 2:
        return EmpiricalMoments(mean, np.zeros((x.shape[1], x.shape[1])), ens.sample_count, False)
    centered = x - mean
    cov = centered.T @ centered / (ens.sample_count - 1)
    return EmpiricalMoments(mean, (cov + cov.T) / 2, ens.sample_count, True)


def propagate_policy_moments(sys: LinearSystemModel, policy, initial):
    """Exact mean/covariance recursion of the closed loop under a policy.

    Returns ``(means, covs)`` of shapes (N+1, n) and (N+1, n, n):

        mu_{k+1}    = A_k mu_k + B_k (K_k mu_k + c_k)
        Sigma_{k+1} = (A_k + B_k K_k) Sigma_k (A_k + B_k K_k)^T
                      + B_k R_k B_k^T
    """
    policy = _resolve_policy(policy)
    if policy.horizon != sys.horizon or policy.n != sys.n or policy.m != sys.m:
        raise DimensionMismatch("policy does not match system")
    if isinstance(initial, GaussianMarginal):
        mean0, cov0 = initial.mean, initial.cov.data
    else:
        mean0 = np.asarray(initial, dtype=np.float64)
        cov0 = np.zeros((sys.n, sys.n))
    means = np.zeros((sys.horizon + 1, sys.n))
    means[0] = mean0
    for k in range(sys.horizon):
        means[k + 1] = sys.A[k] @ means[k] + sys.B[k] @ policy.mean_control(k, means[k])
    noise = sys.B @ policy.noise_covs @ np.swapaxes(sys.B, 1, 2)
    return means, _lyapunov_forward(sys.A + sys.B @ policy.gains, noise, cov0)


def dynamics_residual(ens: TrajectoryEnsemble, sys: LinearSystemModel) -> float:
    """Largest violation of x_{k+1} = A_k x_k + B_k u_k over all stored paths."""
    worst = 0.0
    for k in range(ens.horizon):
        pred = ens.states[:, k] @ sys.A[k].T + ens.controls[:, k] @ sys.B[k].T
        worst = max(worst, float(np.abs(ens.states[:, k + 1] - pred).max()))
    return worst
