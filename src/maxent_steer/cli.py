"""Command-line interface.

Commands: validate, solve, steer, pin, bridge-check, ellipse. Exit status
is 0 on success, 1 when a problem is infeasible or hits a numerical limit, a
verification fails or a rollout overflows, and 2 on malformed input (an
entropy weight or a bridge-check tolerance that is not positive and finite,
and an output path that cannot be written, included).
"""

from __future__ import annotations

import sys as _sys

import click
import numpy as np

from . import specio
from .errors import (
    DimensionMismatch,
    NonpositiveEpsilon,
    NotPD,
    NotTwoDimensional,
    ParseError,
    SteeringError,
)
from .linalg import as_sym, definiteness, psd_sqrt
from .pinned import bridge_verify, point_to_point_policy
from .simulate import BLOCK, _block_rollout
from .steering import _general_policy_and_pair
from .system import _epsilon_refusal, validate_assumptions

_INPUT_ERRORS = (ParseError, DimensionMismatch, NotTwoDimensional, NonpositiveEpsilon)


def _bail(exc: Exception | str, code: int):
    click.echo(f"error: {exc}", err=True)
    _sys.exit(code)


def _write(write, path: str, *args, **kwargs):
    """Call ``write(path, ...)``; a path that cannot be written exits 2."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        _bail(f"cannot write {path}: {exc.strerror or exc}", 2)


def _load_spec(path: str) -> specio.ProblemSpec:
    try:
        return specio.load_spec(path)
    except ParseError as exc:
        _bail(exc, 2)


def _require_density(spec: specio.ProblemSpec, command: str):
    if spec.mode != "density":
        _bail(ParseError(f"'{command}' needs a density-mode spec (mean/cov boundaries)"), 2)


def ellipse_points(cov, level: float, count: int):
    """Sample the boundary {x : x^T cov^{-1} x = level^2} by angle.

    Only defined for two-dimensional covariances; points are
    level * cov^{1/2} (cos t, sin t).
    """
    cov = as_sym(cov)
    if cov.n != 2:
        raise NotTwoDimensional(f"ellipse output needs a 2x2 covariance, got {cov.n}x{cov.n}")
    if not definiteness(cov).is_pd:
        raise NotPD("covariance must be positive definite for an ellipse boundary")
    if count < 1 or not (np.isfinite(level) and level > 0):
        raise ValueError(f"need a point count >= 1 and a finite level > 0, got {count} and {level}")
    root = psd_sqrt(cov).data
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)])
    return angles, (level * (root @ circle)).T


@click.group()
def main():
    """Maximum-entropy optimal density steering of discrete-time linear systems."""


@main.command("validate")
@click.option("--spec", "spec_path", required=True, type=click.Path(), help="Problem spec file.")
@click.option("--epsilon-override", type=float, default=None, help="Use this entropy weight instead of the spec's.")
def cmd_validate(spec_path, epsilon_override):
    """Check the solvability assumptions and report diagnostics."""
    spec = _load_spec(spec_path)
    epsilon = epsilon_override if epsilon_override is not None else spec.epsilon
    refusal = _epsilon_refusal(epsilon)
    if refusal is not None:
        _bail(NonpositiveEpsilon(refusal), 2)
    system = spec.system()
    if spec.mode == "density":
        report = validate_assumptions(
            system, spec.initial.cov, spec.terminal.cov, epsilon
        )
    else:
        report = validate_assumptions(system)
    click.echo(f"feasible: {report.feasible}")
    click.echo(f"dynamics invertible at every step: {report.all_a_invertible}")
    click.echo(f"gramian window: {report.gramian_window}")
    if spec.mode == "density":
        click.echo(f"forward factor min singular value:  {report.f_matrix_min_singular:.6e}")
        click.echo(f"backward factor min singular value: {report.b_matrix_min_singular:.6e}")
    for line in report.diagnostics:
        click.echo(f"note: {line}")
    def finite_or_none(value):
        return value if np.isfinite(value) else None

    click.echo(
        specio.canonical_json(
            {
                "feasible": report.feasible,
                "gramian_window": report.gramian_window,
                "a_step_invertible": list(report.a_step_invertible),
                "a_condition_numbers": [finite_or_none(c) for c in report.a_condition_numbers],
                "f_matrix_min_singular": finite_or_none(report.f_matrix_min_singular),
                "b_matrix_min_singular": finite_or_none(report.b_matrix_min_singular),
                "diagnostics": list(report.diagnostics),
            }
        ),
        nl=False,
    )
    _sys.exit(0 if report.feasible else 1)


@main.command("solve")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), help="Policy file to write.")
@click.option("--epsilon-override", type=float, default=None)
def cmd_solve(spec_path, out_path, epsilon_override):
    """Solve a density-mode spec and write the optimal policy."""
    spec = _load_spec(spec_path)
    _require_density(spec, "solve")
    epsilon = epsilon_override if epsilon_override is not None else spec.epsilon
    try:
        policy, lyap = _general_policy_and_pair(spec.system(), spec.initial, spec.terminal, epsilon)
    except _INPUT_ERRORS as exc:
        _bail(exc, 2)
    except SteeringError as exc:
        _bail(exc, 1)
    eigs = np.sort(np.linalg.eigvalsh(np.linalg.inv(lyap.Q[-1])))
    _write(
        specio.save_policy, out_path, policy,
        q_sequence=lyap.Q,
        diagnostics={"q_terminal_inverse_eigenvalues": [float(v) for v in eigs]},
    )
    click.echo(f"policy written to {out_path}")
    click.echo(
        "terminal-weight eigenvalues: "
        + ", ".join(format(v, ".17g") for v in eigs)
    )


def _nonfinite(states, controls):
    """One block's first step with a non-finite state (None if there is none)
    and the writer's refusal of a non-finite control (None if there is none)."""
    finite = np.isfinite(states).all(axis=(0, 2))
    step = None if finite.all() else int(np.argmin(finite))
    try:
        specio._check_finite(controls)
    except ValueError as exc:
        return step, str(exc)
    return step, None


def _steer_impl(spec_path, policy_path, samples, seed, out_path, epsilon_override, require_point):
    """Sample the ensemble and stream it to ``out_path``, one noise block at a time.

    A first pass rolls out every block to find the first non-finite step and
    keeps nothing; a rollout that overflows exits 1 and leaves ``out_path``
    untouched. Then the file is opened and the writer's processes roll the
    blocks out again as they format them, so each process holds at most one
    block of BLOCK paths, whatever the sample count.
    """
    spec = _load_spec(spec_path)
    if require_point and spec.mode != "point":
        _bail(ParseError("'pin' needs a point-mode spec (fixed endpoints)"), 2)
    epsilon = epsilon_override if epsilon_override is not None else spec.epsilon
    system = spec.system()
    try:
        if policy_path is not None and policy_path != "auto":
            policy, _ = specio.load_policy(policy_path)
        elif spec.mode == "density":
            policy, _ = _general_policy_and_pair(system, spec.initial, spec.terminal, epsilon)
        else:
            policy = point_to_point_policy(system, spec.initial, spec.terminal)
        count = samples if samples is not None else (spec.samples or 1000)
        rng_seed = seed if seed is not None else (spec.seed or 0)
        block_rollout = _block_rollout(system, policy, spec.initial, count, rng_seed)
    except _INPUT_ERRORS as exc:
        _bail(exc, 2)
    except SteeringError as exc:
        _bail(exc, 1)

    def rollout(b):
        # an unstable rollout may overflow; it is refused by its first non-finite step
        with np.errstate(over="ignore", invalid="ignore"):
            return block_rollout(b)

    # each block is dropped once its verdict is taken
    verdicts = [_nonfinite(*rollout(b)) for b in range(-(-count // BLOCK))]
    bad_steps = [step for step, _ in verdicts if step is not None]
    if bad_steps:
        _bail(f"rollout failed: the sampled states are not finite at step {min(bad_steps)}", 1)
    refusals = [refusal for _, refusal in verdicts if refusal is not None]
    if refusals:
        raise ValueError(refusals[0])
    steps = system.horizon + 1
    _write(specio._write_trajectories, out_path, count, (steps, system.n, system.m), BLOCK, rollout)
    click.echo(f"{count} trajectories ({steps} steps) written to {out_path}")


@main.command("steer")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--policy", "policy_path", default="auto", show_default=True,
              help="Policy file to roll out, or 'auto' to synthesize from the spec.")
@click.option("--samples", type=click.IntRange(min=1), default=None, help="Sample count (defaults to the spec's).")
@click.option("--seed", type=int, default=None, help="RNG seed (defaults to the spec's).")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Trajectory CSV to write.")
@click.option("--epsilon-override", type=float, default=None)
def cmd_steer(spec_path, policy_path, samples, seed, out_path, epsilon_override):
    """Sample closed-loop trajectories and write them as CSV."""
    _steer_impl(spec_path, policy_path, samples, seed, out_path, epsilon_override, False)


@main.command("pin")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--samples", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_pin(spec_path, samples, seed, out_path):
    """Sample the point-to-point controller (point-mode specs only)."""
    _steer_impl(spec_path, "auto", samples, seed, out_path, None, True)


@main.command("bridge-check")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--epsilon-override", type=float, default=None)
@click.option("--tolerance", type=float, default=1e-7, show_default=True)
def cmd_bridge_check(spec_path, epsilon_override, tolerance):
    """Verify the bridge identities for a density-mode spec."""
    if not (np.isfinite(tolerance) and tolerance > 0):
        _bail(f"tolerance must be positive and finite, got {tolerance:g}", 2)
    spec = _load_spec(spec_path)
    _require_density(spec, "bridge-check")
    epsilon = epsilon_override if epsilon_override is not None else spec.epsilon
    if np.any(spec.initial.mean) or np.any(spec.terminal.mean):
        click.echo("note: boundary means are ignored; the bridge identities are "
                   "stated for centered marginals")
    try:
        report = bridge_verify(
            spec.system(), spec.initial.cov, spec.terminal.cov, epsilon
        )
    except _INPUT_ERRORS as exc:
        _bail(exc, 2)
    except SteeringError as exc:
        _bail(exc, 1)
    if report.epsilon_normalized:
        click.echo(
            f"note: entropy weight {epsilon:g} absorbed into the input matrix; "
            "the unit-weight problem was verified"
        )
    if report.skipped_reason is not None:
        click.echo(f"not verified: {report.skipped_reason}")
        _sys.exit(1)
    for name, value in report.residuals.items():
        click.echo(f"{name:>18s} residual: {value:.3e}")
    click.echo(f"path relative entropy:     {format(report.path_kl, '.17g')}")
    click.echo(f"coupling relative entropy: {format(report.coupling_kl, '.17g')}")
    ok = report.ok(tolerance)
    click.echo("verified" if ok else f"FAILED at tolerance {tolerance:g}")
    _sys.exit(0 if ok else 1)


@main.command("ellipse")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--which", type=click.Choice(["initial", "terminal"]), default="terminal",
              show_default=True, help="Which boundary covariance to trace.")
@click.option("--level", type=click.FloatRange(min=0, min_open=True), default=3.0, show_default=True,
              help="Mahalanobis radius of the boundary.")
@click.option("--points", type=click.IntRange(min=1), default=360, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_ellipse(spec_path, which, level, points, out_path):
    """Write covariance-ellipse boundary points for a density-mode spec."""
    spec = _load_spec(spec_path)
    _require_density(spec, "ellipse")
    marginal = spec.initial if which == "initial" else spec.terminal
    try:
        angles, pts = ellipse_points(marginal.cov, level, points)
    except (*_INPUT_ERRORS, ValueError) as exc:
        _bail(exc, 2)
    except SteeringError as exc:
        _bail(exc, 1)
    _write(specio.write_ellipse_csv, out_path, angles, pts)
    click.echo(f"{points} boundary points written to {out_path}")


if __name__ == "__main__":
    main()
