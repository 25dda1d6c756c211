"""Workload definitions: seeded inputs, operations and their correctness oracles.

Each workload is a fixed cycle of operations built from ``--seed`` alone.
An operation is a ``run`` callable (the timed part: calls into the library
or one command-line process) and a ``check`` callable that compares the
result against the tolerances documented by the repository's tests. A
result that misses its tolerance is a failed operation; nothing is re-drawn.

Inputs are generated with numpy only, so the library under test cannot
change them and their SHA-256 identifies them across commits.

Plants are continuous-time systems discretized at ``dt = T / N`` with
``A = expm(F dt)`` and ``B = sqrt(dt) G``: the noise-driven reference
system then approximates the same diffusion at every horizon, so the grid
stresses horizon length and state dimension without making the transition
products of long horizons ill-conditioned. Ill-conditioned long horizons are
measured separately, on the fixed slices of the demo system.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# documented tolerances (tests/test_acceptance.py, tests/test_steering.py, cli)
TCOV_TOL = 1e-7  # terminal covariance, Frobenius norm (criterion 2)
TMEAN_TOL = 1e-7  # terminal mean, Euclidean norm
LQR_TOL = 1e-9  # Riccati re-derivation of gains and noise covariances
BRIDGE_TOL = 1e-7  # bridge_verify max residual (criterion 7, bridge-check default)
ORACLE_TOL = 1e-9  # pinned controller against the conditioning oracle (criterion 5)
PIN_TOL = 1e-9  # sampled endpoints of the point-steering controller

WORKLOADS = ("synth", "verify", "cli")

# the 2-state demo system of the README and specs/
DEMO_A = np.array([[0.9, 0.1], [0.05, 1.2]])
DEMO_B = np.array([[0.0], [0.22]])
DEMO_SIGMA0 = np.array([[7.0, 3.0], [3.0, 5.0]])
DEMO_SIGMA_T = 0.3 * np.eye(2)
DEMO_X0 = np.array([-2.0, 4.0])
DEMO_XT = np.array([1.0, 0.0])

SYNTH_DEMO_HORIZONS = (50, 62, 65, 100, 500, 2000)
NEAR_IDENTITY_HORIZONS = (50, 100, 200)
VERIFY_DEMO_HORIZONS = (50, 65, 80)

P2P_PATHS = 200

# maxent_steer.system.BOUNDARY_FACTOR_RCOND, repeated so that inputs never depend on the code under test
BOUNDARY_FACTOR_RCOND = 1e-9


@dataclass(frozen=True)
class Problem:
    """Raw inputs of one problem; ``mean0``/``mean_t`` are the points in point mode."""

    name: str
    a: np.ndarray
    b: np.ndarray
    horizon: int
    mean0: np.ndarray
    mean_t: np.ndarray
    sigma0: np.ndarray | None = None
    sigma_t: np.ndarray | None = None
    epsilon: float = 1.0
    redraws: int = 0  # draws discarded as singular before this one

    def arrays(self):
        return (self.a, self.b, self.mean0, self.mean_t, self.sigma0, self.sigma_t)


@dataclass
class Outcome:
    ok: bool
    values: dict = field(default_factory=dict)
    reason: str = ""


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` judges its result afterwards."""

    kind: str
    label: str
    span: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list
    slice_rows: list  # (label, horizon or None, [Op, ...]) robustness probes
    input_sha256: str
    min_cycles: int
    input_redraws: dict = field(default_factory=dict)  # problem name -> discarded singular draws


# ---------------------------------------------------------------------------
# input generation (numpy only)
# ---------------------------------------------------------------------------


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, int.from_bytes(tag.encode(), "little")])


def _spd(rng, n, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = (q * rng.uniform(lo, hi, n)) @ q.T
    return (s + s.T) / 2


def _expm(m):
    """Matrix exponential by scaling and squaring of a degree-17 Taylor series."""
    norm = float(np.abs(m).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    x = m / 2.0**squarings
    term = np.eye(len(m))
    out = term.copy()
    for k in range(1, 18):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _sqrtm_spd(m):
    w, v = np.linalg.eigh((m + m.T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _plant(rng, n, m, horizon, time_varying, v_spread=2.0):
    """Discretized plant: modes sigma +- i omega with |sigma| <= 0.6 over T = 1.

    The modal basis is ``V = Q1 diag(s) Q2^T`` with ``s`` in
    ``[1/v_spread, v_spread]``, so ``cond(V) <= v_spread**2``. An unbounded
    basis (``I + 0.3 N(0, 1)``) drew cond(V) of several hundred about once in
    twenty seeds: near-uncontrollable plants with Gramian condition up to
    1e8, a regime the robustness slice measures on a fixed plant instead.
    """
    lam = np.zeros((n, n))
    i = 0
    while i < n:
        sigma = rng.uniform(-0.6, 0.6)
        if i + 1 < n:
            omega = rng.uniform(0.5, 3.0)
            lam[i : i + 2, i : i + 2] = [[sigma, omega], [-omega, sigma]]
            i += 2
        else:
            lam[i, i] = sigma
            i += 1
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.exp(rng.uniform(-np.log(v_spread), np.log(v_spread), n))
    f = (q1 * s) @ q2.T @ lam @ (q2 / s) @ q1.T  # V lam V^-1
    g = rng.standard_normal((n, m))
    dt = 1.0 / horizon
    if not time_varying:
        return _expm(f * dt), np.sqrt(dt) * g
    w = rng.standard_normal((n, n))
    w = (w - w.T) / 2
    phase = 2 * np.pi * np.arange(horizon) / horizon
    a = np.stack([_expm((f + np.sin(p) * w) * dt) for p in phase])
    b = np.stack([np.sqrt(dt) * g * (1 + 0.3 * np.cos(p)) for p in phase])
    return a, b


def _stack(x, horizon):
    return np.broadcast_to(x, (horizon,) + x.shape[-2:]) if x.ndim == 2 else x


def _boundary_factors_separated(a, b, horizon, sigma0, sigma_t, eps):
    """Whether both normalized boundary factors are nonsingular.

    Same quantity and threshold as the solver's feasibility check, computed
    here in float64 so that inputs never depend on the code under test. It
    only discards draws that ``validate_assumptions`` would refuse as
    singular; nearly singular draws are kept.
    """
    a, b = _stack(a, horizon), _stack(b, horizon)
    n = a.shape[1]
    phi = np.eye(n)  # Phi(0, k)
    gc = np.zeros((n, n))
    for k in range(horizon):
        phi = phi @ np.linalg.inv(a[k])
        w = phi @ b[k]
        gc += w @ w.T
    wg, vg = np.linalg.eigh(gc)
    if wg[0] <= 0:  # not controllable in float64
        return False
    gih = (vg / np.sqrt(wg)) @ vg.T
    s0 = gih @ sigma0 @ gih / eps
    sn = gih @ phi @ sigma_t @ phi.T @ gih / eps
    s0h = _sqrtm_spd(s0)
    forward = s0 + np.eye(n) / 2 - _sqrtm_spd(s0h @ sn @ s0h + np.eye(n) / 4)
    for factor in (forward, np.eye(n) - forward):
        sv = np.linalg.svd(factor, compute_uv=False)
        if sv[-1] <= BOUNDARY_FACTOR_RCOND * max(1.0, sv[0]):
            return False
    return True


def density_problem(rng, name, n, horizon, time_varying=False):
    """A plant with m = ceil(n/2) inputs steering N(mu0, S0) to a tighter N(muN, SN)."""
    for redraws in range(100):
        a, b = _plant(rng, n, (n + 1) // 2, horizon, time_varying)
        sigma0 = _spd(rng, n, 0.5, 3.0)
        sigma_t = _spd(rng, n, 0.05, 0.5)
        eps = float(np.exp(rng.uniform(np.log(0.2), np.log(2.0))))
        if _boundary_factors_separated(a, b, horizon, sigma0, sigma_t, eps):
            return Problem(name, a, b, horizon, rng.standard_normal(n), rng.standard_normal(n),
                           sigma0, sigma_t, eps, redraws)
    raise RuntimeError(f"no well-posed problem drawn for {name}")


def point_problem(rng, name, n, horizon, m=None, plant_rng=None):
    """Random endpoints on a plant drawn from ``plant_rng`` (default: ``rng``)."""
    a, b = _plant(plant_rng or rng, n, (n + 1) // 2 if m is None else m, horizon, False)
    return Problem(name, a, b, horizon, rng.standard_normal(n), rng.standard_normal(n))


def demo_problem(horizon):
    return Problem(f"demo-N{horizon}", DEMO_A, DEMO_B, horizon, DEMO_X0, DEMO_XT,
                   DEMO_SIGMA0, DEMO_SIGMA_T, 1.0)


def near_identity_problem(horizon):
    """8-state near-identity system: spectral radius 1.05, min |eigenvalue| 0.86, m = 3."""
    rng = np.random.default_rng(2)
    lam = np.array([1.05, 1.02, 1.0, 0.98, 0.95, 0.92, 0.89, 0.86])
    v = np.eye(8) + 0.2 * rng.standard_normal((8, 8))
    a = v @ np.diag(lam) @ np.linalg.inv(v)
    b = 0.3 * rng.standard_normal((8, 3))
    return Problem(f"near-identity8-N{horizon}", a, b, horizon, np.ones(8), np.zeros(8),
                   np.eye(8), 0.5 * np.eye(8), 1.0)


def ill_basis_problem():
    """8-state time-varying plant with cond(V) up to 900: Gramian condition 1.8e8 at N = 50."""
    rng = np.random.default_rng(6)
    a, b = _plant(rng, 8, 4, 50, True, v_spread=30.0)
    return Problem("ill-basis8-N50-tv", a, b, 50, rng.standard_normal(8), rng.standard_normal(8),
                   _spd(rng, 8, 0.5, 3.0), _spd(rng, 8, 0.05, 0.5), 0.4)


def problems_sha256(problems, extra: bytes = b"") -> str:
    h = hashlib.sha256()
    for p in problems:
        h.update(f"{p.name}|{p.horizon}|{p.epsilon!r}".encode())
        for arr in p.arrays():
            if arr is not None:
                h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(extra)
    return h.hexdigest()


def redraw_counts(problems) -> dict:
    """Singular draws discarded per generated density problem, for the record file."""
    return {p.name: p.redraws for p in problems if p.sigma0 is not None}


# ---------------------------------------------------------------------------
# in-process operations (the library is reached through the package namespace
# at call time, so that traced wrappers installed there are seen)
# ---------------------------------------------------------------------------


def _failed(reason, **values):
    return Outcome(False, values, reason)


def _density_inputs(ms, p):
    system = ms.LinearSystemModel(p.a, p.b, p.horizon)
    init = ms.GaussianMarginal(p.mean0, ms.SymMatrix(p.sigma0))
    term = ms.GaussianMarginal(p.mean_t, ms.SymMatrix(p.sigma_t))
    return system, init, term


def synth_op(ms, p: Problem) -> Op:
    """Feasibility check, policy synthesis, Riccati re-derivation, moment certificate."""

    def run():
        system, init, term = _density_inputs(ms, p)
        report = ms.validate_assumptions(system, p.sigma0, p.sigma_t, p.epsilon)
        policy = ms.general_policy(system, init, term, p.epsilon)
        lyap = ms.solve_coupled_lyapunov(system, p.sigma0, p.sigma_t, p.epsilon)
        ric = ms.riccati_backward(system, np.linalg.inv(lyap.Q[-1]))
        lqr = ms.lqr_policy(system, ric, epsilon=p.epsilon)
        means, covs = ms.propagate_policy_moments(system, policy, init)
        return report.feasible, policy, lqr, means[-1], covs[-1]

    def check(result):
        feasible, policy, lqr, mean_n, cov_n = result
        values = {
            "tcov_err": float(np.linalg.norm(cov_n - p.sigma_t)),
            "tmean_err": float(np.linalg.norm(mean_n - p.mean_t)),
            "gain_gap": float(max(np.abs(policy.gains - lqr.gains).max(),
                                  np.abs(policy.noise_covs - lqr.noise_covs).max())),
        }
        if not feasible:
            return _failed("validate_assumptions reports infeasible", **values)
        if not (values["tcov_err"] <= TCOV_TOL and values["tmean_err"] <= TMEAN_TOL):  # NaN fails
            return _failed("terminal moments miss 1e-7", **values)
        if not values["gain_gap"] <= LQR_TOL:
            return _failed("Riccati re-derivation differs by more than 1e-9", **values)
        return Outcome(True, values)

    return Op("synth", p.name, "op.synth", run, check)


def bridge_op(ms, p: Problem) -> Op:
    def run():
        system = ms.LinearSystemModel(p.a, p.b, p.horizon)
        return ms.bridge_verify(system, p.sigma0, p.sigma_t, p.epsilon)

    def check(report):
        if report.skipped_reason is not None:
            return _failed(f"skipped: {report.skipped_reason}", bridge_skipped=1)
        values = {"bridge_res": float(report.max_residual), "bridge_skipped": 0}
        if not report.max_residual <= BRIDGE_TOL:
            return _failed("bridge residual above 1e-7", **values)
        return Outcome(True, values)

    return Op("bridge", p.name, "op.bridge", run, check)


def pinned_op(ms, p: Problem) -> Op:
    def run():
        system = ms.LinearSystemModel(p.a, p.b, p.horizon)
        ctrl = ms.pinned_moments_controller(system, p.mean0, p.mean_t)
        oracle = ms.conditional_gaussian_oracle(system, p.mean0, p.mean_t)
        return ctrl, oracle

    def check(result):
        ctrl, oracle = result
        gap = float(max(np.abs(ctrl.mean - oracle.mean).max(), np.abs(ctrl.cov - oracle.cov).max()))
        values = {"oracle_gap": gap}
        if not gap <= ORACLE_TOL:
            return _failed("controller and oracle moments differ by more than 1e-9", **values)
        return Outcome(True, values)

    return Op("pinned", p.name, "op.pinned", run, check)


def p2p_op(ms, p: Problem, seed: int) -> Op:
    def run():
        system = ms.LinearSystemModel(p.a, p.b, p.horizon)
        policy = ms.point_to_point_policy(system, p.mean0, p.mean_t)
        return ms.sample_ensemble(system, policy, p.mean0, P2P_PATHS, seed)

    def check(ens):
        err = float(np.abs(ens.states[:, -1] - p.mean_t).max())
        if not err <= PIN_TOL:
            return _failed("sampled endpoints miss the target by more than 1e-9", endpoint_err=err)
        return Outcome(True, {"endpoint_err": err})

    return Op("p2p", p.name, "op.p2p", run, check)


def build_synth(seed: int) -> Workload:
    import maxent_steer as ms
    rng = _rng(seed, "synth")
    grid = [
        density_problem(rng, f"n{n}-N{horizon}-{'tv' if tv else 'ti'}", n, horizon, tv)
        for n in (2, 4, 8)
        for horizon in (50, 200)
        for tv in (False, True)
    ]
    slice_problems = [demo_problem(h) for h in SYNTH_DEMO_HORIZONS] + [
        near_identity_problem(h) for h in NEAR_IDENTITY_HORIZONS
    ] + [ill_basis_problem()]
    rows = [(p.name, p.horizon if p.name.startswith("demo") else None, [synth_op(ms, p)])
            for p in slice_problems]
    # The README demo (N=50) joins the grid: with an odd number of kinds per
    # cycle the median latency falls inside one kind instead of between two.
    # From 6 cycles on, the two n=8, N=200 kinds hold the 11 slowest samples.
    ops = [synth_op(ms, p) for p in grid + [demo_problem(50)]]
    return Workload("synth", ops, rows, problems_sha256(grid + slice_problems), min_cycles=6,
                    input_redraws=redraw_counts(grid))


def verify_demo_rows() -> list:
    """The demo system through the bridge, the pinned controller and a rollout, per horizon."""
    import maxent_steer as ms
    demo = [demo_problem(h) for h in VERIFY_DEMO_HORIZONS]
    return [(p.name, p.horizon, [bridge_op(ms, p), pinned_op(ms, p), p2p_op(ms, p, p.horizon)]) for p in demo]


def build_verify(seed: int) -> Workload:
    import maxent_steer as ms
    rng = _rng(seed, "verify")
    bridges = [density_problem(rng, f"bridge-n{n}-N{h}", n, h) for n in (2, 4, 6) for h in (50, 100)]
    # The oracle's cost varies threefold with the plant (Jacobi sweeps on the
    # conditioned block), so the pinned plants are fixed and only the endpoints
    # follow the seed.
    plants = _rng(0, "pinned-plants")
    pinned = [point_problem(rng, f"pinned-n{n}-N{h}", n, h, plant_rng=plants)
              for n, h in ((2, 20), (3, 20), (4, 40), (2, 100))]
    ops = [bridge_op(ms, p) for p in bridges]
    ops += [pinned_op(ms, p) for p in pinned]
    # rollouts on the cheap plants: one on n = 4 (~90 ms) would sit next to the median kind
    ops += [p2p_op(ms, p, seed + i) for i, p in enumerate((pinned[0], pinned[1], pinned[3]))]
    # The 13 kinds per cycle are sized so that the median falls inside one kind
    # that is clear of its neighbours: six kinds (rollouts, the two N=20 pinned
    # ops, the n=2, N=50 bridge) take at most ~65 ms, the median kind (the
    # n=2, N=100 bridge) ~120 ms, and the six above it 250 ms or more.
    rows = verify_demo_rows()
    # a fixed 3-state, 1-input plant on which controller and oracle disagree by ~7e-2
    one_input = point_problem(np.random.default_rng(10), "pinned-n3-m1-N50", 3, 50, m=1)
    rows.append((one_input.name, None, [pinned_op(ms, one_input)]))
    demo = [demo_problem(h) for h in VERIFY_DEMO_HORIZONS]
    # from 6 cycles on, the 11 slowest samples are n=6 bridges and n=2, N=100 pinned ops
    return Workload("verify", ops, rows, problems_sha256(bridges + pinned + demo + [one_input]),
                    min_cycles=6, input_redraws=redraw_counts(bridges))


# ---------------------------------------------------------------------------
# command-line workload
# ---------------------------------------------------------------------------


def _spec_doc(p: Problem, samples=None, seed=None) -> dict:
    doc = {"horizon": p.horizon, "epsilon": p.epsilon, "A": p.a.tolist(), "B": p.b.tolist()}
    if p.sigma0 is None:
        doc["initial"] = {"point": p.mean0.tolist()}
        doc["terminal"] = {"point": p.mean_t.tolist()}
    else:
        doc["initial"] = {"mean": p.mean0.tolist(), "cov": p.sigma0.tolist()}
        doc["terminal"] = {"mean": p.mean_t.tolist(), "cov": p.sigma_t.tolist()}
    if samples is not None:
        doc["samples"] = samples
    if seed is not None:
        doc["seed"] = seed
    return doc


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def policy_terminal_errors(policy_path, p: Problem):
    """Exact closed-loop terminal mean/covariance errors of a written policy (numpy only)."""
    with open(policy_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    gains = np.asarray(doc["gains"])
    feeds = np.asarray(doc["feedforwards"])
    noise = np.asarray(doc["noise_covs"])
    a, b = _stack(p.a, p.horizon), _stack(p.b, p.horizon)
    mean, cov = p.mean0, p.sigma0
    for k in range(p.horizon):
        a_cl = a[k] + b[k] @ gains[k]
        mean = a[k] @ mean + b[k] @ (gains[k] @ mean + feeds[k])
        cov = a_cl @ cov @ a_cl.T + b[k] @ noise[k] @ b[k].T
    return float(np.linalg.norm(mean - p.mean_t)), float(np.linalg.norm(cov - p.sigma_t))


def _cli_subprocess(root: Path, env: dict):
    def call(argv):
        done = subprocess.run(
            [sys.executable, "-m", "maxent_steer.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    return call


def cli_inprocess(argv):
    """Run one command through ``maxent_steer.cli.main`` in this process."""
    from maxent_steer import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue()


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_ops(call, workdir: Path, density: Problem, point: Problem, stacked: Problem,
            seed: int, point_samples: int, steer_samples=(1000, 1000, 10000)) -> list:
    """The command-line op cycle; ``call(argv) -> (exit code, stdout)``."""
    spec = {name: str(workdir / f"{name}.json") for name in ("density", "point", "stacked", "malformed")}
    out = {name: str(workdir / name) for name in
           ("policy.json", "stacked_policy.json", "policy.csv", "auto1.csv", "auto2.csv", "pin.csv", "ellipse.csv")}
    steps = density.horizon + 1

    def op(command, label, argv, check):
        return Op(f"cli.{command}", label, f"cli.{command}", lambda: call(argv), check)

    def exit_is(code, then=None):
        def check(result):
            got, stdout = result
            if got != code:
                return _failed(f"exit {got}, expected {code}")
            return then(stdout) if then else Outcome(True)
        return check

    def rows_are(path, expected):
        def check(_stdout):
            rows = count_lines(path)
            if rows != expected:
                return _failed(f"{rows} CSV rows, expected {expected}", csv_rows=rows)
            return Outcome(True, {"csv_rows": rows})
        return check

    def feasible(stdout):
        return Outcome(True) if '"feasible":true' in stdout else _failed("not reported feasible")

    def policy_ok(path, p):
        def check(_stdout):
            mean_err, cov_err = policy_terminal_errors(path, p)
            values = {"tmean_err": mean_err, "tcov_err": cov_err}
            if not (cov_err <= TCOV_TOL and mean_err <= TMEAN_TOL):
                return _failed("written policy misses the terminal moments by more than 1e-7", **values)
            return Outcome(True, values)
        return check

    def pinned_rows(stdout):
        outcome = rows_are(out["pin.csv"], point_samples * (point.horizon + 1) + 1)(stdout)
        if not outcome.ok:
            return outcome
        data = np.loadtxt(out["pin.csv"], delimiter=",", skiprows=1, usecols=range(2 + point.a.shape[-1]))
        last = data[data[:, 1] == point.horizon][:, 2:]
        err = float(np.abs(last - point.mean_t).max())
        if not err <= PIN_TOL:
            return _failed("pinned endpoints miss the target by more than 1e-9", endpoint_err=err)
        return Outcome(True, {**outcome.values, "endpoint_err": err})

    def verified(stdout):
        lines = stdout.strip().splitlines()
        return Outcome(True) if lines and lines[-1] == "verified" else _failed("bridge not verified")

    s = str(seed)
    n1, n2, n3 = steer_samples
    return [
        op("validate", "density", ["validate", "--spec", spec["density"]], exit_is(0, feasible)),
        op("validate", "point", ["validate", "--spec", spec["point"]], exit_is(0, feasible)),
        op("solve", "density", ["solve", "--spec", spec["density"], "--out", out["policy.json"]],
           exit_is(0, policy_ok(out["policy.json"], density))),
        op("steer", f"policy-{n1}", ["steer", "--spec", spec["density"], "--policy", out["policy.json"],
                                     "--samples", str(n1), "--seed", s, "--out", out["policy.csv"]],
           exit_is(0, rows_are(out["policy.csv"], n1 * steps + 1))),
        op("steer", f"auto-{n2}", ["steer", "--spec", spec["density"], "--samples", str(n2), "--seed", s,
                                   "--out", out["auto1.csv"]],
           exit_is(0, rows_are(out["auto1.csv"], n2 * steps + 1))),
        op("steer", f"auto-{n3}", ["steer", "--spec", spec["density"], "--samples", str(n3), "--seed", s,
                                   "--out", out["auto2.csv"]],
           exit_is(0, rows_are(out["auto2.csv"], n3 * steps + 1))),
        op("pin", "point", ["pin", "--spec", spec["point"], "--out", out["pin.csv"]], exit_is(0, pinned_rows)),
        op("bridge-check", "density", ["bridge-check", "--spec", spec["density"]], exit_is(0, verified)),
        op("ellipse", "density", ["ellipse", "--spec", spec["density"], "--out", out["ellipse.csv"]],
           exit_is(0, rows_are(out["ellipse.csv"], 361))),
        op("solve", stacked.name, ["solve", "--spec", spec["stacked"], "--out", out["stacked_policy.json"]],
           exit_is(0, policy_ok(out["stacked_policy.json"], stacked))),
        op("validate", "malformed", ["validate", "--spec", spec["malformed"]], exit_is(2)),
    ]


def write_cli_specs(workdir: Path, density, point, stacked, malformed_rng, point_samples, seed) -> bytes:
    """Write the spec files; returns their bytes for the input hash."""
    bad = _spec_doc(density)
    bad["B"] = malformed_rng.standard_normal((density.a.shape[0] + 1, 1)).tolist()  # wrong row count
    docs = {
        "density": _spec_doc(density, samples=1000, seed=seed),
        "point": _spec_doc(point, samples=point_samples, seed=seed),
        "stacked": _spec_doc(stacked),
        "malformed": bad,
    }
    blob = b""
    for name, doc in docs.items():
        text = json.dumps(doc, indent=1).encode()
        (workdir / f"{name}.json").write_bytes(text)
        blob += text
    return blob


def cli_problems(seed: int):
    rng = _rng(seed, "cli")
    density = density_problem(rng, "cli-density-n2-N50", 2, 50)
    point = point_problem(rng, "cli-point-n2-N50", 2, 50)
    stacked = density_problem(rng, "cli-stacked-n4-N100", 4, 100, time_varying=True)
    return rng, density, point, stacked


def build_cli(seed: int, root: Path, workdir: Path, inprocess: bool) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    rng, density, point, stacked = cli_problems(seed)
    point_samples = 10
    blob = write_cli_specs(workdir, density, point, stacked, rng, point_samples, seed)
    call = cli_inprocess if inprocess else _cli_subprocess(root, cli_env(root))
    ops = cli_ops(call, workdir, density, point, stacked, seed, point_samples)
    sha = problems_sha256([density, point, stacked], blob + repr([o.label for o in ops]).encode())
    # Steer 10k (one sample per cycle) and the two 1k steers (two per cycle) hold
    # the 11 slowest samples. From 5 cycles on, the 11th slowest falls near the
    # middle of the 1k steers rather than at their fast edge.
    return Workload("cli", ops, [], sha, min_cycles=5, input_redraws=redraw_counts([density, stacked]))


def coverage_ops(seed: int, workdir: Path) -> list:
    """One small call through every traced function, so every layer is measured in every traced run."""
    import maxent_steer as ms
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, "coverage")
    density = density_problem(rng, "cov-density-n2-N20", 2, 20)
    point = point_problem(rng, "cov-point-n2-N20", 2, 20)
    stacked = density_problem(rng, "cov-stacked-n2-N20", 2, 20, time_varying=True)
    write_cli_specs(workdir, density, point, stacked, rng, 5, seed)
    ops = cli_ops(cli_inprocess, workdir, density, point, stacked, seed, 5, steer_samples=(20, 20, 50))
    return ops + [synth_op(ms, density), pinned_op(ms, point), p2p_op(ms, point, seed)]


def build(name: str, seed: int, root: Path, workdir: Path, inprocess: bool = False) -> Workload:
    if name == "synth":
        return build_synth(seed)
    if name == "verify":
        return build_verify(seed)
    if name == "cli":
        return build_cli(seed, root, workdir, inprocess)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
