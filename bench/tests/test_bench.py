"""Tests of the benchmark itself: ``python3 -m pytest bench/tests -q`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import envinfo  # noqa: E402
import run as run_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the metric names other documents refer to
END_TO_END = {"ops_per_s", "lat_p50_ms", "lat_tail_ms", "setup_s", "peak_rss_mb"}
PER_LAYER = {
    "cli.startup_ms", "cli.validate.ms", "cli.solve.ms", "cli.steer.ms", "cli.pin.ms",
    "cli.bridge-check.ms", "cli.ellipse.ms",
    "specio.load_spec.ms", "specio.save_policy.ms", "specio.load_policy.ms",
    "specio.write_trajectory_csv.ms", "specio.write_ellipse_csv.ms", "specio.csv_rows", "specio.csv_bytes",
    "simulate.sample_ensemble.ms", "simulate.sample_ensemble.paths", "simulate.propagate_policy_moments.ms",
    "system.validate_assumptions.ms", "system.validate_assumptions.calls",
    "system.validate_assumptions.refused", "system.warnings",
    "steering.solve_coupled_lyapunov.ms", "steering.optimal_density_policy.ms", "steering.mean_steering.ms",
    "steering.general_policy.ms", "steering.tcov_err_max", "steering.max_ok_horizon_demo",
    "lqr.riccati_backward.ms", "lqr.lqr_policy.ms", "lqr.gain_gap_max",
    "pinned.bridge_verify.ms", "pinned.bridge_res_max", "pinned.bridge_skipped",
    "pinned.pinned_moments_controller.ms", "pinned.conditional_gaussian_oracle.ms",
    "pinned.point_to_point_policy.ms", "pinned.oracle_gap_max", "pinned.moments_bytes",
    "pinned.max_ok_horizon_demo",
    "linalg.solve_linear.calls_ext", "linalg.solve_linear.calls_f64", "linalg.solve_linear.ms",
    "linalg.sym_eig.calls_ext", "linalg.sym_eig.calls_f64", "linalg.sym_eig.ms",
    "linalg.gaussian_condition.calls", "linalg.gaussian_condition.ms",
    "trace.overhead_frac",
}


def _run_bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def test_metric_names_match_benchmark_json_and_computed_metrics():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    computed = worker.layer_metrics(Tracer(), [], [], 0.0, 1.0)
    assert set(computed) == PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_smoke_run_output_parses(tmp_path):
    import maxent_steer as ms

    demo = workloads.demo_problem(50)
    wl = workloads.Workload("synth", [_small_synth_op(corrupt=False)],
                            [(demo.name, demo.horizon, [workloads.synth_op(ms, demo)])], "0" * 64, min_cycles=2)
    result = worker.measure(wl, 3, 0.0, 0, tmp_path, float("inf"), worker.run_op(wl.ops[0]), 0.25)
    line = json.loads(json.dumps(run_mod.result_line(result, SPEC, 0)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 3
    assert set(line["metrics"]) == END_TO_END
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name] and metric["value"] > 0
    assert any(text.startswith("  lat_tail_ms") for text in run_mod.summary("synth", 3, 0, result, line, SPEC))
    for key in ("nproc", "python", "numpy", "click", "blas", "threads", "longdouble_digits"):
        assert key in result["env"]
    assert envinfo.single_threaded_env()["OPENBLAS_NUM_THREADS"] == "1"
    assert len(result["calib_ms"]) == 2
    assert "src_sha256" in envinfo.provenance(ROOT)
    statuses = {row["problem"]: row["status"] for row in result["slice"]}
    assert statuses["demo-N50"] == "passed"


def test_same_seed_gives_identical_input_hash(tmp_path):
    first = workloads.build("synth", 17, ROOT, tmp_path / "a")
    again = workloads.build("synth", 17, ROOT, tmp_path / "b")
    other = workloads.build("synth", 18, ROOT, tmp_path / "c")
    assert first.input_sha256 == again.input_sha256 != other.input_sha256
    cli_a = workloads.build("cli", 17, ROOT, tmp_path / "d")
    cli_b = workloads.build("cli", 17, ROOT, tmp_path / "e")
    assert cli_a.input_sha256 == cli_b.input_sha256
    assert first.input_redraws == again.input_redraws and len(first.input_redraws) == 12
    assert (tmp_path / "d" / "density.json").read_bytes() == (tmp_path / "e" / "density.json").read_bytes()


def test_grid_plants_are_well_conditioned():
    """The generator bounds cond(V), so no seed draws a near-uncontrollable grid plant."""
    worst = 0.0
    for seed in range(40):
        rng = workloads._rng(seed, "synth")
        for n, horizon, tv in ((2, 50, False), (4, 50, True), (8, 50, True), (8, 200, False)):
            p = workloads.density_problem(rng, "p", n, horizon, tv)
            a, b = workloads._stack(p.a, horizon), workloads._stack(p.b, horizon)
            phi, gc = np.eye(n), np.zeros((n, n))
            for k in range(horizon):
                phi = phi @ np.linalg.inv(a[k])
                gc += (phi @ b[k]) @ (phi @ b[k]).T
            worst = max(worst, np.linalg.cond(gc))
    assert worst < 1e6


def _small_synth_op(corrupt):
    import maxent_steer as ms

    problem = workloads.density_problem(workloads._rng(5, "test"), "n2-N20", 2, 20)
    op = workloads.synth_op(ms, problem)
    if corrupt:
        run = op.run

        def perturbed():
            feasible, policy, lqr, mean_n, cov_n = run()
            bad = ms.AffineGaussianPolicy(policy.gains + 1e-6, policy.feedforwards, policy.noise_covs)
            return feasible, bad, lqr, mean_n, cov_n

        op.run = perturbed
    return op


def test_corrupted_result_counts_as_failed_op():
    good = worker.run_op(_small_synth_op(corrupt=False))
    assert good["ok"], good["reason"]
    bad = worker.run_op(_small_synth_op(corrupt=True))
    assert not bad["ok"] and not bad["raised"]
    assert "Riccati" in bad["reason"] and bad["values"]["gain_gap"] > workloads.LQR_TOL
    wl = workloads.Workload("synth", [_small_synth_op(corrupt=True)], [], "", min_cycles=1)
    result = worker.timed_run(wl, 0.0, deadline=float("inf"))
    assert result["metrics"]["fail_frac"] == 1.0
    assert result["metrics"]["ops_per_s"] == 0.0


def test_raising_op_counts_as_failed():
    def boom():
        raise FloatingPointError("injected")

    op = workloads.Op("synth", "boom", "op.synth", boom, lambda r: workloads.Outcome(True))
    record = worker.run_op(op)
    assert not record["ok"] and record["raised"] and "injected" in record["reason"]


def test_max_ok_horizon_reads_each_layers_own_ops():
    table = [
        {"demo_horizon": 50, "ok_by_kind": {"bridge": True, "pinned": True, "p2p": True}},
        {"demo_horizon": 65, "ok_by_kind": {"bridge": False, "pinned": True, "p2p": True}},
        {"demo_horizon": 80, "ok_by_kind": {"synth": True}},
        {"demo_horizon": None, "ok_by_kind": {"pinned": True}},
    ]
    assert worker.max_ok_horizon(table, worker.HORIZON_KINDS["steering"]) == 80
    assert worker.max_ok_horizon(table, worker.HORIZON_KINDS["pinned"]) == 65
    assert worker.max_ok_horizon(table[1:2], ("synth",)) == 0


def test_tail_latency_keeps_ten_samples_beyond():
    value, percentile, beyond = worker.tail_latency(list(range(100)))
    assert (value, percentile, beyond) == (89, 90.0, 10)


def test_tracer_wraps_imported_names_and_restores_them():
    import maxent_steer.cli  # noqa: F401
    from maxent_steer import linalg, pinned, steering

    original = linalg.solve_linear
    tracer = Tracer()
    with tracer.installed():
        assert steering.solve_linear is pinned.solve_linear is linalg.solve_linear
        assert steering.solve_linear is not original
        steering.solve_linear(np.eye(2, dtype=np.longdouble), np.ones(2, dtype=np.longdouble))
    assert steering.solve_linear is original and pinned.solve_linear is original
    assert tracer.calls["linalg.solve_linear"] == 1
    assert tracer.counters["linalg.solve_linear.calls_ext"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, "--workload", "synth", "--seed", "1", "--seconds", "1", "--trace", "0",
                      timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
