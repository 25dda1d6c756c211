"""One workload in a fresh process: set up, run the closed loop or the traced run, print JSON.

Started by ``run.py``; the last line of standard output is the result. Set-up
time counts from the first line of this file: imports, input generation and
one untimed warm-up operation.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402

for _name in envinfo.THREAD_VARS:
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402
from workloads import Outcome  # noqa: E402

CLI_COMMANDS = ("validate", "solve", "steer", "pin", "bridge-check", "ellipse")
# op kinds whose demo-horizon results define each layer's max_ok_horizon_demo
HORIZON_KINDS = {"steering": ("synth", "bridge"), "pinned": ("pinned", "p2p")}


def run_op(op, tracer=None) -> dict:
    """Time ``op.run`` (inside a span when traced), then judge the result with ``op.check``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span(op.span):
                    result = op.run()
        except Exception as exc:  # any raise is a failed op; its type and message are recorded
            error = exc
        latency = time.perf_counter() - start
    if error is not None:
        outcome = Outcome(False, {}, f"{type(error).__name__}: {error}")
    else:
        try:
            outcome = op.check(result)
        except Exception as exc:  # a result the oracle cannot read is a failed op too
            outcome = Outcome(False, {}, f"check raised {type(exc).__name__}: {exc}")
    return {
        "kind": op.kind,
        "label": op.label,
        "latency_s": latency,
        "ok": bool(outcome.ok),
        "raised": error is not None,
        "reason": outcome.reason,
        "values": outcome.values,
        "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
    }


def run_cycle(ops, tracer=None):
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = f"{op.kind}:{op.label}"
        records.append(run_op(op, tracer))
    return records


def run_slice(rows, tracer=None):
    """The fixed long-horizon problems, each row judged like any op and tabulated per N."""
    table, records = [], []
    for label, horizon, ops in rows:
        recs = run_cycle(ops, tracer)
        records += recs
        refused = any(r["raised"] or r["values"].get("bridge_skipped") for r in recs)
        status = "passed" if all(r["ok"] for r in recs) else ("refused" if refused else "wrong")
        merged = {k: v for r in recs for k, v in r["values"].items()}
        table.append({
            "problem": label,
            "demo_horizon": horizon,
            "status": status,
            "ok_by_kind": {kind: all(r["ok"] for r in recs if r["kind"] == kind)
                           for kind in {r["kind"] for r in recs}},
            "tcov_err": merged.get("tcov_err"),
            "bridge_res": merged.get("bridge_res"),
            "oracle_gap": merged.get("oracle_gap"),
            "reasons": [r["reason"] for r in recs if not r["ok"]],
            "runtime_warnings": sum(r["runtime_warnings"] for r in recs),
        })
    return table, records


def max_ok_horizon(table, kinds) -> int:
    """Largest demo horizon at which every op of ``kinds`` passed (0 when none did)."""
    passed = []
    for row in table:
        results = [ok for kind, ok in row["ok_by_kind"].items() if kind in kinds]
        if row["demo_horizon"] is not None and results and all(results):
            passed.append(row["demo_horizon"])
    return max(passed, default=0)


def tail_latency(latencies):
    """Latency at the highest percentile that still has at least 10 samples beyond it."""
    xs = sorted(latencies)
    i = max(0, len(xs) - 11)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def timed_run(wl, seconds, deadline) -> dict:
    """Closed loop, one client: whole cycles until ``seconds`` and ``wl.min_cycles`` are both reached."""
    records, cycles = [], 0
    start = time.perf_counter()
    while True:
        records += run_cycle(wl.ops)
        cycles += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and cycles >= wl.min_cycles) or time.perf_counter() >= deadline:
            break
    rss = peak_rss_mb(children=wl.name == "cli")
    latencies = [r["latency_s"] * 1e3 for r in records]
    passed = sum(r["ok"] for r in records)
    tail, percentile, beyond = tail_latency(latencies)
    slice_table, slice_records = run_slice(wl.slice_rows)
    return {
        "metrics": {
            "ops_per_s": passed / elapsed,
            "lat_p50_ms": statistics.median(latencies),
            "lat_tail_ms": tail,
            "fail_frac": (len(records) - passed) / len(records),
            "peak_rss_mb": rss,
        },
        "notes": {
            "elapsed_s": elapsed,
            "cycles": cycles,
            "cut_by_deadline": cycles < wl.min_cycles or elapsed < seconds,
            "tail_percentile": percentile,
            "tail_samples_beyond": beyond,
            "latency_samples": len(latencies),
            "runtime_warnings": sum(r["runtime_warnings"] for r in records + slice_records),
        },
        "records": records,
        "slice": slice_table,
    }


def cli_startup_ms(repeats=5) -> float:
    env = workloads.cli_env(ROOT)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-m", "maxent_steer.cli", "--help"], cwd=ROOT, env=env,
                       capture_output=True, timeout=60, check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def layer_metrics(tracer, recorded, slice_table, overhead, startup_ms) -> dict:
    def worst(key):
        return max((r["values"][key] for r in recorded if key in r["values"]), default=0.0)

    metrics = {"cli.startup_ms": startup_ms}
    metrics.update({f"cli.{c}.ms": tracer.ms(f"cli.{c}") for c in CLI_COMMANDS})
    for layer, names in TRACED.items():
        metrics.update({f"{layer}.{fn}.ms": tracer.ms(f"{layer}.{fn}") for fn in names})
    for key in ("specio.csv_rows", "specio.csv_bytes", "simulate.sample_ensemble.paths",
                "system.validate_assumptions.refused", "pinned.moments_bytes",
                "linalg.solve_linear.calls_ext", "linalg.solve_linear.calls_f64",
                "linalg.sym_eig.calls_ext", "linalg.sym_eig.calls_f64"):
        metrics[key] = tracer.counters[key]
    metrics["system.validate_assumptions.calls"] = tracer.calls["system.validate_assumptions"]
    metrics["linalg.gaussian_condition.calls"] = tracer.calls["linalg.gaussian_condition"]
    metrics["system.warnings"] = sum(r["runtime_warnings"] for r in recorded)
    metrics["steering.tcov_err_max"] = worst("tcov_err")
    metrics["lqr.gain_gap_max"] = worst("gain_gap")
    metrics["pinned.bridge_res_max"] = worst("bridge_res")
    metrics["pinned.bridge_skipped"] = sum(r["values"].get("bridge_skipped", 0) for r in recorded)
    metrics["pinned.oracle_gap_max"] = worst("oracle_gap")
    for layer, kinds in HORIZON_KINDS.items():
        metrics[f"{layer}.max_ok_horizon_demo"] = max_ok_horizon(slice_table, kinds)
    metrics["trace.overhead_frac"] = overhead
    return metrics


def traced_run(wl, seed, seconds, workdir, deadline) -> dict:
    """Fixed recorded work (coverage pass, slice, one traced cycle), then traced/untraced
    cycle pairs until ``seconds`` for the overhead ratio.

    Only ``verify``'s slice runs the demo through the pinned layer, so the other
    workloads add ``verify``'s demo rows here: every traced run then measures
    both demo horizons of ``HORIZON_KINDS``.
    """
    import maxent_steer.cli  # noqa: F401  (imported before install so its namespace is wrapped too)

    coverage = workloads.coverage_ops(seed, workdir / "coverage")
    slice_rows = wl.slice_rows if wl.name == "verify" else wl.slice_rows + workloads.verify_demo_rows()
    startup_ms = cli_startup_ms()
    tracer = Tracer()
    with tracer.installed():
        coverage_records = run_cycle(coverage, tracer)
        slice_table, slice_records = run_slice(slice_rows, tracer)
    cycle_records, traced_s, plain_s = [], [], []
    start = time.perf_counter()
    pair = 0
    while True:
        for traced in ((True, False) if pair % 2 == 0 else (False, True)):
            t = time.perf_counter()
            if traced:
                tracer.record = pair == 0
                with tracer.installed():
                    recs = run_cycle(wl.ops, tracer)
                traced_s.append(time.perf_counter() - t)
            else:
                recs = run_cycle(wl.ops)
                plain_s.append(time.perf_counter() - t)
            cycle_records += recs
            if traced and pair == 0:
                recorded = coverage_records + slice_records + recs
        pair += 1
        if time.perf_counter() - start >= seconds or time.perf_counter() >= deadline:
            break
    overhead = sum(traced_s) / sum(plain_s) - 1.0
    return {
        "metrics": layer_metrics(tracer, recorded, slice_table, overhead, startup_ms),
        "notes": {"cycle_pairs": pair, "traced_cycle_s": traced_s, "untraced_cycle_s": plain_s},
        "records": coverage_records + cycle_records,
        "slice": slice_table,
        "spans": tracer.span_records(),
    }


def measure(wl, seed, seconds, trace, workdir, deadline, warmup, setup_s) -> dict:
    """The timed (or traced) run, with calibration, environment and input provenance beside it."""
    calib_start = envinfo.calibrate()
    if trace:
        result = traced_run(wl, seed, seconds, workdir, deadline)
    else:
        result = timed_run(wl, seconds, deadline)
        result["metrics"]["setup_s"] = setup_s
    result.update({
        "setup_s": setup_s,
        "setup_samples_s": [setup_s],
        "warmup": warmup,
        "input_sha256": wl.input_sha256,
        "input_redraws": wl.input_redraws,
        "calib_ms": [calib_start, envinfo.calibrate()],
        "env": envinfo.environment(),
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget-s", type=float, default=150.0,
                        help="hard stop for the loop, counted from process start")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_out" / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, workdir, inprocess=bool(args.trace))
        warmup = run_op(wl.ops[0])
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(wl, args.seed, args.seconds, args.trace, workdir, T0 + args.budget_s, warmup, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
