"""Benchmark of the maxent_steer library and command line.

    python3 bench/run.py --workload synth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # synth, verify and cli

Each workload runs in a fresh worker process (``bench/worker.py``) built on the
checkout's ``src/``. With ``--trace 0`` the run measures the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics of a
traced run instead. A human-readable summary goes to standard output, a full
record (environment, provenance, input hash, per-op results, the horizon
robustness table, spans) to ``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``,
and the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402

WORKLOADS = ("synth", "verify", "cli")
RUN_LIMIT_S = 170.0  # a single-workload run must end within 180 s
SETUP_REPEATS = 3  # setup_s is the median of this many fresh worker set-ups
OUT_DIR = ROOT / ".bench_out"


def spawn_worker(args: list, budget_s: float) -> dict:
    """Run one worker in its own session, so that on timeout its command-line children die with it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args, "--budget-s", f"{max(budget_s - 15, 5):.1f}"],
        cwd=ROOT, env=envinfo.single_threaded_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(budget_s, 10))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace) -> dict:
    start = time.perf_counter()
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(spawn_worker(common + ["--setup-only"], 60.0)["setup_s"])
    result = spawn_worker(common, RUN_LIMIT_S - (time.perf_counter() - start))
    result["setup_samples_s"] = setups + result["setup_samples_s"]
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(result["setup_samples_s"])
    return result


def result_line(result, spec, trace) -> dict:
    """The final JSON line: every end-to-end (or per-layer) metric of BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    records = result["records"] + [result["warmup"]]
    failed = sum(not r["ok"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _fmt(value):
    return "-" if value is None else f"{value:.3g}"


def summary(name, seed, trace, result, line, spec) -> list:
    notes = result["notes"]
    env = result["env"]
    out = [f"== {name}: seed {seed}, trace {'on' if trace else 'off'}, inputs sha256 {result['input_sha256'][:16]} =="]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        for key, value in sorted(result["metrics"].items()):
            out.append(f"  {key:42s} {value:14.6g} {units.get(key, '')}")
        out.append(f"  ({notes['cycle_pairs']} traced/untraced cycle pairs)")
    else:
        m = result["metrics"]
        out += [
            f"  ops_per_s    {m['ops_per_s']:12.4f} 1/s  (ops passing their check per wall-clock second,"
            f" {notes['cycles']} cycles in {notes['elapsed_s']:.1f} s)",
            f"  lat_p50_ms   {m['lat_p50_ms']:12.4f} ms   (median of {notes['latency_samples']} ops)",
            f"  lat_tail_ms  {m['lat_tail_ms']:12.4f} ms   (p{notes['tail_percentile']:.1f},"
            f" {notes['tail_samples_beyond']} samples beyond, of {notes['latency_samples']})",
            f"  fail_frac    {m['fail_frac']:12.4f} 1    ({line['failed']} failed of {line['attempted']}"
            " attempted, warm-up included)",
            f"  setup_s      {m['setup_s']:12.4f} s    (median of {len(result['setup_samples_s'])} set-ups)",
            f"  peak_rss_mb  {m['peak_rss_mb']:12.4f} MB   ({'peak over child processes' if name == 'cli' else 'worker process'})",
        ]
        out.append(f"  singular input draws discarded: {sum(result['input_redraws'].values())}")
        if notes["cut_by_deadline"]:
            out.append("  WARNING: loop cut by the run deadline before its minimum cycle count")
        out.append(f"  RuntimeWarnings caught: {notes['runtime_warnings']}")
    failures = sorted({f"{r['kind']}:{r['label']}: {r['reason']}" for r in result["records"] if not r["ok"]})
    out += [f"  FAILED {f}" for f in failures[:10]]
    if result["slice"]:
        bad = sum(row["status"] != "passed" for row in result["slice"])
        out.append(f"  robustness slice (known defects, outside the timed loop):"
                   f" {bad} of {len(result['slice'])} failed")
        for row in result["slice"]:
            out.append(f"    {row['problem']:22s} {row['status']:8s} tcov {_fmt(row['tcov_err']):>8s}"
                       f"  bridge {_fmt(row['bridge_res']):>8s}  oracle {_fmt(row['oracle_gap']):>8s}")
    out.append(f"  env: calib_ms {result['calib_ms'][0]:.3f} -> {result['calib_ms'][1]:.3f}, nproc {env['nproc']},"
               f" python {env['python']}, numpy {env['numpy']}, click {env['click']}, BLAS {env['blas']}"
               f" (threads {env['threads']['OPENBLAS_NUM_THREADS']}), longdouble {env['longdouble_digits']} digits")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "maxent_steer" / "__init__.py").is_file():
        print(f"error: no maxent_steer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    meta = {"provenance": envinfo.provenance(ROOT),
            "args": {"seed": args.seed, "seconds": seconds, "trace": args.trace}}

    lines = {}
    for name in (WORKLOADS if args.workload == "all" else (args.workload,)):
        result = run_workload(name, args.seed, seconds, args.trace)
        line = result_line(result, spec, args.trace)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        record = {"workload": name, **meta, "result_line": line, **result}
        (OUT_DIR / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=float))
        print("\n".join(summary(name, args.seed, args.trace, result, line, spec)), flush=True)
        lines[name] = line
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
