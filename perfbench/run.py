"""robustlift benchmark: one workload, one seed, every metric by name.

Run from the repository root:

    python3 perfbench/run.py --workload certify-shipped --seed 1 --seconds 24 --trace 0

A single closed-loop caller runs the workload in PROCESSES fresh worker
processes, one after another, each measuring its own set-up and then
seconds / PROCESSES of ops.  BLAS/OpenMP are pinned to one thread, and
each worker binds itself to one CPU.  With --trace 0 the end-to-end
metrics are printed; with --trace 1 the per-layer metrics from the
traced ops.  A window-solve run also starts the frontier probe once,
outside the op timings.  The last line of standard
output is the result as JSON; the full record, host included, is written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("certify-shipped", "window-solve", "surrogate-design")
PROCESSES = 3
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKER_TIMEOUT_S = 120.0
PROBE_ADDRESS_LIMIT_MB = 1536
PROBE_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# gated metrics; "ref" is one run of the worker's reference computation,
# and setup_s is set-up time at worker.REF_NOMINAL_S per reference run
END_TO_END = {
    "setup_s": "s",
    "op_ref_p50": "ref",
    "peak_rss_mb": "MB",
}
# printed and recorded beside them; too noisy on a shared host to gate
UNGATED = {
    "setup_wall_s": "s",
    "op_ref_tail": "ref",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ref_s_p50": "s",
}

# per-layer metric -> unit; "per op" unless the README says otherwise
PER_LAYER = {
    "polyapprox.design_s": "s", "polyapprox.verify_s": "s",
    "polyapprox.verify_calls": "count", "polyapprox.grid_points": "count",
    "polyapprox.accept_ratio": "ratio", "polyapprox.self_s": "s",
    "polyapprox.errors": "count",
    "dynamics.expand_s": "s", "dynamics.fft_grid_points": "count",
    "dynamics.terms_kept": "count", "dynamics.fold_s": "s",
    "dynamics.self_s": "s", "dynamics.errors": "count",
    "instances.expansion_calls": "count", "instances.expansion_s": "s",
    "instances.self_s": "s", "instances.errors": "count",
    "carleman.lift_s": "s", "carleman.lift_calls": "count",
    "carleman.block_dim": "count", "carleman.b_nnz": "count",
    "carleman.bounds_s": "s", "carleman.bounds_calls": "count",
    "carleman.cutoff_n": "count", "carleman.self_s": "s",
    "carleman.errors": "count",
    "horizon.assemble_s": "s", "horizon.stacked_nnz": "count",
    "horizon.stacked_mb_computed": "MB", "horizon.rss_rise_mb": "MB",
    "horizon.condition_s": "s", "horizon.svd_dim": "count",
    "horizon.row_access_s": "s", "horizon.row_access_calls": "count",
    "horizon.self_s": "s", "horizon.errors": "count",
    "solver.direct_s": "s", "solver.forward_s": "s",
    "solver.rss_rise_mb": "MB", "solver.self_s": "s",
    "solver.errors": "count",
    "readout.certificate_s": "s", "readout.self_s": "s",
    "readout.errors": "count",
    "bench.self_s": "s", "trace.op_s_p50": "s", "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
# taken from each process's first (warm-up) op, where the peak can rise
WARMUP_METRICS = ("horizon.rss_rise_mb", "solver.rss_rise_mb")


def host_record() -> dict:
    cpu_model = "unknown"
    mem_total_kb = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "mem_total_mb": mem_total_kb / 1024.0 if mem_total_kb else None,
        "platform": platform.platform(),
        "pinned_env": PINNED_ENV,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def _last_json_line(text: str):
    for line in reversed(text.strip().splitlines()):
        try:
            return json.loads(line)
        except ValueError:
            continue
    return None


def run_worker(args, stream: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--stream", str(stream)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    result = _last_json_line(proc.stdout) if proc.returncode == 0 else None
    if result is None:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {stream} exited with {proc.returncode} "
                           "and no result")
    return result


def _limit_address_space() -> None:
    limit = PROBE_ADDRESS_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_probe(seed: int) -> dict:
    """The (d=4, N=5, T=50) chain in a child with an address-space limit."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--seed", str(seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S,
                              preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        record = {"outcome": "timeout", "detail": f"over {PROBE_TIMEOUT_S} s"}
    else:
        record = _last_json_line(proc.stdout) if proc.returncode == 0 else None
        if record is None:
            detail = proc.stderr.strip().splitlines()[-1:] or [""]
            name = (f"signal {-proc.returncode}" if proc.returncode < 0
                    else f"exit {proc.returncode}")
            record = {"outcome": name, "detail": detail[0]}
    record["wall_s"] = time.perf_counter() - t0
    record["address_limit_mb"] = PROBE_ADDRESS_LIMIT_MB
    record["failed"] = record["outcome"] != "ok"
    return record


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and its value.

    With fewer than 2 * TAIL_BEYOND samples that percentile would sit below
    the median; the median is returned instead.
    """
    if len(values) < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(values)
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND  # samples at or below the percentile
    return 100.0 * k / len(ordered), ordered[k - 1]


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    times = [t for r in runs for t in r["times"]]
    costs = [c for r in runs for c in r["costs"]]
    refs = [t for r in runs for t in r["ref_times"]]
    wall = sum(r["wall_s"] for r in runs)
    pct, tail_time = tail(times)
    pct_cost, tail_cost = tail(costs)
    n = len(times)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in runs),
        "op_ref_p50": statistics.median(costs),
        "op_ref_tail": tail_cost,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ops_per_s": n / wall,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_time,
        "ref_s_p50": statistics.median(refs),
    }
    notes = {
        "setup_s": f"median of {len(runs)} process starts, each over "
                   "the median reference run of its process",
        "setup_wall_s": f"median of {len(runs)} process starts",
        "op_ref_p50": f"median of {n} ops, each over its nearby references",
        "op_ref_tail": f"p{pct_cost:.1f} of {n} ops",
        "peak_rss_mb": f"median ru_maxrss of {len(runs)} processes",
        "ops_per_s": f"{n} correct ops in {wall:.2f} s of timed wall",
        "op_s_p50": f"median of {n} ops",
        "op_s_tail": f"p{pct:.1f} of {n} ops",
        "ref_s_p50": f"median of {len(refs)} reference runs",
    }
    return metrics, notes


def per_layer(runs: list[dict]) -> dict:
    ops = sum(r["traced_ops"] for r in runs)
    totals: dict[str, float] = {}
    for r in runs:
        for key, value in r["layers"].items():
            totals[key] = totals.get(key, 0.0) + value
    metrics = {name: totals.get(name, 0.0) / max(ops, 1) for name in PER_LAYER}
    passed = totals.get("polyapprox.verify_passed", 0.0)
    calls = totals.get("polyapprox.verify_calls", 0.0)
    metrics["polyapprox.accept_ratio"] = passed / calls if calls else 0.0
    for name in WARMUP_METRICS:
        metrics[name] = statistics.median(
            r["warmup_layers"].get(name, 0.0) for r in runs)
    traced = [t for r in runs for t in r["traced_times"]]
    untraced = [t for r in runs for t in r["times"]]
    metrics["trace.op_s_p50"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "robustlift" / "__init__.py").is_file():
        print(f"no robustlift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = host_record()
    try:
        runs = [run_worker(args, stream, args.seconds / PROCESSES)
                for stream in range(PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if not any(r["times"] for r in runs) or (
            args.trace and not any(r["traced_times"] for r in runs)):
        reasons = [reason for r in runs for reason in r["failures"]]
        print(f"benchmark aborted: no correct op to time: {reasons}",
              file=sys.stderr)
        return 1
    probe = run_probe(args.seed) if args.workload == "window-solve" else None

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    e2e, notes = end_to_end(runs)
    probe_failed = int(bool(probe and probe["failed"]))
    fail_ratio = (failed + probe_failed) / (attempted + int(probe is not None))

    versions = runs[0]["versions"]
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"mem_total_mb={host['mem_total_mb']:.0f} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    print(f"workload {args.workload} seed {args.seed}: closed loop, one caller, "
          f"{PROCESSES} processes x {args.seconds / PROCESSES:g} s, "
          f"trace={args.trace}")
    for name, unit in {**END_TO_END, **UNGATED}.items():
        print(f"  {name:<12} {e2e[name]:.6g} {unit}  ({notes[name]})")
    probe_note = ""
    if probe is not None:
        probe_note = (f"; frontier probe (d=4, N=5, T=50) "
                      f"{'failed' if probe['failed'] else 'ok'}")
    print(f"  {'fail_ratio':<12} {fail_ratio:.6g} ratio  "
          f"({failed + probe_failed} of {attempted + int(probe is not None)} "
          f"ops failed{probe_note})")
    if probe is not None:
        print(f"  frontier probe: {probe['outcome']} {probe['detail']} "
              f"(address limit {PROBE_ADDRESS_LIMIT_MB} MB, "
              f"{probe['wall_s']:.1f} s, excluded from op timings)")
    for r in runs:
        for reason in r["failures"]:
            print(f"  failure (stream {r['stream']}): {reason}")

    if args.trace:
        metrics = per_layer(runs)
        units = PER_LAYER
        for name, unit in units.items():
            print(f"  {name:<28} {metrics[name]:.6g} {unit}")
    else:
        metrics, units = e2e, END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "versions": versions,
        "processes": PROCESSES, "attempted": attempted, "failed": failed,
        "fail_ratio": fail_ratio, "end_to_end": e2e, "notes": notes,
        "probe": probe, "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs],
        "spans": [r["spans"] for r in runs],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh)
    print(f"record: {out.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
