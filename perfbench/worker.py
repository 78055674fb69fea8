"""One workload process: import, set up, warm up, then a timed closed loop.

Started by run.py with BLAS/OpenMP pinned to one thread; it binds itself
to one CPU.  `--t-spawn` is the launcher's CLOCK_MONOTONIC reading just
before it started this process, so set-up time covers interpreter start
and imports.  The last line of standard output is one JSON object for
the launcher.

After each op the worker has a child process run a fixed reference
computation (reference.py) for about 5 % of the op's time.  On a shared
host whose speed drifts by tens of percent within minutes, an op's time
divided by the median of the reference runs within REF_WINDOW_S of it
(its cost in "ref" units) moves far less than its wall time does.
Set-up time is normalized the same way, by the median reference run of
the process, and reported in seconds at REF_NOMINAL_S per reference run.

With `--trace 1` every other timed op runs with the layer wrappers
installed; the untraced ops in between give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_KEPT = 2  # traced ops per process whose raw spans are written out
REF_WINDOW_S = 1.5  # reference runs this close to an op normalize it
REF_NOMINAL_S = 0.018  # seconds per reference run that setup_s assumes


class Reference:
    """reference.py in a child process, and the log of its runs."""

    def __init__(self):
        # started after set-up, so its imports are not part of setup_s
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.log: list[tuple[float, float]] = []  # (end time, seconds)

    def gap(self, op_seconds: float) -> None:
        """Have the child run the reference after an op of op_seconds."""
        self._proc.stdin.write(f"{op_seconds!r}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference process exited")
        self.log.extend(tuple(run) for run in json.loads(line))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def cost(self, start: float, end: float) -> float:
        """Op time over the median reference run near [start, end]."""
        near = [sec for t, sec in self.log
                if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        return (end - start) / statistics.median(near)


def import_package():
    sys.path[:0] = [str(SRC), str(HERE)]
    import robustlift

    where = Path(robustlift.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"robustlift imported from {where}, not from {SRC}")


def run_op(workload, tracer=None):
    """One op; returns (output, reason it raised or '')."""
    try:
        if tracer is None:
            out = workload.op()
        else:
            out = tracer.op_span(workload.op, tracer)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return None, f"{type(exc).__name__}: {exc}"
    return out, ""


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 stream: int, t_spawn: float) -> dict:
    import numpy
    import scipy
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed, stream)
    tracer = tracing.Tracer() if trace else None
    failures: list[str] = []

    # warm-up op: traced in a traced run so the peak-RSS rises are taken
    # in a fresh process, where the first op sets the peak
    warmup = {}
    if tracer is not None:
        tracer.install()
        tracer.begin_op(-1)
    out, reason = run_op(workload, tracer)
    if tracer is not None:
        tracer.uninstall()
        warmup = dict(tracing.summarize_op(tracer.spans, tracer.counts))
    reason = reason or workload.check(out)
    attempted, failed = 1, int(bool(reason))
    if reason:
        failures.append(f"warm-up: {reason}")
    setup_wall_s = time.monotonic() - t_spawn
    del out
    rss_after_warmup_mb = tracing.peak_rss_mb()

    times: list[float] = []
    spans_of_ops: list[tuple[float, float]] = []
    traced_times: list[float] = []
    layers: dict[str, float] = defaultdict(float)
    spans: list[list] = []
    traced_ops = 0
    op_id = 0
    reference = Reference()
    try:
        reference.gap(0.0)  # waits until the child has started
        ref_spent = 0.0  # time in reference.gap inside the loop, not op time
        start = time.perf_counter()
        while time.perf_counter() - start - ref_spent < seconds:
            traced = tracer is not None and op_id % 2 == 0
            if traced:
                tracer.install()
                tracer.begin_op(op_id)
            t0 = time.perf_counter()
            out, reason = run_op(workload, tracer if traced else None)
            t1 = time.perf_counter()
            elapsed = t1 - t0
            if traced:
                tracer.uninstall()
                summary = tracing.summarize_op(tracer.spans, tracer.counts)
                summary["trace.unaccounted_s"] = elapsed - sum(
                    v for k, v in summary.items() if k.endswith(".self_s"))
                for key, value in summary.items():
                    layers[key] += value
                if traced_ops < SPANS_KEPT:
                    spans.extend(tracer.spans)
                traced_ops += 1
            reason = reason or workload.check(out)
            del out
            t2 = time.perf_counter()
            reference.gap(elapsed)
            ref_spent += time.perf_counter() - t2
            attempted += 1
            if reason:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"op {op_id}: {reason}")
            elif traced:
                traced_times.append(elapsed)
            else:
                times.append(elapsed)
                spans_of_ops.append((t0, t1))
            op_id += 1
        wall = time.perf_counter() - start - ref_spent
    finally:
        reference.close()
    ref_times = [sec for _, sec in reference.log]

    return {
        "workload": name,
        "seed": seed,
        "stream": stream,
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s / statistics.median(ref_times) * REF_NOMINAL_S,
        "wall_s": wall,
        "times": times,
        "costs": [reference.cost(t0, t1) for t0, t1 in spans_of_ops],
        "ref_times": ref_times,
        "traced_times": traced_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": tracing.peak_rss_mb(),
        "rss_after_warmup_mb": rss_after_warmup_mb,
        "traced_ops": traced_ops,
        "layers": dict(layers),
        "warmup_layers": warmup,
        "spans": spans,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    args = parser.parse_args()
    # one CPU for this process and its reference child (which inherits the
    # mask), so that ops and reference runs meet the same contention
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_package()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.stream, args.t_spawn)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
