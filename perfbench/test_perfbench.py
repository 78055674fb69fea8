"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

(a) two traced ops with one seed give identical count metrics;
(b) the layer wrappers leave every op's output bit-identical;
(c) without the package sources the launcher fails and prints no result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = [name for name, unit in run.PER_LAYER.items() if unit == "count"]


def _traced_op(name: str, seed: int):
    """One op of a fresh workload with the wrappers installed."""
    workload = workloads.WORKLOADS[name](seed, 0)  # imports the layers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        out = tracer.op_span(workload.op, tracer)
    finally:
        tracer.uninstall()
    return out, tracer


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat(name):
    summaries = []
    for _ in range(2):
        _, tracer = _traced_op(name, 5)
        summaries.append(tracing.summarize_op(tracer.spans, tracer.counts))
    first, second = summaries
    for key in COUNT_METRICS:
        assert first.get(key, 0.0) == second.get(key, 0.0), key
    assert any(first.get(key) for key in COUNT_METRICS)


def _fingerprint(name: str, out) -> list:
    if name == "certify-shipped":
        return [cert.to_json() for cert in out]
    if name == "window-solve":
        return [out["fwd"].stacked.tobytes(), out["sol"].stacked.tobytes(),
                out["step"].b_matrix.data.tobytes(), out["tail"].gamma_n,
                out["sparsity"].s_row]
    terms = out["coeffs"].terms
    return [out["sign"].odd_coeffs.tobytes(), out["clip"].odd_coeffs.tobytes(),
            sorted((ell, beta, vec.tobytes())
                   for ell, block in terms.items() for beta, vec in block.items())]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrappers_leave_outputs_bit_identical(name):
    plain = workloads.WORKLOADS[name](3, 0).op()
    traced, tracer = _traced_op(name, 3)
    assert tracer.spans[0][3] == "bench.op" and len(tracer.spans) > 1
    assert _fingerprint(name, traced) == _fingerprint(name, plain)
    from robustlift import horizon, readout
    assert not hasattr(readout.run_pipeline_certificate, "__wrapped__")
    assert not hasattr(horizon.delta_dim, "__wrapped__")


def test_launcher_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-shipped",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
