"""Outside-in layer spans for the robustlift chain.

The tracer wraps the public functions of each layer module and rebinds
every module attribute of the loaded ``robustlift`` package that refers to
them, so calls between layers go through the wrappers.  Nothing in the
package source changes, and `uninstall` puts the original functions back.

A span is ``[op_id, span_id, parent_id, name, start, end]``; the root span
of an op is opened by the benchmark itself (name ``bench.op``).  Counts
are recorded by hooks at the same boundaries, from the arguments and
results of the wrapped call.  Every call is synchronous on one thread, so
spans nest and a layer's self time is its duration minus its children's.
"""

from __future__ import annotations

import math
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("polyapprox", "dynamics", "instances", "carleman", "horizon",
          "solver", "readout")

# span name -> group whose outermost spans make a duration metric
GROUPS = {
    "polyapprox.design_sign_poly": "polyapprox.design_s",
    "polyapprox.design_clip_poly": "polyapprox.design_s",
    "polyapprox.verify_poly_spec": "polyapprox.verify_s",
    "dynamics.expand_polynomial_map": "dynamics.expand_s",
    "dynamics.structural_step_polys": "dynamics.fold_s",
    "dynamics.recentre_polys": "dynamics.fold_s",
    "instances.CertifyInstance.build_expansion": "instances.expansion_s",
    "instances.FoldedInstance.build_expansion": "instances.expansion_s",
    "carleman.build_lifted_step": "carleman.lift_s",
    "carleman.majorant_and_contractivity": "carleman.bounds_s",
    "carleman.tail_constant_and_cutoff": "carleman.bounds_s",
    "carleman.design_cutoff": "carleman.bounds_s",
    "carleman.lift_lipschitz": "carleman.bounds_s",
    "horizon.assemble_horizon": "horizon.assemble_s",
    "horizon.condition_bounds": "horizon.condition_s",
    "horizon.row_access": "horizon.row_access_s",
    "solver.solve_linear_system": "solver.direct_s",
    "solver.solve_forward": "solver.forward_s",
    "readout.run_pipeline_certificate": "readout.certificate_s",
}

# methods of the instance classes that the chain calls through objects
INSTANCE_METHODS = {
    "CertifyInstance": ("build_expansion", "exact_states"),
    "FoldedInstance": ("build_expansion", "design_polys", "exact_states",
                       "folded_states"),
}

# spans whose peak-RSS rise is recorded
RSS_SPANS = {
    "horizon.assemble_horizon": "horizon.rss_rise_mb",
    "solver.solve_linear_system": "solver.rss_rise_mb",
    "solver.solve_forward": "solver.rss_rise_mb",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verify_grid_points(args, kwargs) -> int:
    """Points verify_poly_spec evaluates, from its checks and density."""
    checks = args[1] if len(args) > 1 else kwargs["checks"]
    density = args[2] if len(args) > 2 else kwargs.get("grid_density", 1e4)
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "auto")
    if mode == "auto":
        mode = "critical" if min(c.bound for c in checks) < 1e-5 else "grid"
    total = 0
    for check in checks:
        for a, b in check.intervals:
            if mode == "grid":
                total += max(2, int(math.ceil((b - a) * density)) + 1)
            else:
                total += 259  # guard grid plus both endpoints
    return total


def _stored_csr(system):
    """Stacked matrices the system object holds, without building any."""
    fields = getattr(system, "__dict__", {})
    return [m for m in (fields.get("matrix"), fields.get("matrix_normalized"))
            if m is not None and hasattr(m, "indptr")]


def _hook_verify(counts, args, kwargs, result):
    counts["polyapprox.verify_calls"] += 1
    counts["polyapprox.verify_passed"] += bool(result.passed)
    counts["polyapprox.grid_points"] += _verify_grid_points(args, kwargs)


def _hook_expand(counts, args, kwargs, result):
    d = args[1] if len(args) > 1 else kwargs["d"]
    d_max = args[2] if len(args) > 2 else kwargs["d_max"]
    counts["dynamics.fft_grid_points"] += (d_max + 1) ** d
    counts["dynamics.terms_kept"] += sum(len(b) for b in result.terms.values())


def _hook_expansion(counts, args, kwargs, result):
    counts["instances.expansion_calls"] += 1


def _hook_lift(counts, args, kwargs, result):
    counts["carleman.lift_calls"] += 1
    counts["carleman.block_dim"] += result.dim
    counts["carleman.b_nnz"] += result.b_matrix.nnz


def _hook_bounds(counts, args, kwargs, result):
    counts["carleman.bounds_calls"] += 1


def _hook_assemble(counts, args, kwargs, result):
    stored = _stored_csr(result)
    if stored:
        nnz = stored[0].nnz
    else:
        nnz = result.dim + sum(s.b_matrix.nnz for s in result.steps)
    counts["horizon.stacked_nnz"] += nnz
    counts["horizon.stacked_mb_computed"] += sum(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        for m in stored) / 2.0**20


def _hook_condition(counts, args, kwargs, result):
    if result.measured_kappa is not None:
        system = args[2] if len(args) > 2 else kwargs["system"]
        counts["horizon.svd_dim"] += system.dim


def _hook_row_access(counts, args, kwargs, result):
    counts["horizon.row_access_calls"] += 1


HOOKS = {
    "polyapprox.verify_poly_spec": _hook_verify,
    "dynamics.expand_polynomial_map": _hook_expand,
    "instances.CertifyInstance.build_expansion": _hook_expansion,
    "instances.FoldedInstance.build_expansion": _hook_expansion,
    "carleman.build_lifted_step": _hook_lift,
    "carleman.majorant_and_contractivity": _hook_bounds,
    "carleman.tail_constant_and_cutoff": _hook_bounds,
    "carleman.design_cutoff": _hook_bounds,
    "carleman.lift_lipschitz": _hook_bounds,
    "horizon.assemble_horizon": _hook_assemble,
    "horizon.condition_bounds": _hook_condition,
    "horizon.row_access": _hook_row_access,
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [self._op_id, len(self.spans), parent, name, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack.pop()

    def op_span(self, fn, *args):
        """Run the benchmark's op under the root span ``bench.op``."""
        rec = self._open("bench.op")
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        rss_metric = RSS_SPANS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rss0 = peak_rss_mb() if rss_metric else 0.0
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer._close(rec)
            if rss_metric:
                tracer.counts[rss_metric] += peak_rss_mb() - rss0
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every package reference to a layer function or method."""
        if self._patches:
            return
        package = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "robustlift"
                                         or key.startswith("robustlift."))]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"robustlift.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in package:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        instances = sys.modules["robustlift.instances"]
        for cls_name, methods in INSTANCE_METHODS.items():
            cls = getattr(instances, cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    continue
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"instances.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []


def summarize_op(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer self times, group durations and counts of one op."""
    out: dict[str, float] = defaultdict(float, counts)
    children = defaultdict(float)
    by_id = {rec[1]: rec for rec in spans}
    for rec in spans:
        if rec[2] >= 0:
            children[rec[2]] += rec[5] - rec[4]
    for rec in spans:
        name = rec[3]
        duration = rec[5] - rec[4]
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += duration - children[rec[1]]
        group = GROUPS.get(name)
        if group is None:
            continue
        parent = rec[2]
        nested = False
        while parent >= 0:
            anc = by_id[parent]
            if GROUPS.get(anc[3]) == group:
                nested = True
                break
            parent = anc[2]
        if not nested:
            out[group] += duration
    return out
