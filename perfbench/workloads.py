"""The three workloads: inputs from a seed, one op each, and its oracle.

Every op calls the layers through their module attributes
(``readout.run_pipeline_certificate``, ...), so the tracer's rebinding
sees each call.  ``check`` compares an op's output with an oracle and
returns an empty string when it holds, or the reason it does not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

# criterion 01 tolerances: forward vs direct agreement and residuals
AGREE_TOL = 1e-10
RESIDUAL_TOL = 1e-12
# layout-independent certificate fields and designed coefficients
ORACLE_RTOL = 1e-9

# the shipped instances at their documented settings
SHIPPED = (
    ("saturated-toy", "certify_instance", 50, 0.05, "terminal"),
    ("folded-demo", "folded_demo_instance", 6, 0.3, "state"),
)

WINDOW = {"d": 3, "degree": 3, "n_levels": 5, "t_window": 50}
FRONTIER = {"d": 4, "degree": 3, "n_levels": 5, "t_window": 50}
EXPAND_DEGREES = (7, 15)  # odd surrogate degrees of the expanded fold
EXPAND_BOUND = 2 * 2 * 7 * 15  # q^2 * K_s * K_c for a quadratic gradient


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= ORACLE_RTOL * max(1.0, abs(a), abs(b))


def _close_vec(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= ORACLE_RTOL * scale


def load_oracle() -> dict:
    with open(ORACLE_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# certify-shipped


def certificate_fields(cert) -> dict:
    """The fields of a certificate that do not depend on the lift layout."""
    return {
        "passed": bool(cert.passed),
        "n_levels": int(cert.n_levels),
        "hypotheses": {k: bool(v["pass"]) for k, v in cert.hypotheses.items()},
        "verification": [[line.name, bool(line.ok)] for line in cert.verification],
        "budget": [[line.name, bool(line.ok)] for line in cert.budget.lines],
        "p_term": float(cert.terminal["p_term"]),
        "measured_error_normalized":
            float(cert.terminal["measured_error_normalized"]),
        "reconstructed_u":
            [float(x) for x in np.asarray(cert.terminal["reconstructed_u"])],
    }


def _fields_mismatch(got: dict, want: dict) -> str:
    for key in ("passed", "n_levels", "hypotheses", "verification", "budget"):
        if got[key] != want[key]:
            return f"{key}: {got[key]!r} != {want[key]!r}"
    for key in ("p_term", "measured_error_normalized"):
        if not _close(got[key], want[key]):
            return f"{key}: {got[key]!r} != {want[key]!r}"
    if not _close_vec(got["reconstructed_u"], want["reconstructed_u"]):
        return "reconstructed_u differs"
    return ""


class CertifyShipped:
    """Both shipped certificates; the seed picks the spot-checked rows."""

    name = "certify-shipped"

    def __init__(self, seed: int, stream: int):
        from robustlift import instances, readout
        self._instances, self._readout = instances, readout
        self._rng = np.random.default_rng([seed, stream])
        self._oracle = load_oracle()[self.name]

    def op(self, tracer=None):
        row_seed = int(self._rng.integers(2**31))
        certs = []
        for _, factory, t_window, eps_out, mode in SHIPPED:
            instance = getattr(self._instances, factory)(t_window)
            certs.append(self._readout.run_pipeline_certificate(
                instance, eps_out, mode=mode, seed=row_seed))
        if tracer is not None:
            tracer.counts["carleman.cutoff_n"] += sum(c.n_levels for c in certs)
        return certs

    def check(self, certs) -> str:
        for (label, *_), cert in zip(SHIPPED, certs):
            reason = _fields_mismatch(certificate_fields(cert), self._oracle[label])
            if reason:
                return f"{label}: {reason}"
        return ""


# ----------------------------------------------------------------------
# window-solve


def window_chain(coeffs, v0, n_levels: int, t_window: int):
    """majorant -> lift -> stack -> forward and direct solve -> bounds."""
    from robustlift import carleman, horizon, solver

    major = carleman.majorant_and_contractivity(coeffs, n_levels)
    step = carleman.build_lifted_step(coeffs, n_levels)
    y0 = carleman.lift_state(v0, n_levels)
    system = horizon.assemble_horizon([step] * t_window, y0, major.rho)
    fwd = solver.solve_forward(system)
    sol = solver.solve_linear_system(system)
    tail = carleman.tail_constant_and_cutoff(
        coeffs, n_levels, 0.3, t_window, major.rho, 1e-3, lam=1.5)
    sparsity = horizon.sparsity_bounds([coeffs.row_sparsities()], n_levels)
    return {"step": step, "fwd": fwd, "sol": sol, "tail": tail,
            "sparsity": sparsity, "y0": y0}


def check_window(out) -> str:
    fwd, sol = out["fwd"], out["sol"]
    gap = float(np.linalg.norm(fwd.stacked - sol.stacked))
    rel = gap / max(float(np.linalg.norm(fwd.stacked)), 1e-300)
    if not rel <= AGREE_TOL:
        return f"forward/direct disagree: rel={rel:.3e}"
    worst = max(fwd.residual, sol.residual)
    if not worst <= RESIDUAL_TOL:
        return f"residual {worst:.3e} above {RESIDUAL_TOL:g}"
    if not np.allclose(sol.block(0), out["y0"], rtol=0, atol=1e-12):
        return "first block is not the initial lift"
    b = out["step"].b_matrix
    if int(np.diff(b.indptr).max()) > out["sparsity"].s_b:
        return "row of B exceeds its sparsity bound"
    gamma = out["tail"].gamma_n
    if not (math.isfinite(gamma) and gamma >= 0.0):
        return f"tail constant {gamma!r} is not a finite bound"
    return ""


def draw_window_input(rng, spec: dict):
    from robustlift import instances

    coeffs = instances.random_coeff_map(rng, spec["d"], spec["degree"])
    v0 = rng.standard_normal(spec["d"])
    v0 *= 0.2 / max(float(np.linalg.norm(v0)), 1e-12)
    return coeffs, v0


class WindowSolve:
    """A fresh random map per op, drawn from the seeded stream."""

    name = "window-solve"

    def __init__(self, seed: int, stream: int):
        self._rng = np.random.default_rng([seed, stream])

    def op(self, tracer=None):
        coeffs, v0 = draw_window_input(self._rng, WINDOW)
        if tracer is not None:
            tracer.counts["carleman.cutoff_n"] += WINDOW["n_levels"]
        return window_chain(coeffs, v0, WINDOW["n_levels"], WINDOW["t_window"])

    def check(self, out) -> str:
        return check_window(out)


# ----------------------------------------------------------------------
# surrogate-design


def designed_polys():
    """`robustlift design-polys` at its defaults."""
    from robustlift import polyapprox

    p_s = polyapprox.design_sign_poly(polyapprox.SignSpec(1.0, 0.2, 0.05))
    p_c = polyapprox.design_clip_poly(polyapprox.ClipSpec(2.0, 0.1, 0.02))
    return p_s, p_c


def poly_fields(poly) -> dict:
    return {"degree": int(poly.degree),
            "passed": bool(poly.certificate.passed),
            "odd_coeffs": [float(c) for c in poly.odd_coeffs],
            "halfwidth": float(poly.halfwidth)}


class SurrogateDesign:
    """Design both surrogates, then expand one seed-drawn folded step."""

    name = "surrogate-design"

    def __init__(self, seed: int, stream: int):
        from robustlift import dynamics
        from robustlift.multipoly import MultiPoly
        from robustlift.polyapprox import OddPolynomial

        self._dynamics = dynamics
        self._oracle = load_oracle()[self.name]
        rng = np.random.default_rng(seed)
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        a = rng.uniform(0.1, 0.4, size=6)
        self._grads = dynamics.PolynomialGradient(
            [x * x * a[0] + y * a[1] + MultiPoly.constant(2, a[2] / 4)],
            [x * y * a[3] + y * a[4] + MultiPoly.constant(2, a[5] / 4)],
            m=1, n=1, eps_u_grad=0.0, l_u_delta=1.0)
        self._sched = dynamics.StepSchedule.uniform(
            1, eps_ball=0.2, eta_delta=0.02, eta_u=0.05, alpha=1.0)
        k_s, k_c = EXPAND_DEGREES
        decay_s = 0.3 ** np.arange((k_s + 1) // 2)
        decay_c = 0.6 ** np.arange((k_c + 1) // 2)
        self._q_s = OddPolynomial(0.6 * decay_s * rng.uniform(0.5, 1.0, decay_s.size), 1.0)
        self._q_c = OddPolynomial(0.6 * decay_c * rng.uniform(0.5, 1.0, decay_c.size), 2.0)
        self._probes = rng.uniform(-0.025, 0.025, size=(64, 2))

    def op(self, tracer=None):
        p_s, p_c = designed_polys()
        closure = self._dynamics.folded_step_closure(
            0, self._sched, self._grads, self._q_s, self._q_c)
        coeffs = self._dynamics.expand_polynomial_map(
            closure, 2, EXPAND_BOUND, radius=0.05)
        return {"sign": p_s, "clip": p_c, "coeffs": coeffs, "closure": closure}

    def check(self, out) -> str:
        for label in ("sign", "clip"):
            got, want = poly_fields(out[label]), self._oracle[label]
            for key in ("degree", "passed"):
                if got[key] != want[key]:
                    return f"{label} {key}: {got[key]!r} != {want[key]!r}"
            if not _close(got["halfwidth"], want["halfwidth"]):
                return f"{label} halfwidth differs"
            if not _close_vec(got["odd_coeffs"], want["odd_coeffs"]):
                return f"{label} coefficients differ"
        coeffs = out["coeffs"]
        if coeffs.degree > EXPAND_BOUND:
            return f"expansion degree {coeffs.degree} above {EXPAND_BOUND}"
        truth = np.asarray(out["closure"](self._probes))
        got = coeffs.evaluate(self._probes)
        err = np.linalg.norm(truth - got, axis=1)
        if not (err <= 1e-10 * (1.0 + np.linalg.norm(truth, axis=1))).all():
            return f"expansion misses the closure by {float(err.max()):.3e}"
        return ""


WORKLOADS = {cls.name: cls for cls in (CertifyShipped, WindowSolve, SurrogateDesign)}
