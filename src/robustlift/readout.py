"""Terminal-block readout, error budgeting, and the pipeline certificate.

The stacked solution is consumed through its last time block: the
parameter coordinates of level one.  Everything here works with the
normalized state, mirroring a measurement-based readout: the terminal
weight p_term gates how much of the state-level error survives into the
conditional block, and budgets are planned backwards from the requested
terminal accuracy.

`run_pipeline_certificate` drives the whole chain on one instance and
reports every hypothesis and inequality with measured values.  Its probe
reads beta0 and the terminal weight off the probe trajectory in closed
form; only its final phase lifts and stacks, with `horizon.lift_window`,
and solves.  Failed hypotheses are flagged in the result, never raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import carleman, horizon, solver
from .dynamics import one_step_delta_bound, scaled_base_step_error_bound
from .polyapprox import DegreeBudget, achieved_delta, degrees_from_budget

__all__ = [
    "DEGENERATE_WEIGHT",
    "TerminalReadout",
    "extract_terminal",
    "lift_weights",
    "TerminalBound",
    "terminal_error_bound",
    "InfeasibleBudgetError",
    "PlanInputs",
    "BudgetLine",
    "ErrorBudget",
    "plan_budgets",
    "Certificate",
    "run_pipeline_certificate",
]

DEGENERATE_WEIGHT = 1e-300

# probe phase of `run_pipeline_certificate`: coarse surrogate accuracies,
# the lift order it measures at, and the margins the plan adds to those
_PROBE_DELTAS = (1e-3, 1e-3)
_N_PROBE = 4
_RHO_MARGIN = 0.05
_VBAR_MARGIN = 0.05
# share of the probe's terminal weight the plan may count on
_P_STAR_FRACTION = 0.9
# rows of the stacked matrix the H3 spot check compares with `row_access`
_SPOT_CHECK_ROWS = 200


@dataclass(frozen=True)
class TerminalReadout:
    p_term: float
    state: np.ndarray | None
    degenerate: bool


def extract_terminal(normalized_state: np.ndarray, m: int, n: int,
                     block_dim: int, t_final: int) -> TerminalReadout:
    """Unit parameter block at the final time plus its squared weight.

    The level-one block leads each time block, so the parameter part
    sits at offset m of block t_final.
    """
    state = np.asarray(normalized_state, dtype=float)
    if len(state) != (t_final + 1) * block_dim:
        raise ValueError("state length disagrees with the stated layout")
    start = t_final * block_dim + m
    block = state[start: start + n]
    weight = float(block @ block)
    if weight < DEGENERATE_WEIGHT:
        return TerminalReadout(weight, None, True)
    return TerminalReadout(weight, block / math.sqrt(weight), False)


def lift_weights(deviations: np.ndarray, m: int,
                 n_levels: int) -> tuple[float, float]:
    """beta0 and p_term of the stacked exact lifts of a trajectory, unbuilt.

    The lift is isometric, ||lift(v)||^2 = sum_{j<=N} ||v||^2j, so beta0 is
    the first lift's norm and p_term the last state's parameter part over
    the whole stack (an all-zero window has weight 0 and beta0 0).
    """
    sq = np.einsum("ij,ij->i", deviations, deviations)
    lifted = sum(sq ** j for j in range(1, n_levels + 1))
    u_term = deviations[-1][m:]
    return (math.sqrt(lifted[0]),
            float(u_term @ u_term) / max(float(lifted.sum()), DEGENERATE_WEIGHT))


@dataclass(frozen=True)
class TerminalBound:
    gate_ok: bool
    bound: float
    eps_state: float
    p_star: float


def terminal_error_bound(eps_state: float, p_star: float) -> TerminalBound:
    """Terminal-block error from state-level error, behind the gate.

    Requires eps_state <= sqrt(p_star)/2 first; only then does the
    conditional block obey the 2/sqrt(p_star) amplification.
    """
    if not (0.0 < p_star <= 1.0):
        raise ValueError("p_star must lie in (0, 1]")
    if eps_state < 0.0:
        raise ValueError("eps_state must be nonnegative")
    root = math.sqrt(p_star)
    gate = eps_state <= root / 2.0
    bound = (2.0 / root) * eps_state if gate else math.inf
    return TerminalBound(gate, bound, eps_state, p_star)


# ----------------------------------------------------------------------
# budgets


class InfeasibleBudgetError(RuntimeError):
    """No positive allocation satisfies the requested terminal accuracy."""


@dataclass(frozen=True)
class PlanInputs:
    """Measured or planned quantities the budget chain consumes."""

    rho: float
    t_window: int
    beta0: float
    p_star: float
    l_lift: float
    m: int
    eta_delta_max: float
    eps_ball: float
    eta_u_max: float
    l_u_delta: float
    eps_u_grad: float
    tau_s: float
    tau_c: float
    big_l: float
    scale_delta: float = 1.0
    scale_u: float = 1.0
    model_exact: bool = False


@dataclass(frozen=True)
class BudgetLine:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        # relative slack absorbs roundtrip rounding in derived targets
        return self.lhs <= self.rhs + 1e-12 * max(1.0, abs(self.rhs))

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "ok": self.ok}


@dataclass(frozen=True)
class ErrorBudget:
    mode: str
    eps_out: float
    eps_ro: float
    eps_ls: float
    eps_hor: float
    gamma_target: float
    base_target: float
    eps_nl_effective: float | None
    delta_s: float | None
    delta_c: float | None
    state_target: float
    lines: tuple[BudgetLine, ...]

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "mode", "eps_out", "eps_ro", "eps_ls", "eps_hor", "gamma_target",
            "base_target", "eps_nl_effective", "delta_s", "delta_c",
            "state_target")}
        out["lines"] = [line.to_dict() for line in self.lines]
        return out


def plan_budgets(eps_out: float, inputs: PlanInputs,
                 mode: str = "terminal") -> ErrorBudget:
    """Work the error chain backwards from the requested accuracy.

    mode "state" targets the stacked normalized state; mode "terminal"
    additionally pays the readout share and the terminal-weight gate.
    Every allocation lands in the ledger; an impossible allocation
    raises InfeasibleBudgetError.
    """
    if eps_out <= 0.0:
        raise InfeasibleBudgetError("requested accuracy must be positive")
    if mode not in ("state", "terminal"):
        raise ValueError("mode must be 'state' or 'terminal'")
    if not (0.0 <= inputs.rho < 1.0):
        raise InfeasibleBudgetError("window is not contractive (rho >= 1)")
    if inputs.beta0 <= 0.0:
        raise InfeasibleBudgetError("initial lift carries no weight")

    lines: list[BudgetLine] = []
    if mode == "terminal":
        if inputs.p_star <= 0.0:
            raise InfeasibleBudgetError("terminal weight floor must be positive")
        eps_ro = eps_out / 2.0
        state_target = math.sqrt(inputs.p_star) * eps_out / 4.0
        lines.append(BudgetLine("terminal gate eps_state <= sqrt(p*)/2",
                                state_target, math.sqrt(inputs.p_star) / 2.0))
    else:
        eps_ro = 0.0
        state_target = eps_out

    # eps_ls + 2 eps_hor / beta0 <= state_target, split evenly
    eps_ls = state_target / 2.0
    eps_hor = inputs.beta0 * state_target / 4.0
    lines.append(BudgetLine("state chain eps_ls + 2 eps_hor / beta0",
                            eps_ls + 2.0 * eps_hor / inputs.beta0,
                            state_target))

    amp = math.sqrt(inputs.t_window + 1) / (1.0 - inputs.rho)
    if inputs.model_exact:
        gamma_target = eps_hor / amp
        base_target = 0.0
        eps_nl_eff = delta_s = delta_c = None
        lines.append(BudgetLine("horizon chain amp * gamma_target",
                                amp * gamma_target, eps_hor))
    else:
        gamma_target = eps_hor / (2.0 * amp)
        base_target = eps_hor / (2.0 * amp * inputs.l_lift)
        lines.append(BudgetLine(
            "horizon chain amp * (gamma + l_lift * base)",
            amp * (gamma_target + inputs.l_lift * base_target), eps_hor))
        grad_term = inputs.scale_u * inputs.eta_u_max * inputs.eps_u_grad
        room = base_target - grad_term
        if room <= 0.0:
            raise InfeasibleBudgetError(
                "gradient-model error alone exceeds the per-step share")
        eps_nl_eff = room / (inputs.scale_delta
                             + inputs.scale_u * inputs.eta_u_max * inputs.l_u_delta)
        degrees = degrees_from_budget(DegreeBudget(
            eps_nl=eps_nl_eff,
            eta_delta=inputs.eta_delta_max,
            eps_ball=inputs.eps_ball,
            m=inputs.m,
            tau_s=inputs.tau_s,
            tau_c=inputs.tau_c,
            big_l=inputs.big_l,
        ))
        if not degrees.feasible:
            raise InfeasibleBudgetError(
                "per-step budget leaves the admissible regime")
        delta_s, delta_c = degrees.delta_s, degrees.delta_c
        step_err = scaled_base_step_error_bound(
            one_step_delta_bound(inputs.m, inputs.eta_delta_max, delta_s,
                                 inputs.eps_ball, delta_c),
            inputs.eta_u_max, inputs.l_u_delta, inputs.eps_u_grad,
            inputs.scale_delta, inputs.scale_u)
        lines.append(BudgetLine("per-step model error", step_err, base_target))

    return ErrorBudget(
        mode=mode,
        eps_out=eps_out,
        eps_ro=eps_ro,
        eps_ls=eps_ls,
        eps_hor=eps_hor,
        gamma_target=gamma_target,
        base_target=base_target,
        eps_nl_effective=eps_nl_eff,
        delta_s=delta_s,
        delta_c=delta_c,
        state_target=state_target,
        lines=tuple(lines),
    )


# ----------------------------------------------------------------------
# end-to-end certificate


@dataclass
class Certificate:
    eps_out: float
    n_levels: int
    hypotheses: dict = field(default_factory=dict)
    budget: ErrorBudget | None = None
    verification: list = field(default_factory=list)
    measurements: dict = field(default_factory=dict)
    terminal: dict = field(default_factory=dict)
    monitor: dict = field(default_factory=dict)
    passed: bool = False

    def to_json(self) -> str:
        def clean(x):
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            if isinstance(x, np.ndarray):
                return x.tolist()
            if isinstance(x, (np.integer,)):
                return int(x)
            if isinstance(x, (np.floating, float)):
                v = float(x)
                return v if math.isfinite(v) else repr(v)
            if isinstance(x, (np.bool_, bool)):
                return bool(x)
            return x

        payload = {
            "eps_out": self.eps_out,
            "n_levels": self.n_levels,
            "passed": self.passed,
            "hypotheses": clean(self.hypotheses),
            "budget": clean(self.budget.to_dict()) if self.budget else None,
            "verification": [clean(line.to_dict()) for line in self.verification],
            "measurements": clean(self.measurements),
            "terminal": clean(self.terminal),
            "monitor": clean(self.monitor),
        }
        return json.dumps(payload, indent=2)


def _row_access_spot_check(system, rng) -> bool:
    """Sampled rows of `row_access` against the rows of M times 1 / (1 + rho):
    the same IEEE products `row_access` takes, so the check is bit-exact."""
    mat = system.matrix
    dim = system.block_dim
    total = (system.t_window + 1) * dim
    rows = rng.choice(total, size=min(_SPOT_CHECK_ROWS, total), replace=False)
    # the sampled rows' entries, gathered in one slice of the CSR arrays
    starts = mat.indptr[rows].astype(np.int64)
    counts = mat.indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    take = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
    cols = mat.indices[take].tolist()
    vals = (mat.data[take] * system.inv_scale).tolist()
    lo = 0
    for gi, hi in zip(rows.tolist(), ends.tolist()):
        got = horizon.row_access(system, *divmod(gi, dim))
        if got != sorted(zip(cols[lo:hi], vals[lo:hi])):
            return False
        lo = hi
    return True


def run_pipeline_certificate(instance, eps_out: float, mode: str = "terminal",
                             n_max: int = 12,
                             seed: int = 0) -> Certificate:
    """Design, lift, solve and read out one instance; report everything.

    Probe phase measures contractivity, state radius, beta0 and terminal
    weight with coarse surrogates, the last two in closed form; the plan
    allocates budgets from those with margins; the final phase re-measures
    everything, lifting once, and verifies each inequality.  Hypothesis
    failures mark the certificate, they do not raise.  Each distinct
    surrogate pair is expanded once: the final phase reuses the probe's
    expansion when the instance hands it the probe's own surrogates
    (fixed ones, or none at all).
    """
    if n_max < 2:
        raise ValueError("the cutoff search needs n_max >= 2")
    rng = np.random.default_rng(seed)
    sched = instance.sched
    grads = instance.grads
    m, n = grads.m, grads.n
    t_window = sched.t_window
    center, scale = instance.center, instance.scale

    # ---- probe phase
    ps_probe, pc_probe = instance.design_polys(*_PROBE_DELTAS)
    dev_probe = instance.deviations(instance.model_states(ps_probe, pc_probe))
    vbar_probe = float(np.linalg.norm(dev_probe, axis=1).max())
    probe_coeffs = instance.build_expansion(ps_probe, pc_probe)
    probe_major = carleman.majorant_and_contractivity(probe_coeffs, _N_PROBE)
    beta0_probe, p_probe = lift_weights(dev_probe, m, _N_PROBE)
    p_star = _P_STAR_FRACTION * p_probe

    # ---- plan
    rho_plan = min(probe_major.rho + _RHO_MARGIN, 0.995)
    vbar_plan = min(vbar_probe + _VBAR_MARGIN, 0.995)
    plan = plan_budgets(eps_out, PlanInputs(
        rho=rho_plan,
        t_window=t_window,
        beta0=beta0_probe,
        p_star=p_star,
        l_lift=carleman.lift_lipschitz(n_max, vbar_plan),
        m=m,
        eta_delta_max=sched.eta_delta_max,
        eps_ball=sched.eps_ball,
        eta_u_max=sched.eta_u_max,
        l_u_delta=grads.l_u_delta,
        eps_u_grad=grads.eps_u_grad,
        tau_s=instance.tau_s,
        tau_c=instance.tau_c,
        big_l=instance.big_l,
        scale_delta=float(scale[0]),
        scale_u=float(scale[m]),
        model_exact=not instance.uses_fold,
    ), mode=mode)

    # ---- final surrogates and trajectory
    monitor = instance.fresh_monitor()
    p_s, p_c = instance.design_polys(plan.delta_s, plan.delta_c)
    dev_model = instance.deviations(instance.model_states(p_s, p_c, monitor))
    exact_states = instance.exact_states()
    dev_exact = instance.deviations(exact_states)
    vbar = float(max(np.linalg.norm(dev_model, axis=1).max(),
                     np.linalg.norm(dev_exact, axis=1).max()))

    # ---- cutoff selection by direct tails; only the cutoff varies, so the
    # final step map is expanded once, and not at all when the final
    # surrogates are the probe's
    if p_s is ps_probe and p_c is pc_probe:
        coeffs = probe_coeffs
    else:
        coeffs = instance.build_expansion(p_s, p_c)

    def bounds(n_levels):
        major = carleman.majorant_and_contractivity(coeffs, n_levels)
        return major, carleman.tail_constant_and_cutoff(
            coeffs, n_levels, vbar, t_window, min(major.rho, 0.999999),
            plan.gamma_target, lam=instance.lam)

    for n_levels in range(2, n_max + 1):
        major, tail = bounds(n_levels)
        if major.h1_pass and tail.gamma_n <= plan.gamma_target:
            break

    # ---- lift, stack, solve; tight targets can escalate the lift far past
    # what this host can stack, so drop levels until the stacked matrix
    # fits, the tail hypothesis then reports what the smaller lift delivers;
    # a lift its preflight refuses is dropped the same way
    while True:
        try:
            _, system = horizon.lift_window(coeffs, n_levels, dev_model[0],
                                            t_window, major.rho)
        except carleman.LiftSizeError:
            if n_levels <= 2:
                raise
        else:
            if n_levels <= 2 or system.stacked_nnz <= horizon.MAX_STACKED_NNZ:
                break
        n_levels -= 1
        major, tail = bounds(n_levels)
    beta0 = float(np.linalg.norm(system.rhs[:system.block_dim]))
    solve = solver.solve_linear_system(system)
    cond = horizon.condition_bounds(major.rho, t_window, system)
    sparsity = horizon.sparsity_bounds([coeffs.row_sparsities()], n_levels)

    term = extract_terminal(solve.normalized_state, m, n, system.block_dim,
                            t_window)

    # ---- measured error chain
    l_lift = carleman.lift_lipschitz(n_levels, vbar)
    if instance.uses_fold:
        # claim whichever accuracy is worse: the planned split or what the
        # delivered surrogates actually certify
        d_s = max(plan.delta_s, achieved_delta(p_s) or 0.0)
        d_c = max(plan.delta_c, achieved_delta(p_c) or 0.0)
        eps_base = scaled_base_step_error_bound(
            one_step_delta_bound(m, sched.eta_delta_max, d_s, sched.eps_ball, d_c),
            sched.eta_u_max, grads.l_u_delta, grads.eps_u_grad,
            float(scale[0]), float(scale[m]))
    else:
        d_s = d_c = None
        # the realized affine step is the exact one on the saturated tube only
        eps_base = 0.0 if instance.exact_regime_margins()["ok"] else math.inf
    amp = math.sqrt(t_window + 1) / (1.0 - major.rho) if major.h1_pass else math.inf
    raw_hor = tail.gamma_n + l_lift * eps_base
    eps_hor_bound = amp * raw_hor if raw_hor > 0 else (0.0 if major.h1_pass
                                                       else math.inf)
    eps_ls_measured = 2.0 * cond.kappa_bound * solve.residual
    eps_state = eps_ls_measured + 2.0 * eps_hor_bound / beta0
    gate = terminal_error_bound(eps_state, p_star) if p_star > 0 else None
    terminal_bound = (gate.bound + plan.eps_ro) if gate and gate.gate_ok else math.inf

    # ---- reference terminal state from the exact dynamics
    u_exact = dev_exact[t_window][m:]
    norm_u = np.linalg.norm(u_exact)
    measured_error = math.inf
    if term.state is not None and norm_u > 0:
        measured_error = float(np.linalg.norm(term.state - u_exact / norm_u))
    u_reconstructed = solve.block(t_window)[m: m + n] / scale[m:] + center[m:]
    recon_error = float(np.linalg.norm(
        u_reconstructed - np.asarray(exact_states[t_window].u)))

    # ---- hypothesis ledger
    hyp = {
        "H1_contractive_window": {
            "pass": bool(major.h1_pass), "rho": major.rho,
            "planned": rho_plan, "gamma": major.gamma, "sigma": major.sigma},
        "H2_state_radius": {
            "pass": bool(vbar < 1.0), "vbar": vbar, "planned": vbar_plan},
        "H3_access_model": {
            "pass": bool(_row_access_spot_check(system, rng)
                         and system.max_row_nnz <= sparsity.s_row),
            "s_row_bound": sparsity.s_row,
            "max_row_nnz": system.max_row_nnz},
        "H4_initial_weight": {
            "pass": bool(beta0 > 0.0),
            "beta0": beta0, "probe_value": beta0_probe},
        "H5_terminal_weight": {
            "pass": bool(not term.degenerate and term.p_term >= p_star),
            "p_term": term.p_term, "p_star": p_star},
        "H6_readout": {
            "pass": True, "eps_ro": 0.0, "budget": plan.eps_ro,
            "note": "classical extraction is exact; budget reserved"},
    }

    verification = [
        BudgetLine("measured rho <= planned rho", major.rho, rho_plan),
        BudgetLine("measured vbar <= planned vbar", vbar, vbar_plan),
        BudgetLine("truncation gamma_n <= target", tail.gamma_n,
                   plan.gamma_target),
        BudgetLine("per-step model error <= target", eps_base,
                   plan.base_target),
        BudgetLine("solver error <= share", eps_ls_measured, plan.eps_ls),
        BudgetLine("horizon error <= share", eps_hor_bound, plan.eps_hor),
        BudgetLine("state chain <= target", eps_state, plan.state_target),
    ]
    if mode == "terminal":
        verification += [
            BudgetLine("terminal bound <= eps_out", terminal_bound, eps_out),
            BudgetLine("measured terminal error <= bound", measured_error,
                       terminal_bound),
            BudgetLine("measured terminal error <= eps_out", measured_error,
                       eps_out),
        ]

    cert = Certificate(
        eps_out=eps_out,
        n_levels=n_levels,
        hypotheses=hyp,
        budget=plan,
        verification=verification,
        measurements={
            "rho": major.rho,
            "vbar": vbar,
            "beta0": beta0,
            "p_term": term.p_term,
            "gamma_n": tail.gamma_n,
            "weighted_chi": tail.weighted_chi,
            "n_design_weighted": tail.n_design,
            "l_lift": l_lift,
            "eps_base_step": eps_base,
            "eps_horizon_bound": eps_hor_bound,
            "eps_ls_measured": eps_ls_measured,
            "solver_residual": solve.residual,
            "kappa_bound": cond.kappa_bound,
            "kappa_measured": cond.measured_kappa,
            "s_row": sparsity.s_row,
            "dim": system.dim,
            "delta_s": d_s,
            "delta_c": d_c,
            "sign_degree": p_s.degree if p_s is not None else None,
            "clip_degree": p_c.degree if p_c is not None else None,
        },
        terminal={
            "p_term": term.p_term,
            "state": term.state,
            "eps_state_bound": eps_state,
            "terminal_bound": terminal_bound,
            "measured_error_normalized": measured_error,
            "reconstructed_u": u_reconstructed,
            "reconstruction_error": recon_error,
            "exact_u": np.asarray(exact_states[t_window].u),
        },
        monitor=monitor.to_dict() if monitor is not None else {},
    )
    cert.passed = bool(all(h["pass"] for h in hyp.values())
                       and all(line.ok for line in verification)
                       and all(line.ok for line in plan.lines))
    return cert
