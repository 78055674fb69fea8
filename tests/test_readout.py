"""Terminal extraction, error budgeting, and the pipeline certificate."""

import inspect
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import robustlift.readout
from robustlift import carleman, horizon
from robustlift.carleman import (LiftedStep, build_lifted_step, lift_state,
                                 majorant_and_contractivity,
                                 tail_constant_and_cutoff)
from robustlift.dynamics import (AffineGradient, CoupledState,
                                 PolynomialMapCoeffs, StepSchedule)
from robustlift.horizon import HorizonSystem, assemble_horizon
from robustlift.instances import (
    CertifyInstance,
    FoldedInstance,
    certify_instance,
    folded_demo_instance,
    random_coeff_map,
    random_contractive,
)
from robustlift.readout import (
    _N_PROBE,
    _P_STAR_FRACTION,
    _PROBE_DELTAS,
    BudgetLine,
    InfeasibleBudgetError,
    PlanInputs,
    _row_access_spot_check,
    extract_terminal,
    lift_weights,
    plan_budgets,
    run_pipeline_certificate,
    terminal_error_bound,
)
from robustlift.solver import solve_forward

RNG = np.random.default_rng(53)


def plan_inputs(**kw):
    args = dict(rho=0.5, t_window=10, beta0=1.0, p_star=0.25, l_lift=2.0,
                m=1, eta_delta_max=0.05, eps_ball=0.1, eta_u_max=0.1,
                l_u_delta=0.5, eps_u_grad=0.0, tau_s=0.2, tau_c=0.1,
                big_l=2.0)
    args.update(kw)
    return PlanInputs(**args)


class TestExtractTerminal:
    def test_terminal_only_support(self):
        # all weight on the final parameter block: p_term = 1
        state = np.zeros(6)
        state[5] = 1.0
        out = extract_terminal(state, m=1, n=1, block_dim=2, t_final=2)
        assert out.p_term == 1.0
        np.testing.assert_array_equal(out.state, [1.0])
        assert not out.degenerate

    def test_weight_is_squared_block_norm(self):
        state = RNG.standard_normal(12)
        state /= np.linalg.norm(state)
        out = extract_terminal(state, m=2, n=2, block_dim=6, t_final=1)
        block = state[8:10]
        assert out.p_term == pytest.approx(float(block @ block), rel=1e-12)
        np.testing.assert_allclose(out.state,
                                   block / np.linalg.norm(block), atol=1e-15)
        assert abs(np.linalg.norm(out.state) - 1.0) <= 1e-14

    def test_degenerate_block(self):
        state = np.zeros(6)
        state[0] = 1.0
        out = extract_terminal(state, m=1, n=1, block_dim=2, t_final=2)
        assert out.degenerate
        assert out.state is None
        assert out.p_term == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extract_terminal(np.ones(5), m=1, n=1, block_dim=2, t_final=2)


class TestTerminalBound:
    def test_frozen_example(self):
        out = terminal_error_bound(0.01, 0.25)
        assert out.gate_ok
        assert out.bound == pytest.approx(0.04, rel=1e-15)

    def test_zero_error(self):
        out = terminal_error_bound(0.0, 0.5)
        assert out.bound == 0.0 and out.gate_ok

    def test_gate_failure_is_infinite(self):
        out = terminal_error_bound(0.3, 0.25)
        assert not out.gate_ok
        assert out.bound == math.inf

    def test_gate_boundary(self):
        assert terminal_error_bound(0.25, 0.25).gate_ok
        assert not terminal_error_bound(0.2500001, 0.25).gate_ok

    def test_validation(self):
        with pytest.raises(ValueError):
            terminal_error_bound(0.01, 0.0)
        with pytest.raises(ValueError):
            terminal_error_bound(0.01, 1.5)
        with pytest.raises(ValueError):
            terminal_error_bound(-0.01, 0.5)


class TestPlanBudgets:
    def test_terminal_mode_arithmetic(self):
        plan = plan_budgets(0.05, plan_inputs(model_exact=True),
                            mode="terminal")
        assert plan.eps_ro == pytest.approx(0.025)
        assert plan.state_target == pytest.approx(0.5 * 0.05 / 4.0)
        assert plan.eps_ls == pytest.approx(plan.state_target / 2.0)
        assert plan.eps_hor == pytest.approx(plan.state_target / 4.0)
        amp = math.sqrt(11) / 0.5
        assert plan.gamma_target == pytest.approx(plan.eps_hor / amp)
        assert plan.base_target == 0.0
        assert plan.delta_s is None
        assert all(line.ok for line in plan.lines)

    def test_state_mode_arithmetic(self):
        plan = plan_budgets(0.05, plan_inputs(model_exact=True), mode="state")
        assert plan.eps_ro == 0.0
        assert plan.state_target == 0.05
        assert all(line.ok for line in plan.lines)

    def test_folded_mode_allocates_splits(self):
        plan = plan_budgets(0.5, plan_inputs(), mode="state")
        assert plan.delta_s is not None and plan.delta_c is not None
        assert plan.eps_nl_effective > 0
        # the planned split regenerates the per-step bound within target
        step = math.sqrt(1) * (0.05 * plan.delta_s + 0.1 * plan.delta_c)
        assert step <= plan.base_target + 1e-15
        amp = math.sqrt(11) / 0.5
        assert plan.base_target == pytest.approx(
            plan.eps_hor / (2 * amp * 2.0))

    def test_gradient_room_exhausted(self):
        with pytest.raises(InfeasibleBudgetError):
            plan_budgets(0.05, plan_inputs(eps_u_grad=5.0), mode="state")

    def test_regime_left_when_rates_vanish(self):
        # per-step share far above eta_delta sqrt(m): no admissible split
        with pytest.raises(InfeasibleBudgetError):
            plan_budgets(0.5, plan_inputs(eta_delta_max=1e-9, rho=0.0,
                                          t_window=0, l_lift=1.0),
                         mode="state")

    def test_invalid_inputs(self):
        with pytest.raises(InfeasibleBudgetError):
            plan_budgets(0.0, plan_inputs())
        with pytest.raises(InfeasibleBudgetError):
            plan_budgets(0.05, plan_inputs(rho=1.0))
        with pytest.raises(InfeasibleBudgetError):
            plan_budgets(0.05, plan_inputs(beta0=0.0))
        with pytest.raises(InfeasibleBudgetError):
            plan_budgets(0.05, plan_inputs(p_star=0.0), mode="terminal")
        with pytest.raises(ValueError):
            plan_budgets(0.05, plan_inputs(), mode="both")

    def test_budget_line_reporting(self):
        line = BudgetLine("demo", 0.4, 0.5)
        assert line.ok and line.slack == pytest.approx(0.1)
        assert not BudgetLine("demo", 0.6, 0.5).ok
        payload = line.to_dict()
        assert payload["name"] == "demo" and payload["ok"]

    def test_budget_serializes(self):
        plan = plan_budgets(0.05, plan_inputs(model_exact=True))
        payload = plan.to_dict()
        assert payload["mode"] == "terminal"
        assert len(payload["lines"]) == len(plan.lines)


class TestPipelineCertificate:
    def test_flagship_terminal_certificate(self):
        cert = run_pipeline_certificate(certify_instance(50), 0.05)
        assert cert.passed
        assert all(h["pass"] for h in cert.hypotheses.values())
        assert cert.terminal["measured_error_normalized"] <= 0.05
        assert cert.terminal["reconstruction_error"] <= 1e-10
        assert cert.measurements["gamma_n"] == 0.0
        assert cert.measurements["eps_base_step"] == 0.0

    @pytest.mark.parametrize("mode", ["terminal", "state"])
    def test_unsaturated_window_is_refused(self, mode):
        # the clamp lets go of delta (margin -0.005), so the affine step is
        # not the window's step and its model error has no bound
        inst = replace(certify_instance(), v0=CoupledState([0.005], [0.199]),
                       sched=StepSchedule.uniform(3, eps_ball=0.02,
                                                  eta_delta=0.01, eta_u=0.1,
                                                  alpha=1.0))
        assert not inst.exact_regime_margins()["ok"]
        cert = run_pipeline_certificate(inst, 0.05, mode=mode)
        assert not cert.passed
        assert cert.measurements["eps_base_step"] == math.inf
        failing = {line.name for line in cert.verification if not line.ok}
        assert {"per-step model error <= target", "horizon error <= share",
                "state chain <= target"} <= failing

    def test_flagship_state_mode(self):
        cert = run_pipeline_certificate(certify_instance(50), 0.05,
                                        mode="state")
        assert cert.passed
        assert cert.budget.eps_ro == 0.0
        assert len(cert.verification) == 7

    def test_zero_weight_window_is_refused(self):
        # the centre is a fixed point and the start sits on it, so the
        # scaled trajectory is all zero: the plan refuses its zero beta0
        inst = certify_instance(50)
        g = inst.grads
        inst.grads = AffineGradient(g.a_delta, g.b_delta, g.a_u, [-0.01])
        inst.v0 = CoupledState(np.array([0.02]), np.array([0.0]))
        assert not inst.deviations(inst.exact_states()).any()
        with pytest.raises(InfeasibleBudgetError,
                           match="initial lift carries no weight"):
            run_pipeline_certificate(inst, 0.05)

    def test_zero_window_flags_contractivity(self):
        # empty learner schedule leaves the linear part at norm one; the
        # pipeline must flag H1 and still read out the initial block
        cert = run_pipeline_certificate(certify_instance(0), 0.05)
        assert not cert.hypotheses["H1_contractive_window"]["pass"]
        assert not cert.passed
        assert cert.terminal["measured_error_normalized"] == 0.0

    @pytest.mark.parametrize("n_max", [1, 0])
    def test_cutoff_search_needs_two_levels(self, n_max):
        with pytest.raises(ValueError, match="n_max >= 2"):
            run_pipeline_certificate(certify_instance(5), 0.05, n_max=n_max)

    def test_certificate_json_roundtrip(self):
        cert = run_pipeline_certificate(certify_instance(10), 0.05)
        payload = json.loads(cert.to_json())
        assert payload["passed"] == cert.passed
        assert payload["eps_out"] == 0.05
        assert len(payload["verification"]) == len(cert.verification)
        assert payload["terminal"]["state"] is not None
        assert "H5_terminal_weight" in payload["hypotheses"]

    def test_p_star_tracks_fraction(self, monkeypatch):
        monkeypatch.setattr(robustlift.readout, "_P_STAR_FRACTION", 0.5)
        half = run_pipeline_certificate(certify_instance(10), 0.05)
        monkeypatch.setattr(robustlift.readout, "_P_STAR_FRACTION", 0.9)
        full = run_pipeline_certificate(certify_instance(10), 0.05)
        ratio = (full.hypotheses["H5_terminal_weight"]["p_star"]
                 / half.hypotheses["H5_terminal_weight"]["p_star"])
        assert ratio == pytest.approx(1.8, rel=1e-9)

    def test_lift_cap_bounds_the_stacked_system(self, monkeypatch):
        # a cap that only the N = 2 window's stack fits under floors the
        # lift at two levels; the certificate still reports whatever that
        # lift delivers
        inst = folded_demo_instance()
        free = run_pipeline_certificate(inst, 0.3)
        coeffs = inst.build_expansion(*inst.fixed_polys)
        _, two = horizon.lift_window(coeffs, 2, np.zeros(coeffs.d),
                                     inst.sched.t_window, 0.5)
        monkeypatch.setattr(horizon, "MAX_STACKED_NNZ", two.stacked_nnz)
        capped = run_pipeline_certificate(inst, 0.3)
        assert capped.n_levels == 2 < free.n_levels
        assert set(capped.hypotheses) == set(free.hypotheses)
        assert json.loads(capped.to_json())["n_levels"] == 2

    def test_refused_lift_drops_a_level(self, monkeypatch):
        # a lift its preflight refuses is dropped like an over-cap stack,
        # down to two levels; a refused two-level lift is raised
        inst = folded_demo_instance()
        free = run_pipeline_certificate(inst, 0.3)
        build = horizon.build_lifted_step
        floor = [2]

        def refuse_above_floor(coeffs, n_levels):
            if n_levels > floor[0]:
                raise carleman.LiftSizeError("refused for the test")
            return build(coeffs, n_levels)

        monkeypatch.setattr(horizon, "build_lifted_step", refuse_above_floor)
        capped = run_pipeline_certificate(inst, 0.3)
        assert capped.n_levels == 2 < free.n_levels
        floor[0] = 1
        with pytest.raises(carleman.LiftSizeError):
            run_pipeline_certificate(inst, 0.3)

    def test_h3_flags_rows_above_the_sparsity_bound(self, monkeypatch):
        # the stored rows hold more than the reported bound: H3 is flagged
        # and the certificate is red, nothing raises
        monkeypatch.setattr(horizon, "sparsity_bounds",
                            lambda *args: horizon.SparsityReport(0, 1))
        cert = run_pipeline_certificate(certify_instance(10), 0.05)
        h3 = cert.hypotheses["H3_access_model"]
        assert h3["s_row_bound"] == 1 < h3["max_row_nnz"]
        assert h3["pass"] is False and cert.passed is False

    def test_terminal_matches_direct_iteration(self):
        # the reconstructed parameter equals the plain descent iterate
        inst = certify_instance(25)
        cert = run_pipeline_certificate(inst, 0.05)
        u = float(inst.v0.u[0])
        for _ in range(25):
            u = u - 0.1 * (0.5 * 0.02 + 3.0 * u - 0.55)
        assert cert.terminal["reconstructed_u"][0] == pytest.approx(
            u, abs=1e-10)

    @staticmethod
    def _count_expansions(monkeypatch, cls):
        calls = []
        build = cls.build_expansion

        def counted(self, *args):
            calls.append(args)
            return build(self, *args)

        monkeypatch.setattr(cls, "build_expansion", counted)
        return calls

    def test_final_expansion_built_once(self, monkeypatch):
        # the cutoff loop varies only N, and the fixed surrogates of the
        # final phase are the probe's: one expansion serves both phases
        calls = self._count_expansions(monkeypatch, FoldedInstance)
        cert = run_pipeline_certificate(folded_demo_instance(6), 0.3,
                                        mode="state")
        assert cert.n_levels == 5
        assert len(calls) == 1

    def test_saturated_toy_expands_once(self, monkeypatch):
        # no surrogates in either phase
        calls = self._count_expansions(monkeypatch, CertifyInstance)
        run_pipeline_certificate(certify_instance(50), 0.05)
        assert calls == [(None, None)]

    def test_differing_final_pair_expands_again(self, monkeypatch):
        # a final clamp surrogate one ulp off the probe's is a new step map
        designed = []
        design = FoldedInstance.design_polys

        def nudged(self, delta_s, delta_c):
            p_s, p_c = design(self, delta_s, delta_c)
            if designed:
                p_c = replace(p_c, odd_coeffs=np.nextafter(p_c.odd_coeffs, np.inf))
            designed.append((p_s, p_c))
            return p_s, p_c

        monkeypatch.setattr(FoldedInstance, "design_polys", nudged)
        calls = self._count_expansions(monkeypatch, FoldedInstance)
        run_pipeline_certificate(folded_demo_instance(6), 0.3, mode="state")
        assert len(designed) == 2 and len(calls) == 2
        assert calls[0][0] is designed[0][0] and calls[0][1] is designed[0][1]
        assert calls[1][0] is designed[1][0] and calls[1][1] is designed[1][1]

    def test_one_operator_norm_per_degree_of_the_map(self, monkeypatch):
        # the probe's majorant, the cutoff loop and the final lift share one
        # step map, which computes its norm series once: one call per
        # nonempty degree
        calls = []
        norm = PolynomialMapCoeffs.operator_norm

        def counted(coeffs, ell):
            calls.append((id(coeffs), ell))
            return norm(coeffs, ell)

        monkeypatch.setattr(PolynomialMapCoeffs, "operator_norm", counted)
        run_pipeline_certificate(folded_demo_instance(6), 0.3, mode="state")
        assert len(calls) == len(set(calls)) == 16

    @pytest.mark.parametrize("make, mode", [
        (certify_instance, "terminal"), (folded_demo_instance, "state")])
    def test_one_lift_per_certificate(self, monkeypatch, make, mode):
        # the probe reads its weights in closed form; only the final
        # phase lifts the step map
        calls = []
        build = horizon.build_lifted_step

        def counted(coeffs, n_levels):
            calls.append(n_levels)
            return build(coeffs, n_levels)

        monkeypatch.setattr(horizon, "build_lifted_step", counted)
        cert = run_pipeline_certificate(make(), 0.3, mode=mode)
        assert calls == [cert.n_levels]

    def test_one_stacked_csr_per_certificate(self, monkeypatch):
        # the Lanczos run behind kappa_measured and the H3 spot check
        # share the unnormalized CSR
        calls = []
        stack = HorizonSystem._stacked_csr

        def counted(self):
            calls.append(self.dim)
            return stack(self)

        monkeypatch.setattr(HorizonSystem, "_stacked_csr", counted)
        cert = run_pipeline_certificate(certify_instance(50), 0.05)
        assert cert.measurements["kappa_measured"] is not None
        assert calls == [cert.measurements["dim"]]


def _probe_trajectory(inst):
    p_s, p_c = inst.design_polys(*_PROBE_DELTAS)
    return p_s, p_c, inst.deviations(inst.model_states(p_s, p_c))


def _weights_of_lift(inst):
    """beta0 and p_term of the stacked exact lifts of the probe trajectory."""
    dev = _probe_trajectory(inst)[2]
    lifts = np.stack([lift_state(v, _N_PROBE) for v in dev])
    term = extract_terminal(lifts.ravel() / np.linalg.norm(lifts),
                            inst.grads.m, inst.grads.n, lifts.shape[1],
                            inst.sched.t_window)
    return float(np.linalg.norm(lifts[0])), term.p_term


def _weights_by_recurrence(inst):
    """The same two numbers as the probe once took them: lift the step map,
    stack the window, forward-solve it and read the terminal block."""
    p_s, p_c, dev = _probe_trajectory(inst)
    coeffs = inst.build_expansion(p_s, p_c)
    rho = majorant_and_contractivity(coeffs, _N_PROBE).rho
    _, system = horizon.lift_window(coeffs, _N_PROBE, dev[0],
                                    inst.sched.t_window, rho)
    stacked = solve_forward(system).stacked
    term = extract_terminal(stacked / np.linalg.norm(stacked), inst.grads.m,
                            inst.grads.n, system.block_dim, inst.sched.t_window)
    return float(np.linalg.norm(system.rhs[:system.block_dim])), term.p_term


class TestProbeClosedForm:
    # the recurrence route truncates the lift at N levels: exact for the
    # affine toy, off by the truncation error for the folded step
    @pytest.mark.parametrize("make, eps_out, mode, rel_recurrence", [
        (certify_instance, 0.05, "terminal", 1e-15),
        (folded_demo_instance, 0.3, "state", 1e-7)])
    def test_probe_weights_are_the_exact_lift(self, make, eps_out, mode,
                                              rel_recurrence):
        inst = make()
        hyp = run_pipeline_certificate(inst, eps_out, mode=mode).hypotheses
        got = (hyp["H4_initial_weight"]["probe_value"],
               hyp["H5_terminal_weight"]["p_star"] / _P_STAR_FRACTION)
        assert got == pytest.approx(_weights_of_lift(inst), rel=1e-14)
        assert got == pytest.approx(_weights_by_recurrence(inst),
                                    rel=rel_recurrence)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_closed_form_against_the_solved_lift(self, degree):
        # the random contractive ladder: the solved lift of an affine map is
        # exact, one of higher degree is off by at most the truncation tail;
        # with ||Y_solved - Y|| <= e, the unit stacks differ by at most
        # 2 e / ||Y||, and a squared block weight by twice that
        rng = np.random.default_rng(1100 + degree)
        for _ in range(12):
            rs = random_contractive(rng, rho_target=0.8, degree=degree)
            dev = [rs.v0]
            for _ in range(rs.t_window):
                dev.append(rs.coeffs.evaluate(dev[-1]))
            dev = np.array(dev)
            beta0, closed = lift_weights(dev, 0, rs.n_levels)
            _, system = horizon.lift_window(rs.coeffs, rs.n_levels, rs.v0,
                                            rs.t_window, rs.rho)
            stacked = solve_forward(system).stacked
            norm = float(np.linalg.norm(stacked))
            solved = extract_terminal(stacked / norm, 0, rs.coeffs.d,
                                      system.block_dim, rs.t_window).p_term
            assert beta0 == pytest.approx(np.linalg.norm(system.rhs[:system.block_dim]),
                                          rel=1e-14)
            if degree == 1:
                assert solved == pytest.approx(closed, rel=1e-12)
                continue
            vbar = float(np.linalg.norm(dev, axis=1).max())
            tail = tail_constant_and_cutoff(rs.coeffs, rs.n_levels, vbar,
                                            rs.t_window, rs.rho, 1e-3)
            exact = math.sqrt(sum(float(lift_state(v, rs.n_levels)
                                        @ lift_state(v, rs.n_levels))
                                  for v in dev))
            assert abs(solved - closed) <= 4.0 * tail.horizon_bound / exact

    def test_dense_windows_certify_under_two_gigabytes(self, pinned_child,
                                                       saturated_window):
        # under 2 GB, d = 12 and 16 need the probe's closed form, d = 24 and
        # 64 the step map's; dense d = 48 at T = 50 is past the stacked cap
        out = json.loads(pinned_child(
            inspect.getsource(saturated_window) + _DENSE_SCRIPT,
            json.dumps(_DENSE_CASES)))
        assert list(out) == [",".join(map(str, case)) for case in _DENSE_CASES]
        error, message = out.pop("2,46,50,dense")
        assert error == "MemoryError" and "MAX_STACKED_NNZ" in message
        for passed, flagged in out.values():
            assert passed or flagged
        assert out["2,62,10,banded"] == out["2,22,10,dense"] == [True, []]


# (m, n, T, coupling) of `saturated_window` runs, the last one too large
_DENSE_CASES = [(2, 10, 50, "dense"), (1, 15, 50, "dense"),
                (2, 62, 10, "banded"), (2, 22, 10, "dense"),
                (2, 46, 50, "dense")]
# runs after the source of `_saturated_window`, under RLIMIT_AS; a refusal
# reports its error type and message
_DENSE_SCRIPT = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from robustlift.readout import run_pipeline_certificate
out = {}
for m, n, t_window, coupling in json.loads(sys.argv[1]):
    key = f"{m},{n},{t_window},{coupling}"
    try:
        cert = run_pipeline_certificate(
            _saturated_window(m, n, t_window, coupling), 0.05)
    except MemoryError as err:
        out[key] = [type(err).__name__, str(err)]
        continue
    out[key] = [cert.passed, [name for name, h in cert.hypotheses.items()
                              if not h["pass"]]]
print(json.dumps(out))
"""


# to_json() of three certificates as the code emitted them before the
# fold was made single-pass; every later change must keep their bytes.
# p_star alone was recaptured when the probe took its terminal weight from
# the exact lift of its trajectory instead of the N = 4 recurrence, and
# kappa_measured alone when a Lanczos run on M^T M replaced the dense SVD.
# The two folded-demo files were recaptured, in trailing digits only, when
# their step map came from running the step closure on MultiPoly
# coordinates instead of a symbolic copy of the step.  All three were
# recaptured when the lift moved from Kronecker powers to the symmetric
# monomial basis: dim (306 -> 255, 434 -> 140, 882 -> 189), folded-demo's
# max_row_nnz, kappa_measured (the restriction of M to the symmetric
# tensors) and the solver's rounding-level residuals moved.
# The files were written, and are recomputed, by a child process with
# every BLAS pool at one thread (see `pinned_child`).
_ORACLE = Path(__file__).parent / "data"
_ORACLE_CASES = {
    "saturated_toy_T50_eps0.05_terminal.json": ("certify_instance", 50, 0.05, "terminal"),
    "folded_demo_T6_eps0.3_state.json": ("folded_demo_instance", 6, 0.3, "state"),
    "folded_demo_T6_eps0.05_state.json": ("folded_demo_instance", 6, 0.05, "state"),
}
_ORACLE_SCRIPT = """
import json, sys
from robustlift import instances
from robustlift.readout import run_pipeline_certificate
out = {}
for name, (make, t_window, eps_out, mode) in json.loads(sys.argv[1]).items():
    inst = getattr(instances, make)(t_window)
    out[name] = run_pipeline_certificate(inst, eps_out, mode=mode).to_json()
print(json.dumps(out))
"""


def _first_difference(got, want, path="$"):
    """Path of the first key or index, in document order, where two parsed
    JSON documents differ; None when they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in got or key not in want:
                return f"{path}.{key}"
            found = _first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None if list(got) == list(want) else f"{path} (key order)"
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{i}]")
            if found:
                return found
        return None if len(got) == len(want) else f"{path} (length)"
    return None if json.dumps(got) == json.dumps(want) else path


@pytest.fixture(scope="module")
def oracle_certificates(pinned_child):
    return json.loads(pinned_child(_ORACLE_SCRIPT, json.dumps(_ORACLE_CASES)))


class TestCertificateOracle:
    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_certificate_bytes_match(self, oracle_certificates, name):
        want = (_ORACLE / name).read_text()
        got = oracle_certificates[name]
        if got != want:
            where = _first_difference(json.loads(got), json.loads(want))
            pytest.fail(f"{name}: certificate differs first at {where or 'formatting'}")

    def test_bytes_do_not_depend_on_blas_threads(self, pinned_child):
        # kappa_measured comes from a Lanczos run whose arithmetic does not
        # depend on the BLAS pools, so one and two threads give one document
        cases = dict(_ORACLE_CASES, saturated_toy_T200=(
            "certify_instance", 200, 0.05, "terminal"))
        one, two = (json.loads(pinned_child(_ORACLE_SCRIPT, json.dumps(cases),
                                            threads=n)) for n in (1, 2))
        assert set(one) == set(cases)
        assert one == two
        assert json.loads(one["saturated_toy_T200"])["measurements"][
            "kappa_measured"] is not None

    def test_first_difference_names_the_key(self):
        want = {"a": 1, "b": {"c": [1.0, 2.0], "d": "x"}}
        assert _first_difference(want, want) is None
        assert _first_difference({"a": 1, "b": {"c": [1.0, 2.5], "d": "y"}},
                                 want) == "$.b.c[1]"
        assert _first_difference({"a": 1, "b": {"c": [1.0, 2.0]}}, want) == "$.b.d"
        assert _first_difference({"b": want["b"], "a": 1}, want) == "$ (key order)"


class TestRowAccessSpotCheck:
    def test_one_ulp_change_is_caught(self):
        coeffs = random_coeff_map(np.random.default_rng(5), 2, 2)
        step = build_lifted_step(coeffs, 2)
        y0 = lift_state(np.array([0.1, -0.2]), 2)
        system = assemble_horizon([step] * 5, y0, 0.5)
        assert system.dim <= 200  # every row is sampled
        assert system.matrix.nnz and system.matrix_normalized.nnz
        assert _row_access_spot_check(system, np.random.default_rng(0))
        b = step.b_matrix
        b.data[:] = np.nextafter(b.data, np.inf)
        assert not _row_access_spot_check(system, np.random.default_rng(0))

    def test_duplicate_entries_pass(self):
        # row 0 of B stores column 0 twice; the stacked matrix sums them
        b = sparse.csr_matrix(((0.1, 0.2, 0.3), (0, 0, 1), (0, 2, 3)),
                              shape=(2, 2))
        step = LiftedStep(b, np.zeros(2), 2, 1)
        system = assemble_horizon([step] * 2, np.zeros(2), 0.5)
        row = system.matrix_normalized[2].toarray()[0]
        got = horizon.row_access(system, 1, 0)
        assert got == [(0, row[0]), (2, row[2])]
        assert row[0] == -(0.1 + 0.2) * system.inv_scale
        assert _row_access_spot_check(system, np.random.default_rng(0))
