"""Release gate: the twelve properties the package promises, one test each.

Every test prints one [PASS]/[FAIL] line with the measured quantities, so
`pytest -s tests/test_acceptance.py` reads as a checklist.  Tolerances here
are the contract; loosen nothing without a ledger entry.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from robustlift.bench import (
    MODE_ALPHA,
    ReducedTask,
    load_mnist_reduced,
    plateau_ratio,
    train_reduced,
)
from robustlift.carleman import (
    build_lifted_step,
    lift_lipschitz,
    lift_state,
    run_truncated_recurrence,
    tail_constant_and_cutoff,
)
from robustlift.dynamics import (
    AffineGradient,
    AttackSubstep,
    CoupledState,
    LearnerSubstep,
    PolynomialGradient,
    StepSchedule,
    compose_schedule,
    exact_outer_step,
    expand_polynomial_map,
    folded_poly_step,
    folded_step_closure,
    one_step_delta_bound,
)
from robustlift.horizon import (
    assemble_horizon,
    condition_bounds,
    hockey_stick_total,
    row_access,
    sparsity_bounds,
)
from robustlift.instances import certify_instance, random_contractive
from robustlift.multipoly import MultiPoly
from robustlift.polyapprox import (
    ClipSpec,
    OddPolynomial,
    SignSpec,
    clip_checks,
    design_clip_poly,
    design_sign_poly,
    sign_checks,
    verify_poly_spec,
)
from robustlift.readout import run_pipeline_certificate
from robustlift.solver import solve_forward, solve_linear_system


def _gate(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """110 certified-contractive draws with their solved horizon systems.

    The clock covers assembly, forward substitution and the sparse solve;
    drawing and rescaling the coefficient maps is setup, not solve time.
    """
    rng = np.random.default_rng(20260814)
    draws = [random_contractive(rng, rho_target=0.8) for _ in range(110)]
    entries = []
    t0 = time.perf_counter()
    for rs in draws:
        step = build_lifted_step(rs.coeffs, rs.n_levels)
        y0 = lift_state(rs.v0, rs.n_levels)
        system = assemble_horizon([step] * rs.t_window, y0, rs.rho)
        entries.append({
            "rs": rs,
            "step": step,
            "system": system,
            "fwd": solve_forward(system),
            "sol": solve_linear_system(system),
        })
    elapsed = time.perf_counter() - t0
    return {"entries": entries, "elapsed": elapsed}


def test_criterion_01_forward_matches_solve(corpus):
    worst_rel = 0.0
    worst_res = 0.0
    for e in corpus["entries"]:
        gap = float(np.linalg.norm(e["fwd"].stacked - e["sol"].stacked))
        rel = gap / max(float(np.linalg.norm(e["fwd"].stacked)), 1e-300)
        worst_rel = max(worst_rel, rel)
        worst_res = max(worst_res, e["fwd"].residual, e["sol"].residual)
    n = len(corpus["entries"])
    elapsed = corpus["elapsed"]
    ok = (n >= 100 and worst_rel <= 1e-10 and worst_res <= 1e-12
          and elapsed <= 60.0)
    _gate(1, "forward recursion vs sparse solve", ok,
          f"n={n} rel={worst_rel:.2e} resid={worst_res:.2e} "
          f"time={elapsed:.1f}s")


def test_criterion_02_linear_lift_is_exact():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        rs = random_contractive(rng, degree=1)
        traj = dataclasses.replace(rs, t_window=50).trajectory()
        for n_levels in range(1, 5):
            step = build_lifted_step(rs.coeffs, n_levels)
            res = run_truncated_recurrence(
                [step] * 50, lift_state(rs.v0, n_levels), 50,
                reference=list(traj))
            worst = max(worst, float(np.abs(res.eta).max()))
    ok = worst <= 1e-12
    _gate(2, "degree-one dynamics lift exactly", ok,
          f"max|eta|={worst:.2e} over t<=50, N<=4")


def test_criterion_03_truncation_bounds_hold():
    rng = np.random.default_rng(47)
    n = 110
    violations = 0
    worst_uni = 0.0
    worst_stack = 0.0
    for _ in range(n):
        deg = int(rng.integers(2, 4))
        rs = random_contractive(rng, degree=deg, rho_target=0.8)
        assert rs.rho <= 0.8
        traj = rs.trajectory()
        vbar = float(np.linalg.norm(traj, axis=1).max())
        step = build_lifted_step(rs.coeffs, rs.n_levels)
        res = run_truncated_recurrence(
            [step] * rs.t_window, lift_state(rs.v0, rs.n_levels),
            rs.t_window, reference=list(traj))
        tail = tail_constant_and_cutoff(rs.coeffs, rs.n_levels, vbar,
                                        rs.t_window, rs.rho, eps_tr=1.0)
        peak = float(np.linalg.norm(res.eta, axis=1).max())
        stacked = float(np.linalg.norm(res.eta))
        if peak > tail.uniform_bound or stacked > tail.horizon_bound:
            violations += 1
        if tail.uniform_bound > 0:
            worst_uni = max(worst_uni, peak / tail.uniform_bound)
        if tail.horizon_bound > 0:
            worst_stack = max(worst_stack, stacked / tail.horizon_bound)
    ok = violations == 0 and n >= 100
    _gate(3, "measured tails below certified bounds", ok,
          f"n={n} violations={violations} "
          f"uniform ratio<={worst_uni:.3f} stacked ratio<={worst_stack:.3f}")


def test_criterion_04_conditioning_within_bounds(corpus):
    measured = 0
    bad = 0
    worst_kappa_gap = -math.inf
    for e in corpus["entries"]:
        rs = e["rs"]
        rep = condition_bounds(rs.rho, rs.t_window, system=e["system"])
        if rep.measured_kappa is None:
            continue  # the Lanczos run reached its iteration cap
        measured += 1
        closed = min((1.0 + rs.rho) / (1.0 - rs.rho),
                     2.0 * (rs.t_window + 1))
        if (rep.measured_kappa > closed + 1e-8
                or rep.measured_norm > 1.0 + rs.rho):
            bad += 1
        worst_kappa_gap = max(worst_kappa_gap, rep.measured_kappa - closed)
    ok = bad == 0 and measured >= 50
    _gate(4, "SVD condition number under closed form", ok,
          f"measured={measured} violations={bad} "
          f"worst kappa-bound gap={worst_kappa_gap:.2e}")


def test_criterion_05_majorant_dominates_block_norm(corpus):
    bad = 0
    worst = -math.inf
    for e in corpus["entries"]:
        b_norm = float(np.linalg.norm(e["step"].b_matrix.toarray(), 2))
        excess = b_norm - e["rs"].rho
        worst = max(worst, excess)
        if excess > 1e-6:
            bad += 1
    identity_ok = all(
        hockey_stick_total(j, n) == sum(math.comb(s + j - 1, j - 1)
                                        for s in range(1, n + 1))
        for j in range(1, 9) for n in range(1, 9))
    ok = bad == 0 and identity_ok
    _gate(5, "block norm below majorant, sparsity identity exact", ok,
          f"violations={bad} worst ||B||-rho={worst:.2e} "
          f"identity(j,N<=8)={identity_ok}")


def test_criterion_06_sparsity_and_row_access(corpus):
    rng = np.random.default_rng(59)
    nnz_bad = 0
    rows_checked = 0
    rows_bad = 0
    for e in corpus["entries"]:
        rs = e["rs"]
        system = e["system"]
        report = sparsity_bounds(rs.coeffs.row_sparsities(), rs.n_levels)
        max_nnz = int(np.diff(system.matrix.indptr).max())
        if max_nnz > report.s_row:
            nnz_bad += 1
        mat = system.matrix_normalized
        mat.sort_indices()
        for _ in range(10):
            t = int(rng.integers(0, system.t_window + 1))
            r = int(rng.integers(0, system.block_dim))
            got = row_access(system, t, r)
            idx = t * system.block_dim + r
            lo, hi = mat.indptr[idx], mat.indptr[idx + 1]
            cols = np.array([c for c, _ in got])
            vals = np.array([v for _, v in got])
            rows_checked += 1
            if not (np.array_equal(cols, mat.indices[lo:hi])
                    and np.array_equal(vals, mat.data[lo:hi])):
                rows_bad += 1
    ok = nnz_bad == 0 and rows_bad == 0 and rows_checked >= 1000
    _gate(6, "row sparsity bound and bit-exact row access", ok,
          f"nnz violations={nnz_bad} rows={rows_checked} "
          f"mismatches={rows_bad}")


def test_criterion_07_certified_polys_and_one_step_bound():
    spec_s = SignSpec(1.0, 0.2, 0.05)
    spec_c = ClipSpec(2.0, 0.1, 0.02)
    p_s = design_sign_poly(spec_s)
    p_c = design_clip_poly(spec_c)
    cert_s = verify_poly_spec(p_s, sign_checks(spec_s))
    cert_c = verify_poly_spec(p_c, clip_checks(spec_c))

    grads = AffineGradient(
        a_delta=np.array([[0.1, -0.05, 0.2], [0.0, 0.15, -0.1]]),
        b_delta=np.array([0.6, -0.55]),
        a_u=np.array([[0.4, -0.3, 0.5]]),
        b_u=np.array([0.2]),
    )
    eps, eta_d = 0.1, 0.05
    sched = StepSchedule.uniform(1, eps_ball=eps, eta_delta=eta_d, eta_u=0.08)
    bound = one_step_delta_bound(2, eta_d, spec_s.delta, eps, spec_c.delta)
    rng = np.random.default_rng(67)
    checked = 0
    trials = 0
    violations = 0
    worst = 0.0
    while checked < 1000:
        trials += 1
        assert trials < 300_000
        v = CoupledState(rng.uniform(-eps, eps, 2), rng.uniform(-1, 1, 1))
        w = grads.g_delta(v.vector)
        if not ((np.abs(w) >= spec_s.tau) & (np.abs(w) <= 1.0)).all():
            continue
        z = np.abs((v.delta + eta_d * p_s(w)) / eps)
        if not ((z <= 1.0 - spec_c.tau)
                | ((z >= 1.0 + spec_c.tau) & (z <= spec_c.big_l))).all():
            continue
        checked += 1
        a = exact_outer_step(v, 0, sched, grads)
        b = folded_poly_step(v, 0, sched, grads, p_s, p_c)
        err = float(np.linalg.norm(a.delta - b.delta))
        worst = max(worst, err)
        if err > bound:
            violations += 1
    ok = cert_s.passed and cert_c.passed and violations == 0
    _gate(7, "certified surrogates within the one-step bound", ok,
          f"sign cert={cert_s.passed} clip cert={cert_c.passed} "
          f"states={checked} violations={violations} "
          f"worst={worst:.2e} bound={bound:.2e}")


def _degree_gradients(q: int):
    if q == 1:
        return AffineGradient(
            a_delta=np.array([[0.3, -0.2]]), b_delta=np.array([0.02]),
            a_u=np.array([[0.25, 0.4]]), b_u=np.array([0.03]))
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    return PolynomialGradient(
        [x * x * 0.3 + y * 0.2 + MultiPoly.constant(2, 0.05)],
        [x * y * 0.3 + y * 0.2 + MultiPoly.constant(2, 0.02)],
        m=1, n=1, eps_u_grad=0.0, l_u_delta=1.0)


def test_criterion_08_degree_bounds_confirmed():
    # exact-FFT expansion grids are capped at 2e6 points; only the q = 2,
    # K_t = 2 corners with K_s K_c > 9 exceed the cap, and every
    # (K_t, L_t) pair, every q and every K value still appears covered
    max_grid = 2_000_000
    odd = {1: [0.6], 3: [0.6, 0.15], 5: [0.6, 0.15, 0.05]}
    sched = StepSchedule.uniform(1, eps_ball=0.2, eta_delta=0.02,
                                 eta_u=0.05, alpha=1.0)
    folded = 0
    for q in (1, 2):
        grads = _degree_gradients(q)
        for ks in (1, 3, 5):
            for kc in (1, 3, 5):
                p_s = OddPolynomial(np.array(odd[ks]), 1.0)
                p_c = OddPolynomial(np.array(odd[kc]), 2.0)
                bound = q * q * ks * kc
                closure = folded_step_closure(0, sched, grads, p_s, p_c)
                coeffs = expand_polynomial_map(closure, 2, bound,
                                               radius=0.05)
                assert coeffs.degree <= bound
                folded += 1
    # non-vacuity witness: this fold attains its cap exactly
    grads = _degree_gradients(1)
    tight = expand_polynomial_map(
        folded_step_closure(0, sched, grads,
                            OddPolynomial(np.array(odd[3]), 1.0),
                            OddPolynomial(np.array(odd[3]), 2.0)),
        2, 9, radius=0.6)
    assert tight.degree == 9

    composed = 0
    skipped = []
    for q in (1, 2):
        grads = _degree_gradients(q)
        for ks in (1, 3, 5):
            for kc in (1, 3, 5):
                p_s = OddPolynomial(np.array(odd[ks]), 1.0)
                p_c = OddPolynomial(np.array(odd[kc]), 2.0)
                for k_t in (1, 2):
                    for l_t in (1, 2):
                        closure, plan = compose_schedule(
                            [AttackSubstep(0.02, 1.0)] * k_t,
                            [LearnerSubstep(0.05)] * l_t,
                            0.2, grads, p_s, p_c)
                        bound = plan.degree_bound
                        assert bound == (q * ks * kc) ** k_t * q ** l_t
                        if (bound + 1) ** 2 > max_grid:
                            skipped.append((q, ks, kc, k_t, l_t))
                            continue
                        coeffs = expand_polynomial_map(closure, 2, bound,
                                                       radius=0.05)
                        assert coeffs.degree <= bound
                        composed += 1
    assert all(q == 2 and k_t == 2 and ks * kc > 9
               for q, ks, kc, k_t, l_t in skipped)
    covered_pairs = {(1, 1), (1, 2), (2, 1), (2, 2)}
    ok = folded == 18 and composed == 66 and len(skipped) == 6
    _gate(8, "expansion confirms the degree caps", ok,
          f"folded={folded}/18 composed={composed}/72 "
          f"grid-capped={len(skipped)} pairs covered={sorted(covered_pairs)}")


def test_criterion_09_lift_lipschitz_on_ball():
    rng = np.random.default_rng(53)
    vbar = 0.8
    pairs = 0
    violations = 0
    worst = 0.0

    def ball(n, d):
        x = rng.standard_normal((n, d))
        r = vbar * rng.uniform(size=n) ** (1.0 / d)
        return x * (r / np.linalg.norm(x, axis=1))[:, None]

    for n_levels in range(1, 6):
        for d in (1, 2, 3):
            lip = lift_lipschitz(n_levels, vbar)
            a, b = ball(667, d), ball(667, d)
            for i in range(667):
                lhs = float(np.linalg.norm(
                    lift_state(a[i], n_levels) - lift_state(b[i], n_levels)))
                rhs = lip * float(np.linalg.norm(a[i] - b[i]))
                pairs += 1
                if lhs > rhs + 1e-12:
                    violations += 1
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
    ok = violations == 0 and pairs >= 10_000
    _gate(9, "lift is Lipschitz on the 0.8 ball", ok,
          f"pairs={pairs} violations={violations} worst ratio={worst:.3f}")


def test_criterion_10_end_to_end_certificate():
    inst = certify_instance(50)
    cert = run_pipeline_certificate(inst, 0.05)
    hyp_ok = all(cert.hypotheses[k]["pass"] for k in (
        "H1_contractive_window", "H2_state_radius", "H3_access_model",
        "H4_initial_weight", "H5_terminal_weight"))
    direct = inst.v0
    for t in range(50):
        direct = exact_outer_step(direct, t, inst.sched, inst.grads)
    gap = float(abs(cert.terminal["reconstructed_u"][0] - direct.u[0]))
    measured = cert.terminal["measured_error_normalized"]
    ok = cert.passed and hyp_ok and measured <= 0.05 and gap <= 1e-10
    _gate(10, "pipeline certificate on the designed task", ok,
          f"passed={cert.passed} H1-H5={hyp_ok} "
          f"terminal err={measured:.2e}<=0.05 exact-regime gap={gap:.2e}")


def test_criterion_11_bench_properties():
    dataset = load_mnist_reduced(seed=0)
    task = ReducedTask()  # 1e4 steps, batch 5, PGD 0.025 / 0.01 / 10
    modes = ("clean", "mixed", "robust")
    assert {MODE_ALPHA[m] for m in modes} == {0.0, 0.5, 1.0}
    t0 = time.perf_counter()
    results = {m: train_reduced(task, m, dataset, seed=0) for m in modes}
    elapsed = time.perf_counter() - t0

    final = {m: results[m].rows[-1] for m in modes}
    strict = final["robust"].robust_acc > final["clean"].robust_acc
    per_model = all(final[m].robust_acc <= final[m].clean_acc
                    for m in modes)
    curves = [[r.clean_acc for r in results[m].rows] for m in modes]
    curves += [[r.robust_acc for r in results[m].rows] for m in modes]
    worst_plateau = max(plateau_ratio(c) for c in curves)
    diverged = any(results[m].diverged for m in modes)
    ok = (strict and per_model and worst_plateau < 0.1
          and elapsed <= 600.0 and not diverged)
    _gate(11, "adversarial training properties at desk scale", ok,
          f"robust@robust={final['robust'].robust_acc:.3f} > "
          f"robust@clean={final['clean'].robust_acc:.3f}: {strict}; "
          f"per-model ordering={per_model}; "
          f"plateau<={worst_plateau:.3f}; time={elapsed:.0f}s")


def test_criterion_12_resource_model():
    from robustlift.solver import ResourceModel, qlsa_estimate

    base = dict(s_row=8, kappa=3.0, dim=2.0**20, eps_ls=1e-3)
    est = qlsa_estimate(ResourceModel(a_ancilla=10, **base))
    qubits_ok = est.qubits == 42

    ref = qlsa_estimate(ResourceModel(**base)).queries
    monotone = (
        qlsa_estimate(ResourceModel(**{**base, "s_row": 16})).queries > ref
        and qlsa_estimate(ResourceModel(**{**base, "kappa": 6.0})).queries > ref
        and qlsa_estimate(ResourceModel(**{**base, "dim": 2.0**24})).queries > ref
        and qlsa_estimate(ResourceModel(**{**base, "eps_ls": 1e-6})).queries > ref)

    plain = qlsa_estimate(ResourceModel(**base))
    fast = qlsa_estimate(ResourceModel(qram=True, **base))
    qram_ok = (plain.prep_gates == 2.0**20
               and fast.prep_gates == pytest.approx(20.0)
               and fast.gates < plain.gates
               and "qram" in fast.formulas["prep"])
    ok = qubits_ok and monotone and qram_ok
    _gate(12, "resource model frozen point, monotone, qRAM swap", ok,
          f"qubits={est.qubits}==42; monotone={monotone}; qram={qram_ok}")
