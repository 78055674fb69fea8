"""Outer step, polynomial surrogate, coefficient expansion, composition."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from robustlift import dynamics
from robustlift.carleman import build_lifted_step, level_offsets, lift_state
from robustlift.dynamics import (
    AffineGradient,
    AttackSubstep,
    CoupledState,
    LearnerSubstep,
    PolynomialGradient,
    PolynomialMapCoeffs,
    StepMonitor,
    StepSchedule,
    compose_schedule,
    exact_outer_step,
    expand_polynomial_map,
    folded_poly_step,
    folded_step_closure,
    one_step_delta_bound,
    scaled_base_step_error_bound,
    schedule_error_constant,
)
from robustlift.dynamics import DegreeOverflowError
from robustlift.instances import folded_demo_instance
from robustlift.multipoly import MultiPoly
from robustlift.polyapprox import (
    ClipSpec,
    OddPolynomial,
    SignSpec,
    design_clip_poly,
    design_sign_poly,
)

RNG = np.random.default_rng(11)


class ExactSign:
    halfwidth = 1.0

    def __call__(self, x):
        return np.sign(np.real(x))


class ExactSat:
    halfwidth = 1.0

    def __call__(self, x):
        return np.clip(np.real(x), -1.0, 1.0)


def _coordinates(d):
    """The d variables as an object array the step closures run on."""
    return np.array([MultiPoly.variable(d, i) for i in range(d)], dtype=object)


def toy_gradient():
    # m=2, n=1
    return AffineGradient(
        a_delta=np.array([[0.1, -0.05, 0.2], [0.0, 0.15, -0.1]]),
        b_delta=np.array([0.6, -0.55]),
        a_u=np.array([[0.4, -0.3, 0.5]]),
        b_u=np.array([0.2]),
    )


class TestExactStep:
    def test_zero_gradient_is_fixed_point(self):
        grads = AffineGradient(
            a_delta=np.zeros((1, 2)), b_delta=np.zeros(1),
            a_u=np.zeros((1, 2)), b_u=np.zeros(1))
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05, eta_u=0.1)
        v = CoupledState(np.zeros(1), np.array([0.3]))
        out = exact_outer_step(v, 0, sched, grads)
        assert np.array_equal(out.delta, v.delta)
        assert np.array_equal(out.u, v.u)

    def test_clamp_at_ball_boundary(self):
        grads = AffineGradient(
            a_delta=np.zeros((1, 2)), b_delta=np.array([1.0]),
            a_u=np.zeros((1, 2)), b_u=np.zeros(1))
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05, eta_u=0.0)
        v = CoupledState(np.array([0.09]), np.array([0.0]))
        out = exact_outer_step(v, 0, sched, grads)
        assert float(out.delta[0]) == 0.1

    def test_projection_invariant(self):
        grads = toy_gradient()
        sched = StepSchedule.uniform(30, eps_ball=0.1, eta_delta=0.07, eta_u=0.05)
        v = CoupledState(np.array([0.02, -0.08]), np.array([0.4]))
        for t in range(30):
            v = exact_outer_step(v, t, sched, grads)
            assert np.max(np.abs(v.delta)) <= 0.1 + 1e-15

    def test_five_step_trajectory_matches_reference(self):
        # independent scalar-by-scalar reimplementation
        grads = toy_gradient()
        eps, eta_d, eta_u = 0.1, 0.05, 0.08
        sched = StepSchedule.uniform(5, eps_ball=eps, eta_delta=eta_d,
                                     eta_u=eta_u)
        d0, d1, u0 = 0.03, -0.02, 0.5
        v = CoupledState(np.array([d0, d1]), np.array([u0]))
        ref = [d0, d1, u0]
        for t in range(5):
            g0 = (0.1 * ref[0] - 0.05 * ref[1] + 0.2 * ref[2] + 0.6)
            g1 = (0.15 * ref[1] - 0.1 * ref[2] - 0.55)
            s0 = 0.0 if g0 == 0 else math.copysign(1.0, g0)
            s1 = 0.0 if g1 == 0 else math.copysign(1.0, g1)
            p0 = min(max(ref[0] + eta_d * s0, -eps), eps)
            p1 = min(max(ref[1] + eta_d * s1, -eps), eps)
            gu = 0.4 * p0 - 0.3 * p1 + 0.5 * ref[2] + 0.2
            ref = [p0, p1, ref[2] - eta_u * gu]
            v = exact_outer_step(v, t, sched, grads)
            np.testing.assert_allclose(v.vector, ref, rtol=0, atol=1e-15)

    def test_sign_zero_convention(self):
        # gradient exactly zero leaves delta in place, not off by eta
        grads = AffineGradient(
            a_delta=np.zeros((1, 2)), b_delta=np.zeros(1),
            a_u=np.zeros((1, 2)), b_u=np.zeros(1))
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05, eta_u=0.1)
        out = exact_outer_step(
            CoupledState(np.array([0.04]), np.array([0.0])), 0, sched, grads)
        assert float(out.delta[0]) == 0.04


class TestFoldedStep:
    def test_exact_shims_reproduce_exact_step(self):
        grads = toy_gradient()
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05, eta_u=0.08)
        hits = 0
        for _ in range(300):
            v = CoupledState(RNG.uniform(-0.1, 0.1, 2), RNG.uniform(-1, 1, 1))
            g = grads.g_delta(v.vector)
            if np.min(np.abs(g)) < 1e-3 or np.max(np.abs(g)) > 1.0:
                continue
            hits += 1
            a = exact_outer_step(v, 0, sched, grads)
            b = folded_poly_step(v, 0, sched, grads, ExactSign(), ExactSat())
            np.testing.assert_allclose(b.vector, a.vector, atol=1e-12)
        assert hits > 50

    def test_one_step_delta_bound_on_admissible_states(self):
        # zero violations of sqrt(m)(eta_d delta_s + eps delta_c) over 10^3
        # states inside the certified sign gap and clip regions
        p_s = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        p_c = design_clip_poly(ClipSpec(2.0, 0.1, 0.02))
        grads = toy_gradient()
        eps, eta_d = 0.1, 0.05
        sched = StepSchedule.uniform(1, eps_ball=eps, eta_delta=eta_d,
                                     eta_u=0.08)
        bound = one_step_delta_bound(2, eta_d, 0.05, eps, 0.02)
        assert bound == pytest.approx(math.sqrt(2) * (eta_d * 0.05 + eps * 0.02))
        checked = 0
        trials = 0
        while checked < 1000:
            trials += 1
            assert trials < 200_000
            v = CoupledState(RNG.uniform(-eps, eps, 2), RNG.uniform(-1, 1, 1))
            w = grads.g_delta(v.vector)
            if not ((np.abs(w) >= 0.2) & (np.abs(w) <= 1.0)).all():
                continue
            z = (v.delta + eta_d * p_s(w)) / eps
            az = np.abs(z)
            if not ((az <= 0.9) | ((az >= 1.1) & (az <= 2.0))).all():
                continue
            checked += 1
            a = exact_outer_step(v, 0, sched, grads)
            b = folded_poly_step(v, 0, sched, grads, p_s, p_c)
            assert np.linalg.norm(a.delta - b.delta) <= bound

    def test_monitor_flags_domain_excursions(self):
        grads = toy_gradient()
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.5, eta_u=0.0)
        monitor = StepMonitor(tau_s=0.2, tau_c=0.1, big_l=2.0)
        # eta_delta = 5 eps drives |z| way past the clip range
        v = CoupledState(np.array([0.1, 0.1]), np.array([1.0]))
        with pytest.warns(RuntimeWarning):
            folded_poly_step(v, 0, sched, grads, ExactSign(), ExactSat(),
                             monitor)
        assert not monitor.clean
        assert monitor.clip_range == 1

    def test_monitor_stays_clean_inside_domain(self):
        grads = toy_gradient()
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05,
                                     eta_u=0.0)
        monitor = StepMonitor(tau_s=0.2, tau_c=0.1, big_l=2.0)
        v = CoupledState(np.array([-0.05, 0.02]), np.array([0.1]))
        w = grads.g_delta(v.vector)
        assert ((np.abs(w) > 0.2) & (np.abs(w) < 1.0)).all()
        folded_poly_step(v, 0, sched, grads, ExactSign(), ExactSat(), monitor)
        assert monitor.checked == 1

    def test_structural_polys_equal_closure(self):
        # the affine gradient's step, run on MultiPoly coordinates, gives
        # coordinate polynomials that agree with the numeric step
        p_s = OddPolynomial(np.array([1.2, -0.25]), halfwidth=1.0)
        p_c = OddPolynomial(np.array([0.9, 0.05, -0.02]), halfwidth=2.0)
        grads = toy_gradient()
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05,
                                     eta_u=0.08, alpha=1.3)
        closure = folded_step_closure(0, sched, grads, p_s, p_c)
        polys = closure(_coordinates(3))
        assert all(isinstance(p, MultiPoly) for p in polys)
        pts = RNG.uniform(-0.3, 0.3, size=(50, 3))
        got = np.stack([p(pts) for p in polys], axis=-1)
        np.testing.assert_allclose(got, closure(pts), rtol=1e-9, atol=1e-11)

    def test_recentre_conjugates_the_map(self):
        # folded-demo's map in y = S (v - c) is the step conjugated there
        inst = folded_demo_instance()
        p_s, p_c = inst.design_polys(0.05, 0.05)
        closure = folded_step_closure(0, inst.sched, inst.grads, p_s, p_c)
        c, s = inst.center, inst.scale
        y = RNG.uniform(-1.0, 1.0, size=(50, 2))
        np.testing.assert_allclose(inst.build_expansion(p_s, p_c).evaluate(y),
                                   s * (closure(c + y / s) - c),
                                   rtol=1e-13, atol=1e-13)

    def test_step_on_multipoly_coordinates_is_the_step(self):
        # criterion 08's quadratic gradient takes the same route
        x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        grads = PolynomialGradient(
            [x0 * x0 * 0.3 + x1 * 0.2 + MultiPoly.constant(2, 0.05)],
            [x0 * x1 * 0.3 + x1 * 0.2 + MultiPoly.constant(2, 0.02)],
            m=1, n=1, eps_u_grad=0.0, l_u_delta=1.0)
        sched = StepSchedule.uniform(1, eps_ball=0.2, eta_delta=0.02,
                                     eta_u=0.05, alpha=1.0)
        closure = folded_step_closure(
            0, sched, grads, OddPolynomial(np.array([0.6, 0.15]), 1.0),
            OddPolynomial(np.array([0.6, 0.15, 0.05]), 2.0))
        polys = closure(_coordinates(2))
        pts = RNG.uniform(-0.5, 0.5, size=(50, 2))
        np.testing.assert_allclose(np.stack([p(pts) for p in polys], axis=-1),
                                   closure(pts), rtol=1e-13, atol=1e-15)


class TestExpansion:
    def test_identity_map(self):
        def identity(pts):
            return np.asarray(pts)

        coeffs = expand_polynomial_map(identity, d=3, d_max=2)
        assert coeffs.degree == 1
        # level one of the lift is the map's linear part
        lin = build_lifted_step(coeffs, 1).b_matrix.toarray()
        np.testing.assert_allclose(lin, np.eye(3), atol=1e-12)
        assert not coeffs.terms.get(0)

    def test_quadratic_pair_oracle(self):
        # (v1^2, v1 v2) reconstructed to 1e-12 on random points
        def quad(pts):
            pts = np.asarray(pts)
            return np.stack([pts[..., 0] ** 2, pts[..., 0] * pts[..., 1]],
                            axis=-1)

        coeffs = expand_polynomial_map(quad, d=2, d_max=2)
        pts = RNG.uniform(-1, 1, size=(100, 2))
        np.testing.assert_allclose(coeffs.evaluate(pts), quad(pts),
                                   rtol=1e-12, atol=1e-12)
        assert coeffs.degree == 2

    def test_degree_overflow_raises(self):
        def cubic(pts):
            pts = np.asarray(pts)
            return np.stack([pts[..., 0] ** 3, pts[..., 1]], axis=-1)

        with pytest.raises(DegreeOverflowError):
            expand_polynomial_map(cubic, d=2, d_max=2)

    def test_folded_degree_bound_simple_schedule(self):
        # degree <= q^2 K_s K_c at q=1, K_s=3, K_c=3
        p_s = OddPolynomial(np.array([0.8, 0.1]))          # degree 3
        p_c = OddPolynomial(np.array([0.9, -0.05]), halfwidth=2.0)
        grads = toy_gradient()                              # q = 1
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05,
                                     eta_u=0.08)
        cap = grads.q ** 2 * p_s.degree * p_c.degree
        assert cap == 9
        closure = folded_step_closure(0, sched, grads, p_s, p_c)
        coeffs = expand_polynomial_map(closure, d=3, d_max=cap, radius=0.5)
        assert coeffs.degree <= cap

    def test_evaluation_identity_invariant(self):
        p_s = OddPolynomial(np.array([1.05, -0.12]))
        p_c = OddPolynomial(np.array([0.92, 0.04]), halfwidth=2.0)
        grads = toy_gradient()
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05,
                                     eta_u=0.08)
        closure = folded_step_closure(0, sched, grads, p_s, p_c)
        coeffs = expand_polynomial_map(closure, d=3, d_max=9, radius=0.5)
        pts = RNG.uniform(-0.25, 0.25, size=(100, 3))
        truth = closure(pts)
        err = np.linalg.norm(coeffs.evaluate(pts) - truth, axis=1)
        assert (err <= 1e-10 * (1 + np.linalg.norm(truth, axis=1))).all()


def _loop_terms(step_closure, d, d_max, radius=1.0):
    """Reference extraction: one grid point at a time, in np.ndindex order."""
    npts = d_max + 1
    n = dynamics._fast_fft_length(npts)
    half = radius * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    if n % 2 == 0:
        half[-1] = -radius
    base = np.concatenate([half, np.conj(half[1:(n + 1) // 2][::-1])])
    grids = np.meshgrid(*([base] * (d - 1) + [half]), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(step_closure(pts)).reshape(
        (n,) * (d - 1) + (len(half), d))
    scale_cache = radius ** np.arange(npts, dtype=float)
    coeff_grid = np.fft.irfftn(np.conj(vals), s=(n,) * d, axes=range(d))
    coeff_grid = coeff_grid[(slice(0, npts),) * d]
    mags = np.abs(coeff_grid)
    floor = 1e-12 * max(1.0, float(mags.max()))
    terms = {}
    for beta in np.ndindex(*([npts] * d)):
        vec = coeff_grid[beta]
        if np.abs(vec).max() <= floor:
            continue
        descale = 1.0
        for b in beta:
            descale *= scale_cache[b]
        real = np.real(vec) / descale
        real[np.abs(real) <= floor] = 0.0
        if not real.any():
            continue
        terms.setdefault(int(sum(beta)), {})[tuple(int(b) for b in beta)] = real
    return terms


def _full_grid_terms(step_closure, d, d_max, radius=1.0):
    """Independent reference: complex fftn over the whole (d_max + 1)^d
    circle grid at the prime-or-any length d_max + 1, with no real
    symmetry assumed; the same floor, descale and keep rules."""
    npts = d_max + 1
    base = radius * np.exp(2j * np.pi * np.arange(npts) / npts)
    grids = np.meshgrid(*([base] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(step_closure(pts)).reshape((npts,) * d + (d,))
    coeff_grid = np.empty((npts,) * d + (d,), dtype=complex)
    for i in range(d):
        coeff_grid[..., i] = np.fft.fftn(vals[..., i]) / npts**d
    mags = np.abs(coeff_grid)
    floor = 1e-12 * max(1.0, float(mags.max()))
    scale_cache = radius ** np.arange(npts, dtype=float)
    betas = np.argwhere(~(mags.max(axis=-1) <= floor))
    descale = np.ones(len(betas))
    for axis in range(d):
        descale *= scale_cache[betas[:, axis]]
    real = coeff_grid[tuple(betas.T)].real / descale[:, None]
    real[np.abs(real) <= floor] = 0.0
    keep = real.any(axis=1)
    terms = {}
    for beta, row in zip(betas[keep].tolist(), real[keep]):
        terms.setdefault(sum(beta), {})[tuple(beta)] = row
    return PolynomialMapCoeffs(d, terms)


def _surrogate_design_fold(seed=0):
    """The shape of the benchmark's fold: a seed-drawn quadratic gradient
    and odd surrogates of degree 7 and 15, degree bound 420, radius 0.05."""
    rng = np.random.default_rng(seed)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    a = rng.uniform(0.1, 0.4, size=6)
    grads = PolynomialGradient(
        [x * x * a[0] + y * a[1] + MultiPoly.constant(2, a[2] / 4)],
        [x * y * a[3] + y * a[4] + MultiPoly.constant(2, a[5] / 4)],
        m=1, n=1, eps_u_grad=0.0, l_u_delta=1.0)
    sched = StepSchedule.uniform(1, eps_ball=0.2, eta_delta=0.02,
                                 eta_u=0.05, alpha=1.0)
    decay_s, decay_c = 0.3 ** np.arange(4), 0.6 ** np.arange(8)
    q_s = OddPolynomial(0.6 * decay_s * rng.uniform(0.5, 1.0, 4), 1.0)
    q_c = OddPolynomial(0.6 * decay_c * rng.uniform(0.5, 1.0, 8), 2.0)
    return folded_step_closure(0, sched, grads, q_s, q_c)


def _cubic_field(pts):
    p = np.asarray(pts)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([0.3 * x - 0.2 * y * z + 0.05 * x**3 + 0.01,
                     0.4 * y + 0.1 * x * x * z,
                     -0.25 * z + 0.07 * x * y * z], axis=-1)


def _zero_coordinate(pts):
    p = np.asarray(pts)
    return np.stack([0.5 * p[..., 0] * p[..., 1] - 0.1 * p[..., 1] ** 2,
                     np.zeros(p.shape[0])], axis=-1)


def _near_floor(pts):
    # grid magnitudes 0.9e-12 (under the 1e-12 floor) and 1.1e-12 (over it)
    p = np.asarray(pts)
    x, y = p[..., 0], p[..., 1]
    return np.stack([0.5 * x + 0.9e-12 * x * y, 0.5 * y + 1.1e-12 * x * y],
                    axis=-1)


def _power_field(pts):
    # dense coefficients up to degree 12 on an axis
    p = np.asarray(pts)
    x, y = p[..., 0], p[..., 1]
    return np.stack([(0.4 + 0.3 * x - 0.2 * y) ** 12,
                     0.5 * y * (0.6 - 0.25 * x * y) ** 5], axis=-1)


# half grids of several row blocks, the last one short: d = 2 at n = 216
# (216 rows of 109, 150 rows a block) and d = 3 at n = 32 (1024 rows of
# 17, 963 rows a block)
_MULTI_BLOCK_CASES = [(_power_field, 2, 200, 1.0), (_cubic_field, 3, 30, 0.5)]
_MULTI_BLOCK_IDS = ["d2-multi-block", "d3-multi-block"]


class TestExtractionMatchesLoop:
    @pytest.mark.parametrize("closure,d,d_max,radius", [
        (lambda p: np.asarray(p) * 0.5 + 0.2 * np.asarray(p) ** 3, 1, 5, 1.0),
        (lambda p: np.asarray(p) * 0.5 + 0.2 * np.asarray(p) ** 3, 1, 7, 0.3),
        (_zero_coordinate, 2, 4, 1.0),
        (_zero_coordinate, 2, 6, 0.05),
        (_near_floor, 2, 3, 1.0),
        (_cubic_field, 3, 3, 1.0),
        (_cubic_field, 3, 5, 0.5),
    ] + _MULTI_BLOCK_CASES, ids=["d1", "d1-radius", "d2-zero-coord",
                                "d2-zero-coord-radius", "d2-near-floor",
                                "d3", "d3-radius"] + _MULTI_BLOCK_IDS)
    def test_terms_bitwise_equal(self, closure, d, d_max, radius):
        got = expand_polynomial_map(closure, d, d_max, radius=radius).terms
        want = _loop_terms(closure, d, d_max, radius)
        assert list(got) == list(want)
        for ell, by_beta in want.items():
            assert list(got[ell]) == list(by_beta)
            for beta, coeff in by_beta.items():
                assert got[ell][beta].dtype == coeff.dtype
                assert got[ell][beta].tobytes() == coeff.tobytes()

    def test_floor_drops_and_keeps_near_coefficients(self):
        terms = expand_polynomial_map(_near_floor, 2, 3).terms
        assert terms[2][(1, 1)][0] == 0.0
        assert terms[2][(1, 1)][1] == pytest.approx(1.1e-12, rel=1e-3)

    def test_zero_coordinate_stays_zero(self):
        terms = expand_polynomial_map(_zero_coordinate, 2, 4).terms
        assert all(coeff[1] == 0.0 for by in terms.values()
                   for coeff in by.values())

    def test_overflow_still_raises(self):
        with pytest.raises(DegreeOverflowError):
            expand_polynomial_map(_cubic_field, 3, 2)


_EXPANSION_CASES = [
    (lambda p: np.asarray(p) * 0.5 + 0.2 * np.asarray(p) ** 3, 1, 5, 1.0),
    (lambda p: np.asarray(p) * 0.5 + 0.2 * np.asarray(p) ** 3, 1, 7, 0.3),
    (_zero_coordinate, 2, 4, 1.0),
    (_zero_coordinate, 2, 6, 0.05),
    (_near_floor, 2, 3, 1.0),
    (_cubic_field, 3, 3, 1.0),
    (_cubic_field, 3, 5, 0.5),
    (_surrogate_design_fold(), 2, 420, 0.05),
] + _MULTI_BLOCK_CASES
_EXPANSION_IDS = ["d1", "d1-radius", "d2-zero-coord", "d2-zero-coord-radius",
                  "d2-near-floor", "d3", "d3-radius",
                  "surrogate-design-fold"] + _MULTI_BLOCK_IDS


class TestHalfGridMatchesFullGrid:
    @pytest.mark.parametrize("closure,d,d_max,radius", _EXPANSION_CASES,
                             ids=_EXPANSION_IDS)
    def test_same_terms_and_evaluation(self, closure, d, d_max, radius):
        got = expand_polynomial_map(closure, d, d_max, radius=radius)
        want = _full_grid_terms(closure, d, d_max, radius)
        assert list(got.terms) == list(want.terms)
        for ell, by_beta in want.terms.items():
            assert list(got.terms[ell]) == list(by_beta)
        pts = np.random.default_rng(5).uniform(-0.5, 0.5, (200, d)) * radius
        ref = want.evaluate(pts)
        err = np.linalg.norm(got.evaluate(pts) - ref, axis=1)
        assert (err <= 1e-12 * (1.0 + np.linalg.norm(ref, axis=1))).all()

    def test_overflow_inside_the_padded_length_raises(self):
        # d_max = 6 samples at n = 8, which resolves x^7 exactly; a term
        # past d_max on an axis is still never kept
        assert dynamics._fast_fft_length(7) == 8

        def septic(pts):
            p = np.asarray(pts)
            return np.stack([0.5 * p[..., 0] + 0.1 * p[..., 0] ** 7,
                             0.5 * p[..., 1]], axis=-1)

        with pytest.raises(DegreeOverflowError):
            expand_polynomial_map(septic, 2, 6, radius=0.8)
        assert expand_polynomial_map(septic, 2, 7, radius=0.8).degree == 7

    def test_fast_fft_length(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        assert dynamics._fast_fft_length(421) == 432
        for m in range(1, 1200):
            n = dynamics._fast_fft_length(m)
            assert n >= m and smooth(n)
            assert not any(smooth(k) for k in range(m, n))

    @pytest.mark.parametrize("closure", [
        lambda p: np.asarray(p) * (0.5 + 0.1j),
        lambda p: 0.5 * np.asarray(p) + 0.01j,
        lambda p: np.asarray(p) + 0.2j * np.asarray(p) ** 2,
    ], ids=["linear", "constant", "quadratic"])
    def test_complex_coefficients_raise(self, closure):
        with pytest.raises(DegreeOverflowError):
            expand_polynomial_map(closure, 2, 3, radius=0.5)


def _whole_grid_terms(step_closure, d, d_max, radius=1.0):
    """Reference: the former sampling, the closure called once on the
    whole half grid and one irfftn over all coordinates; the same floor,
    descale and keep rules."""
    npts = d_max + 1
    n = dynamics._fast_fft_length(npts)
    half = radius * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    if n % 2 == 0:
        half[-1] = -radius
    base = np.concatenate([half, np.conj(half[1:(n + 1) // 2][::-1])])
    grids = np.meshgrid(*([base] * (d - 1) + [half]), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(step_closure(pts))
    vals = vals.reshape((n,) * (d - 1) + (len(half), d))
    coeff_grid = np.fft.irfftn(np.conj(vals), s=(n,) * d, axes=range(d))
    coeff_grid = coeff_grid[(slice(0, npts),) * d]
    terms = {}
    scale_cache = radius ** np.arange(npts, dtype=float)
    mags = np.abs(coeff_grid)
    floor = 1e-12 * max(1.0, float(mags.max()))
    betas = np.argwhere(~(mags.max(axis=-1) <= floor))
    descale = np.ones(len(betas))
    for axis in range(d):
        descale *= scale_cache[betas[:, axis]]
    real = coeff_grid[tuple(betas.T)] / descale[:, None]
    real[np.abs(real) <= floor] = 0.0
    keep = real.any(axis=1)
    for beta, row in zip(betas[keep].tolist(), real[keep]):
        terms.setdefault(sum(beta), {})[tuple(beta)] = row
    return terms


def _criterion_08_largest_closure():
    # q = 2, K_s = K_c = 3, K_t = L_t = 2: degree bound 1296, n = 1350
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    grads = PolynomialGradient(
        [x * x * 0.3 + y * 0.2 + MultiPoly.constant(2, 0.05)],
        [x * y * 0.3 + y * 0.2 + MultiPoly.constant(2, 0.02)],
        m=1, n=1, eps_u_grad=0.0, l_u_delta=1.0)
    odd = np.array([0.6, 0.15])
    closure, plan = compose_schedule(
        [AttackSubstep(0.02, 1.0)] * 2, [LearnerSubstep(0.05)] * 2, 0.2,
        grads, OddPolynomial(odd, 1.0), OddPolynomial(odd, 2.0))
    assert plan.degree_bound == 1296
    return closure


class TestStreamedExpansion:
    @staticmethod
    def assert_same_terms(got, want):
        assert list(got) == list(want)
        for ell, by_beta in want.items():
            assert list(got[ell]) == list(by_beta)
            for beta, coeff in by_beta.items():
                assert got[ell][beta].dtype == coeff.dtype
                assert got[ell][beta].tobytes() == coeff.tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_surrogate_design_folds_match_whole_grid(self, seed):
        closure = _surrogate_design_fold(seed)
        got = expand_polynomial_map(closure, 2, 420, radius=0.05).terms
        self.assert_same_terms(got, _whole_grid_terms(closure, 2, 420, 0.05))

    @pytest.mark.parametrize("d_max", [4, 8, 14, 30])
    def test_odd_and_multi_block_lengths_match_whole_grid(self, d_max):
        # n = 5, 9, 15 and 32 at d = 3
        got = expand_polynomial_map(_cubic_field, 3, d_max, radius=0.5).terms
        self.assert_same_terms(got, _whole_grid_terms(_cubic_field, 3, d_max, 0.5))

    @pytest.mark.parametrize("closure,d,d_max", [
        (lambda p: np.asarray(p) * 0.5 + 0.2 * np.asarray(p) ** 3, 1, 40),
        (_power_field, 2, 20),
        (_cubic_field, 3, 8),
    ], ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("block", [1, 7, 50])
    def test_small_blocks_match_whole_grid(self, monkeypatch, closure, d,
                                           d_max, block):
        # a block is at least one whole row, even when the row is longer
        monkeypatch.setattr(dynamics, "_EXPAND_BLOCK", block)
        got = expand_polynomial_map(closure, d, d_max, radius=0.5).terms
        self.assert_same_terms(got, _whole_grid_terms(closure, d, d_max, 0.5))

    @pytest.mark.parametrize("d,d_max,rows,width", [
        (1, 5, 1, 4), (2, 200, 216, 109), (3, 30, 1024, 17)])
    def test_closure_called_on_whole_row_blocks(self, d, d_max, rows, width):
        sizes = []

        def closure(pts):
            sizes.append(len(pts))
            return 0.5 * np.asarray(pts)

        expand_polynomial_map(closure, d, d_max)
        *blocks, probe = sizes
        per_block = dynamics._EXPAND_BLOCK // width * width
        assert probe == dynamics._EXPAND_CHECK_POINTS
        assert sum(blocks) == rows * width
        assert all(size == per_block for size in blocks[:-1])
        assert 0 < blocks[-1] <= per_block and blocks[-1] % width == 0

    def test_monitor_records_once_per_block(self):
        p_s = OddPolynomial(np.array([0.8, 0.1]))
        p_c = OddPolynomial(np.array([0.9, -0.05]), halfwidth=2.0)
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05,
                                     eta_u=0.08)
        monitor = StepMonitor(tau_s=0.0, tau_c=0.0, big_l=10.0)
        closure = folded_step_closure(0, sched, toy_gradient(), p_s, p_c,
                                      monitor)
        # n = 32 at d = 3: two row blocks, then the residual probe
        expand_polynomial_map(closure, 3, 30, radius=0.05)
        assert monitor.checked == 3 and monitor.clean

    def test_criterion_08_largest_grid_peak(self):
        # the whole-grid sampling peaked at 209 MiB traced here
        closure = _criterion_08_largest_closure()
        tracemalloc.start()
        try:
            coeffs = expand_polynomial_map(closure, 2, 1296, radius=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs.degree <= 1296
        assert peak <= 209 * 2**20 / 2


class TestExpansionInputs:
    @staticmethod
    def _recording():
        calls = []

        def closure(pts):
            calls.append(len(pts))
            return 0.5 * np.asarray(pts)

        return closure, calls

    @pytest.mark.parametrize("kwargs", [
        {"d": 2, "d_max": 3, "radius": 0.0},
        {"d": 2, "d_max": 3, "radius": -0.5},
        {"d": 2, "d_max": 3, "radius": math.nan},
        {"d": 2, "d_max": 3, "radius": math.inf},
        {"d": 2, "d_max": 3, "radius": -math.inf},
        {"d": 0, "d_max": 3, "radius": 1.0},
        {"d": 2, "d_max": -1, "radius": 1.0},
    ], ids=["radius-zero", "radius-negative", "radius-nan", "radius-inf",
            "radius-minus-inf", "d-zero", "d-max-negative"])
    def test_refused_before_sampling(self, kwargs):
        closure, calls = self._recording()
        with pytest.raises(ValueError):
            expand_polynomial_map(closure, **kwargs)
        assert calls == []

    def test_cap_checked_before_sampling(self):
        closure, calls = self._recording()
        with pytest.raises(MemoryError):
            expand_polynomial_map(closure, 3, 200)
        assert calls == []

    def test_degree_zero_and_one(self):
        const = expand_polynomial_map(
            lambda p: np.full(np.shape(p), 0.25), 2, 0)
        assert list(const.terms) == [0]
        np.testing.assert_allclose(const.constant_vector(), [0.25, 0.25])
        lin = expand_polynomial_map(lambda p: 0.5 * np.asarray(p), 2, 1)
        np.testing.assert_allclose(build_lifted_step(lin, 1).b_matrix.toarray(),
                                   0.5 * np.eye(2), atol=1e-15)


class TestMapCoeffs:
    def make(self):
        grads = toy_gradient()
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05,
                                     eta_u=0.08)
        p_s = OddPolynomial(np.array([1.1, -0.15]))
        p_c = OddPolynomial(np.array([0.93, 0.02]), halfwidth=2.0)
        polys = folded_step_closure(0, sched, grads, p_s, p_c)(_coordinates(3))
        return PolynomialMapCoeffs.from_coordinate_polys(list(polys), tol=1e-13)

    def test_operator_norm_is_the_lifted_rows_norm(self):
        # on the symmetric tensors Q_l is the degree-l block of the lift's
        # level-one rows, so the Gram route gives that block's spectral norm
        coeffs = self.make()
        top = coeffs.degree
        step = build_lifted_step(coeffs, top)
        off = level_offsets(coeffs.d, top)
        checked = 0
        for ell in range(top + 1):
            if ell == 0:
                block = step.c_vector[:coeffs.d, None]
            else:
                block = step.b_matrix[:coeffs.d, off[ell - 1]:off[ell]].toarray()
            assert coeffs.operator_norm(ell) == pytest.approx(
                np.linalg.norm(block, 2), rel=1e-12, abs=1e-15)
            checked += bool(coeffs.terms.get(ell))
        assert checked >= 3

    def test_high_degree_monomial_placed_by_content(self):
        # one (6, 6) monomial, whose content 924 of the 4096 index words
        # share: the lift's level-one rows hold it once, as coeff / sqrt(924)
        coeff = np.array([0.7, -1.3])
        coeffs = PolynomialMapCoeffs(2, {12: {(6, 6): coeff}})
        start = time.perf_counter()
        rows = build_lifted_step(coeffs, 12).b_matrix[:2]
        assert time.perf_counter() - start < 1.0
        # x0^6 x1^6 is the seventh degree-12 monomial
        assert rows.indices.tolist() == [level_offsets(2, 12)[11] + 6] * 2
        np.testing.assert_allclose(rows.data, coeff / math.sqrt(math.comb(12, 6)),
                                   rtol=1e-15)
        for v in RNG.uniform(-1.5, 1.5, size=(5, 2)):
            np.testing.assert_allclose(rows @ lift_state(v, 12),
                                       coeff * v[0] ** 6 * v[1] ** 6,
                                       rtol=1e-12, atol=0)

    def test_row_sparsity_counts_nonzero_columns(self):
        terms = {1: {(1, 0, 0): np.array([1.0, 0.0, 0.0]),
                     (0, 0, 1): np.array([0.5, 0.0, 0.0])}}
        coeffs = PolynomialMapCoeffs(3, terms)
        assert coeffs.row_sparsity(1) == 2

    def test_coefficients_are_read_only_copies(self):
        vec = np.array([1.0, 0.0, 0.0])
        coeffs = PolynomialMapCoeffs(3, {1: {(1, 0, 0): vec}})
        vec *= 2
        beta = (1, 0, 0)
        assert coeffs.terms[1][beta][0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            coeffs.terms[1][beta] *= 2
        with pytest.raises(ValueError, match="read-only"):
            coeffs.norm_bounds()[1] = 0.0

    def test_terms_refuse_assignment(self):
        coeffs = PolynomialMapCoeffs(2, {1: {(1, 0): np.array([0.5, 0.0])}})
        coeffs.norm_bounds()
        with pytest.raises(TypeError):
            coeffs.terms[1][(0, 1)] = np.array([0.0, 2.0])
        with pytest.raises(TypeError):
            coeffs.terms[2] = {(2, 0): np.array([1.0, 0.0])}
        with pytest.raises(TypeError):
            del coeffs.terms[1][(1, 0)]
        assert list(coeffs.norm_bounds()) == [0.0, 0.5]
        assert coeffs.operator_norm(1) == 0.5

    def test_sparsities_and_norms_are_built_once(self):
        coeffs = self.make()
        assert coeffs.row_sparsities() is coeffs.row_sparsities()
        assert coeffs.norm_bounds() is coeffs.norm_bounds()

    def test_scaled_multiplies_each_degree(self):
        coeffs = self.make()
        factors = [0.5 + ell for ell in range(coeffs.degree + 1)]
        out = coeffs.scaled(factors)
        assert out is not coeffs and out.d == coeffs.d
        assert list(out.terms) == list(coeffs.terms)
        for ell, by_beta in coeffs.terms.items():
            assert list(out.terms[ell]) == list(by_beta)
            for beta, c in by_beta.items():
                assert out.terms[ell][beta].tobytes() == (c * factors[ell]).tobytes()

    def test_symmetric_placement_keeps_evaluation(self):
        # v1*v2 coefficient split over (1,2) and (2,1) placements
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        coeffs = PolynomialMapCoeffs.from_coordinate_polys([x * y, x])
        pts = RNG.uniform(-1, 1, size=(30, 2))
        expect = np.stack([pts[:, 0] * pts[:, 1], pts[:, 0]], axis=-1)
        np.testing.assert_allclose(coeffs.evaluate(pts), expect, atol=1e-13)


class TestComposition:
    def setup_pieces(self):
        grads = toy_gradient()
        p_s = OddPolynomial(np.array([1.05, -0.1]))
        p_c = OddPolynomial(np.array([0.94, 0.03]), halfwidth=2.0)
        return grads, p_s, p_c

    def test_single_substeps_reduce_to_folded_step(self):
        grads, p_s, p_c = self.setup_pieces()
        sched = StepSchedule.uniform(1, eps_ball=0.1, eta_delta=0.05,
                                     eta_u=0.08, alpha=1.2)
        closure, comp = compose_schedule(
            [AttackSubstep(eta_delta=0.05, alpha=1.2)],
            [LearnerSubstep(eta_u=0.08)], 0.1, grads, p_s, p_c)
        assert comp.k_t == 1 and comp.l_t == 1
        pts = RNG.uniform(-0.1, 0.1, size=(30, 3))
        single = folded_step_closure(0, sched, grads, p_s, p_c)
        np.testing.assert_allclose(closure(pts), single(pts), atol=1e-13)

    def test_error_constant_frozen(self):
        assert schedule_error_constant(1.0, 2, 3) == 5.0
        # geometric case
        assert schedule_error_constant(2.0, 2, 1) == pytest.approx(1 + 2 + 4)

    def test_composed_degree_bound(self):
        grads, p_s, p_c = self.setup_pieces()
        closure, comp = compose_schedule(
            [AttackSubstep(0.05, 1.2), AttackSubstep(0.04, 1.2)],
            [LearnerSubstep(0.08), LearnerSubstep(0.06)],
            0.1, grads, p_s, p_c)
        d_a = grads.q * p_s.degree * p_c.degree
        assert comp.attack_degree_bound == d_a
        assert comp.degree_bound == d_a ** 2 * grads.q ** 2
        coeffs = expand_polynomial_map(closure, d=3, d_max=comp.degree_bound,
                                       radius=0.4)
        assert coeffs.degree <= comp.degree_bound


class TestErrorBounds:
    def test_base_step_frozen_example(self):
        assert scaled_base_step_error_bound(0.01, 0.1, 2.0, 0.05) == \
            pytest.approx(0.017)

    def test_base_step_degenerate(self):
        assert scaled_base_step_error_bound(0.01, 0.1, 0.0, 0.0) == \
            pytest.approx(0.01)

    def test_scaled_reduces_to_unscaled(self):
        plain = (1.0 + 0.1 * 2.0) * 0.01 + 0.1 * 0.05
        scaled = scaled_base_step_error_bound(0.01, 0.1, 2.0, 0.05, 1.0, 1.0)
        assert scaled == plain
        assert scaled_base_step_error_bound(0.01, 0.1, 2.0, 0.05) == plain

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            scaled_base_step_error_bound(-0.01, 0.1, 2.0, 0.05)

    def test_measured_bridge_error_within_bound(self):
        # affine gradients: surrogate error comes only from sign/clip
        p_s = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        p_c = design_clip_poly(ClipSpec(2.0, 0.1, 0.02))
        grads = toy_gradient()
        eps, eta_d, eta_u = 0.1, 0.05, 0.08
        sched = StepSchedule.uniform(1, eps_ball=eps, eta_delta=eta_d,
                                     eta_u=eta_u)
        eps_nl = one_step_delta_bound(2, eta_d, 0.05, eps, 0.02)
        eps_base = scaled_base_step_error_bound(eps_nl, eta_u, grads.l_u_delta,
                                                0.0)
        checked = 0
        while checked < 1000:
            v = CoupledState(RNG.uniform(-eps, eps, 2), RNG.uniform(-1, 1, 1))
            w = grads.g_delta(v.vector)
            if not ((np.abs(w) >= 0.2) & (np.abs(w) <= 1.0)).all():
                continue
            z = (v.delta + eta_d * p_s(w)) / eps
            az = np.abs(z)
            if not ((az <= 0.9) | ((az >= 1.1) & (az <= 2.0))).all():
                continue
            checked += 1
            a = exact_outer_step(v, 0, sched, grads)
            b = folded_poly_step(v, 0, sched, grads, p_s, p_c)
            assert np.linalg.norm(a.vector - b.vector) <= eps_base


class TestStateAndSchedule:
    def test_state_vector_roundtrip(self):
        v = CoupledState(np.array([0.1, -0.2]), np.array([3.0]))
        back = CoupledState.from_vector(v.vector, 2)
        assert np.array_equal(back.delta, v.delta)
        assert np.array_equal(back.u, v.u)
        assert v.d == 3 and v.m == 2 and v.n == 1

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(0.1, np.array([0.05]), np.array([0.1, 0.1]),
                         np.array([1.0]))
        with pytest.raises(ValueError):
            StepSchedule.uniform(3, eps_ball=0.1, eta_delta=-0.05, eta_u=0.1)

    def test_affine_gradient_contract(self):
        grads = toy_gradient()
        assert grads.q == 1
        assert grads.eps_u_grad == 0.0 and grads.eps_delta_grad == 0.0
        assert grads.l_u_delta == pytest.approx(
            np.linalg.norm(np.array([[0.4, -0.3]]), 2))

    def test_polynomial_gradient_degree(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        g = PolynomialGradient([x * x + y], [x * y], m=1, n=1,
                               eps_u_grad=0.01, l_u_delta=0.5)
        assert g.q == 2
        pts = RNG.uniform(-1, 1, size=(10, 2))
        np.testing.assert_allclose(
            g.g_delta(pts)[:, 0], pts[:, 0] ** 2 + pts[:, 1], atol=1e-14)
