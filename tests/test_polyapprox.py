"""Sign/clip surrogate design and the grid-plus-Lipschitz verifier."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as C

from robustlift import polyapprox
from robustlift.polyapprox import (
    ClipSpec,
    DegreeBudget,
    OddPolynomial,
    PolyCheck,
    SignSpec,
    clip_checks,
    degrees_from_budget,
    design_clip_poly,
    design_sign_poly,
    sign_checks,
    verify_poly_spec,
)


def cheb_identity():
    # T_1 on [-1, 1]
    return OddPolynomial(np.array([1.0]))


class TestVerifier:
    def test_identity_within_unit_bound(self):
        # sup equals the bound exactly, so only extremum enumeration
        # certifies it without inflation
        cert = verify_poly_spec(
            cheb_identity(), [PolyCheck(((-1.0, 1.0),), "zero", 1.0, "b")],
            mode="critical")
        assert cert.passed
        assert cert.checks[0].observed_sup == pytest.approx(1.0, abs=1e-12)
        assert cert.checks[0].certified_sup <= 1.0 + 1e-12

    def test_double_slope_fails_with_unit_violation(self):
        double = OddPolynomial(np.array([2.0]))
        cert = verify_poly_spec(
            double, [PolyCheck(((-1.0, 1.0),), "zero", 1.0, "b")],
            mode="critical")
        assert not cert.passed
        # sup |2x| on [-1,1] is 2, so the excess over the bound is 1
        assert cert.checks[0].observed_sup - 1.0 == pytest.approx(1.0, abs=1e-9)

    def test_grid_density_floor_enforced(self):
        with pytest.raises(ValueError):
            verify_poly_spec(
                cheb_identity(),
                [PolyCheck(((-1.0, 1.0),), "zero", 1.0, "b")],
                grid_density=100.0, mode="grid")

    @pytest.mark.parametrize("mode", ["grid", "critical", "auto"])
    def test_empty_check_list_rejected(self, mode):
        with pytest.raises(ValueError, match="at least one clause"):
            verify_poly_spec(OddPolynomial(np.array([5.0])), [], mode=mode)

    def test_empty_intervals_rejected(self):
        with pytest.raises(ValueError, match="at least one interval"):
            PolyCheck((), "zero", 1.0, "b")

    def test_certified_sup_includes_inflation(self):
        poly = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        cert = verify_poly_spec(poly, sign_checks(SignSpec(1.0, 0.2, 0.05)))
        for res in cert.checks:
            assert res.certified_sup == pytest.approx(
                res.observed_sup + res.inflation)
            assert res.certified_sup <= res.bound


class TestSignDesign:
    def test_acceptance_point_certifies(self):
        spec = SignSpec(1.0, 0.2, 0.05)
        poly = design_sign_poly(spec)
        assert poly.certificate is not None and poly.certificate.passed
        xs = np.linspace(0.2, 1.0, 2001)
        assert np.max(np.abs(poly(xs) - 1.0)) <= 0.05
        assert np.max(np.abs(poly(np.linspace(-1, 1, 2001)))) <= 1.0

    def test_value_at_zero_is_exactly_zero(self):
        poly = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        assert float(poly(0.0)) == 0.0

    def test_degree_frozen(self):
        # regression pin: deterministic search result at the standard spec
        assert design_sign_poly(SignSpec(1.0, 0.2, 0.05)).degree == 27

    def test_rescaled_spec_shares_unit_coefficients(self):
        base = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        wide = design_sign_poly(SignSpec(2.0, 0.4, 0.05))
        assert wide.halfwidth == 2.0
        assert np.array_equal(base.odd_coeffs, wide.odd_coeffs)
        xs = np.linspace(-2.0, 2.0, 501)
        np.testing.assert_allclose(wide(xs), base(xs / 2.0), rtol=0, atol=1e-14)

    def test_oddness_everywhere(self):
        poly = design_sign_poly(SignSpec(1.0, 0.3, 0.1))
        xs = np.linspace(0.0, 1.0, 400)
        np.testing.assert_allclose(poly(-xs), -poly(xs), atol=1e-13)


class TestClipDesign:
    def test_acceptance_point_certifies(self):
        spec = ClipSpec(2.0, 0.1, 0.02)
        poly = design_clip_poly(spec)
        assert poly.certificate is not None and poly.certificate.passed
        labels = {c.label: c for c in poly.certificate.checks}
        assert set(labels) == {"inner", "outer_plus", "outer_minus", "bounded"}

    def test_midpoint_tracks_identity(self):
        poly = design_clip_poly(ClipSpec(2.0, 0.1, 0.02))
        assert abs(float(poly(0.5)) - 0.5) <= 0.02

    def test_shifted_sign_identity_with_exact_sign(self):
        # sat(2) = ((2+1)*sign(3) - (2-1)*sign(1)) / 2 = 1
        x = 2.0
        val = 0.5 * ((x + 1) * np.sign(x + 1) - (x - 1) * np.sign(x - 1))
        assert val == 1.0
        # and the interior reproduces the identity: sat(0.3) = 0.3
        x = 0.3
        val = 0.5 * ((x + 1) * np.sign(x + 1) - (x - 1) * np.sign(x - 1))
        assert val == pytest.approx(0.3)

    def test_degree_one_more_than_inner_sign(self):
        spec = ClipSpec(2.0, 0.1, 0.02)
        inner = design_sign_poly(SignSpec(spec.widened, spec.tau,
                                          spec.delta / spec.big_l))
        poly = design_clip_poly(spec)
        assert poly.degree <= inner.degree + 1

    def test_unit_interval_stays_bounded(self):
        poly = design_clip_poly(ClipSpec(2.0, 0.1, 0.02))
        xs = np.linspace(-1.0, 1.0, 4001)
        assert np.max(np.abs(poly(xs))) <= 1.0


def _full_verify_sign(spec, grid_density=1e4, mode="auto"):
    """Reference degree walk: every candidate gets a full certificate."""
    tau_t = spec.tau / spec.halfwidth
    target, w = polyapprox._mollified_sign(tau_t, spec.delta)
    checks_unit = sign_checks(SignSpec(1.0, tau_t, spec.delta))
    deg = max(3, int(math.ceil(1.2 / w)) | 1)
    while True:
        full = C.chebinterpolate(target, deg)
        full[0::2] = 0.0
        cand = OddPolynomial(full[1::2], 1.0)
        density = polyapprox._design_density(cand, grid_density, spec.delta)
        if verify_poly_spec(cand, checks_unit, density, mode).passed:
            final = OddPolynomial(cand.odd_coeffs, spec.halfwidth)
            cert = verify_poly_spec(final, sign_checks(spec), density, mode)
            return replace(final, certificate=cert)
        deg += max(2, int(0.08 * deg) & ~1)


def _full_verify_clip(spec, grid_density=1e4, mode="auto"):
    """Reference clip design over the fully verified inner sign design."""
    inner = _full_verify_sign(
        SignSpec(spec.widened, spec.tau, spec.delta / spec.big_l),
        grid_density, mode)

    def combo(x):
        return 0.5 * ((x + 1.0) * inner(x + 1.0) - (x - 1.0) * inner(x - 1.0))

    full = C.chebinterpolate(lambda t: combo(spec.big_l * t), inner.degree + 1)
    full[0::2] = 0.0
    cand = OddPolynomial(full[1::2], spec.big_l)
    density = polyapprox._design_density(cand, grid_density,
                                         spec.delta / spec.big_l)
    return replace(cand, certificate=verify_poly_spec(
        cand, clip_checks(spec), density, mode))


class TestSearchMatchesFullVerify:
    @pytest.mark.parametrize("spec", [
        SignSpec(1.0, 0.2, 0.05),
        ClipSpec(2.0, 0.1, 0.02),
        SignSpec(2.0, 0.3, 0.1),
        SignSpec(1.0, 0.1, 1e-6),  # critical mode
    ], ids=["sign-default", "clip-default", "sign-wide", "sign-critical"])
    def test_same_design_and_certificate(self, spec):
        if isinstance(spec, ClipSpec):
            got, want = design_clip_poly(spec), _full_verify_clip(spec)
        else:
            got, want = design_sign_poly(spec), _full_verify_sign(spec)
        assert got.degree == want.degree
        assert got.halfwidth == want.halfwidth
        assert got.odd_coeffs.tobytes() == want.odd_coeffs.tobytes()
        assert got.certificate.to_dict() == want.certificate.to_dict()

    def test_failing_candidate_stops_at_first_failed_clause(self, monkeypatch):
        # the clip's inner sign search: "bounded" fails first on its
        # low-degree candidates, so the gap clauses never run there
        calls = []
        grid_check = polyapprox._grid_check

        def counted(poly, check, density):
            result = grid_check(poly, check, density)
            calls.append((poly.degree, check.label, result.passed))
            return result

        monkeypatch.setattr(polyapprox, "_grid_check", counted)
        spec = ClipSpec(2.0, 0.1, 0.02)
        polyapprox._search_sign(
            SignSpec(spec.widened, spec.tau, spec.delta / spec.big_l),
            4000, 1e4, "auto")
        by_degree = {}
        for degree, label, passed in calls:
            by_degree.setdefault(degree, []).append((label, passed))
        *failed, last = by_degree.values()
        assert [passed for _, passed in last] == [True, True, True]
        for results in failed:
            *head, (_, stopped) = results
            assert all(passed for _, passed in head) and not stopped
        assert any(len(results) == 1 for results in failed)
        assert len(calls) < 3 * len(by_degree)


class TestBudgetSplit:
    def test_frozen_example(self):
        # delta_s = 0.01 / (2 * 0.1 * 2), delta_c = 0.01 / (2 * 0.05 * 2)
        out = degrees_from_budget(
            DegreeBudget(eps_nl=0.01, eta_delta=0.1, eps_ball=0.05, m=4,
                         tau_s=0.2, tau_c=0.1, big_l=2.0))
        assert out.delta_s == pytest.approx(0.025, rel=1e-15)
        assert out.delta_c == pytest.approx(0.05, rel=1e-15)
        assert out.feasible

    def test_targets_shrink_with_budget(self):
        prev_s = prev_c = np.inf
        for eps_nl in (0.02, 0.01, 0.005, 0.0025):
            out = degrees_from_budget(
                DegreeBudget(eps_nl, 0.1, 0.05, 4, 0.2, 0.1, 2.0))
            assert out.delta_s < prev_s and out.delta_c < prev_c
            prev_s, prev_c = out.delta_s, out.delta_c

    def test_regime_violation_flagged(self):
        # eps_nl above min(eta sqrt(m), eps L sqrt(m)) = 0.2
        out = degrees_from_budget(
            DegreeBudget(0.5, 0.1, 0.05, 4, 0.2, 0.1, 2.0))
        assert not out.feasible

    def test_degree_formulas_reported(self):
        out = degrees_from_budget(
            DegreeBudget(0.01, 0.1, 0.05, 4, 0.2, 0.1, 2.0))
        assert "log" in out.k_s_formula and "log" in out.k_c_formula
        assert out.k_s_bound > 0 and out.k_c_bound > 0

    def test_full_design_from_split(self):
        out = degrees_from_budget(
            DegreeBudget(0.08, 0.1, 0.05, 4, 0.2, 0.1, 2.0))
        assert out.feasible
        p_s = design_sign_poly(SignSpec(1.0, 0.2, out.delta_s))
        p_c = design_clip_poly(ClipSpec(2.0, 0.1, out.delta_c))
        assert verify_poly_spec(
            p_s, sign_checks(SignSpec(1.0, 0.2, out.delta_s))).passed
        assert verify_poly_spec(
            p_c, clip_checks(ClipSpec(2.0, 0.1, out.delta_c))).passed


class TestOddPolynomial:
    def test_roundtrip_text(self, tmp_path):
        poly = design_sign_poly(SignSpec(1.0, 0.3, 0.1))
        path = tmp_path / "p.txt"
        poly.save_text(path)
        back = OddPolynomial.load_text(path)
        assert back.halfwidth == poly.halfwidth
        assert np.array_equal(back.odd_coeffs, poly.odd_coeffs)

    def test_monomial_conversion_matches_evaluation(self):
        poly = OddPolynomial(np.array([0.7, -0.2, 0.05]), halfwidth=2.0)
        mono = poly.to_monomial()
        xs = np.linspace(-2.0, 2.0, 57)
        direct = sum(c * xs ** (2 * k + 1) for k, c in enumerate(mono))
        np.testing.assert_allclose(direct, poly(xs), atol=1e-12)

    def test_derivative_sup_bound_is_sound(self):
        poly = OddPolynomial(np.array([0.9, -0.3, 0.08]), halfwidth=1.5)
        xs = np.linspace(-1.5, 1.5, 20001)
        assert np.max(np.abs(poly.derivative_values(xs))) <= \
            poly.derivative_sup_bound() + 1e-12

    @given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
           st.floats(0.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_odd_symmetry_property(self, coeffs, halfwidth):
        poly = OddPolynomial(np.array(coeffs), halfwidth=halfwidth)
        xs = np.linspace(0.0, halfwidth, 37)
        np.testing.assert_allclose(poly(-xs), -poly(xs), atol=1e-10)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SignSpec(1.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            ClipSpec(2.0, 0.1, 1.5)
        with pytest.raises(ValueError):
            OddPolynomial(np.array([]))
