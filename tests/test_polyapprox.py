"""Sign/clip surrogate design and the grid-plus-Lipschitz verifier."""

import hashlib
import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
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

    @pytest.mark.parametrize("density", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", ["grid", "auto"])
    def test_non_finite_grid_density_rejected(self, density, mode):
        # NaN slips past a "< 1e4" floor, and inf overflows math.ceil
        with pytest.raises(ValueError, match="grid_density must be finite"):
            verify_poly_spec(
                cheb_identity(),
                [PolyCheck(((0.3, 0.3), (-1.0, 1.0)), "zero", 1.0, "b")],
                grid_density=density, mode=mode)

    def test_nan_on_the_grid_fails_its_clause(self):
        # inf - inf in the Clenshaw recurrence and 0 * inf in the
        # inflation both give NaN; neither may certify the clause
        poly = OddPolynomial(np.array([1e308, -1e308, 1e308, -1e308, 1e308]))
        checks = [PolyCheck(((0.3, 0.3),), "zero", 1.0, "b")]
        with np.errstate(over="ignore", invalid="ignore"):
            cert = verify_poly_spec(poly, checks, mode="grid")
            stopped = polyapprox._grid_check(poly, checks[0], 1e4, True)
        (res,) = cert.checks
        assert math.isnan(res.observed_sup) and math.isnan(res.inflation)
        assert math.isnan(res.certified_sup)
        assert not res.passed and not cert.passed
        assert not stopped.passed

    @pytest.mark.parametrize("mode, bound", [("critical", 1.0), ("auto", 1e-7)])
    def test_overflowed_derivative_fails_critical_clause(self, mode, bound):
        # the derivative overflows to inf, which chebroots refuses; the
        # clause fails with NaN sups as it does in grid mode
        poly = OddPolynomial(np.array([1e308, -1e308, 1e308, -1e308, 1e308]))
        checks = [PolyCheck(((0.3, 0.3),), "zero", bound, "b")]
        with np.errstate(over="ignore", invalid="ignore"):
            cert = verify_poly_spec(poly, checks, mode=mode)
        (res,) = cert.checks
        assert cert.mode == "critical"
        assert math.isnan(res.observed_sup) and math.isnan(res.inflation)
        assert math.isnan(res.certified_sup)
        assert not res.passed and not cert.passed

    def test_critical_sup_keeps_a_nan_value(self):
        # Python max(0.0, nan) is 0.0; the NaN must reach the result
        poly = OddPolynomial(np.array([1.0, 0.5]))
        checks = [PolyCheck(((math.nan, 0.5),), "zero", 10.0, "b")]
        with np.errstate(invalid="ignore"):
            res = polyapprox._critical_check(poly, checks[0])
        assert math.isnan(res.observed_sup) and math.isnan(res.certified_sup)
        assert not res.passed

    def test_critical_sup_survives_a_negligible_leading_term(self):
        # P = T5 + 6.4e-196 T7 in x / 2: chebroots of the untrimmed P' missed
        # the extremum at x = 2 cos(pi / 5) and certified 1.99999 < 2
        poly = OddPolynomial(np.array([0, 0, 1, 6.4116795983293455e-196]), 2.0)
        check = PolyCheck(((1.0, 2.0),), "plus_one", 0.1)
        res = verify_poly_spec(poly, [check], mode="critical").checks[0]
        dense = float(np.abs(poly(np.linspace(1.0, 2.0, 200_001)) - 1.0).max())
        assert res.certified_sup >= dense
        assert res.observed_sup == pytest.approx(2.0, abs=1e-12)

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

    @pytest.mark.parametrize("halfwidth", [0.25, 0.5, 0.8, 1.0, 2.0])
    def test_design_passes_its_own_certificate(self, halfwidth):
        # one unit candidate (tau / halfwidth = 0.2) at every halfwidth; on
        # [-0.5, 0.5] it once certified "bounded" at 1.000147
        spec = SignSpec(halfwidth, 0.2 * halfwidth, 0.003)
        poly = design_sign_poly(spec)
        assert poly.halfwidth == halfwidth and poly.certificate.passed
        assert [c.label for c in poly.certificate.checks] == [
            c.label for c in sign_checks(spec)]

    def test_failed_final_certificate_raises(self, monkeypatch):
        verify = polyapprox.verify_poly_spec

        def failing(*args):
            return replace(verify(*args), passed=False)

        monkeypatch.setattr(polyapprox, "verify_poly_spec", failing)
        with pytest.raises(polyapprox.PolyDesignError, match="sign"):
            design_sign_poly(SignSpec(1.0, 0.2, 0.05))


class TestClipDesign:
    def test_acceptance_point_certifies(self):
        spec = ClipSpec(2.0, 0.1, 0.02)
        poly = design_clip_poly(spec)
        assert poly.certificate is not None and poly.certificate.passed
        labels = {c.label: c for c in poly.certificate.checks}
        assert set(labels) == {"inner", "outer_plus", "bounded"}

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


# the negative-side target that mirrors each half-line clause of an odd P
_MIRRORED = {"zero": lambda x: 0.0 * x, "plus_one": lambda x: -1.0 + 0.0 * x,
             "identity": lambda x: x}


@lru_cache(maxsize=None)
def _designed(spec):
    if isinstance(spec, ClipSpec):
        return design_clip_poly(spec), clip_checks(spec)
    return design_sign_poly(spec), sign_checks(spec)


_random_odd = st.builds(
    lambda coeffs, hw, tau_s, tau_c: (
        OddPolynomial(np.array(coeffs), hw),
        sign_checks(SignSpec(hw, tau_s * hw, 0.1))
        + clip_checks(ClipSpec(hw, tau_c, 0.1))),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
    st.floats(1.5, 4.0), st.floats(0.05, 0.9), st.floats(0.01, 0.4))
_designed_odd = st.sampled_from([
    SignSpec(1.0, 0.2, 0.05), ClipSpec(2.0, 0.1, 0.02),
    SignSpec(1.0, 0.7, 1e-3), SignSpec(2.0, 0.3, 0.1),
    ClipSpec(6.0, 0.8, 0.1),
    SignSpec(1.0, 0.1, 1e-6)]).map(_designed)  # critical mode


class TestHalfLineClauses:
    @given(st.one_of(_designed_odd, _random_odd))
    @settings(max_examples=40, deadline=None)
    def test_certified_sup_bounds_the_mirrored_side(self, case):
        poly, checks = case
        cert = verify_poly_spec(poly, checks)
        for check, res in zip(checks, cert.checks):
            ((a, b),) = check.intervals
            assert 0.0 <= a < b
            xs = np.linspace(-b, -a, 20001)
            mirrored = np.abs(poly(xs) - _MIRRORED[check.target](xs)).max()
            assert mirrored <= res.certified_sup + 1e-12 * max(
                1.0, res.certified_sup)

    def test_clauses_cover_the_half_line(self):
        # with their mirror images these cover every clause of the spec
        sign = sign_checks(SignSpec(2.0, 0.3, 0.05))
        assert [(c.label, c.target, c.intervals, c.bound) for c in sign] == [
            ("bounded", "zero", ((0.0, 2.0),), 1.0),
            ("gap_plus", "plus_one", ((0.3, 2.0),), 0.05)]
        clip = clip_checks(ClipSpec(3.0, 0.25, 0.02))
        assert [(c.label, c.target, c.intervals, c.bound) for c in clip] == [
            ("inner", "identity", ((0.0, 0.75),), 0.02),
            ("outer_plus", "plus_one", ((1.25, 3.0),), 0.02),
            ("bounded", "zero", ((0.0, 1.0),), 1.0)]

    @pytest.mark.parametrize("spec, degree, digest", [
        (SignSpec(1.0, 0.2, 0.05), 27,
         "70f838221b5f1f467ef8117f2c8e63c6d2d53aceb05fe8d7525edcee4339c0c4"),
        (ClipSpec(2.0, 0.1, 0.02), 277,
         "9de78e1854e349e33565f4dcb79741bff145313e78465046ea4e4d2f8491308b"),
        (SignSpec(1.0, 0.7, 1e-3), 19,
         "8eb4f67412cff30aa0918ca27ca7252bb26ec29e7fff8e19e1cdb6379a7d7ab2"),
    ], ids=["design-polys-sign", "design-polys-clip", "sign-0.7-1e-3"])
    def test_designs_keep_their_bytes(self, spec, degree, digest):
        # sha256 of odd_coeffs as designed when the clauses still covered
        # both halves of the interval
        poly, _ = _designed(spec)
        assert poly.degree == degree
        assert hashlib.sha256(poly.odd_coeffs.tobytes()).hexdigest() == digest

    def test_critical_certificates_keep_their_bytes(self, pinned_child):
        # sha256 of json.dumps(certificate.to_dict()) with one BLAS thread,
        # as designed before the derivative was trimmed for chebroots
        want = {
            "1.0,0.1,1e-06":
                "b480eae24b90d128c80a7984f7094e7789d8cfbb4703c0c02292d87e8c0a1545",
            "1.0,0.2,5e-06":
                "a16d14bf45bc4502e7c95bccb16cd7e6bccb94bd03c0c405975c1ecd041afb64",
            "2.0,0.3,1e-06":
                "9a868c59cb089eb94eb957afc8e2e961a860516074b60a00cd795ae9a3a98d07",
        }
        got = json.loads(pinned_child(_CRITICAL_SCRIPT, json.dumps(list(want))))
        assert got == want

    def test_critical_clauses_share_one_eigensolve(self, monkeypatch):
        sign, _ = _designed(SignSpec(1.0, 0.2, 0.05))
        clip, _ = _designed(ClipSpec(2.0, 0.1, 0.02))
        cases = [(sign, sign_checks(SignSpec(1.0, 0.2, 0.05)), 1),
                 (clip, clip_checks(ClipSpec(2.0, 0.1, 0.02)), 2)]
        unshared = [[polyapprox._critical_check(poly, c) for c in checks]
                    for poly, checks, _ in cases]
        calls = []
        chebroots = C.chebroots

        def counted(series):
            calls.append(len(series))
            return chebroots(series)

        monkeypatch.setattr(C, "chebroots", counted)
        for (poly, checks, solves), want in zip(cases, unshared):
            calls.clear()
            cert = verify_poly_spec(poly, checks, mode="critical")
            # "bounded" and "gap_plus" (or "outer_plus") share P', and the
            # clip's "inner" has P' - 1 of its own
            assert len(calls) == solves
            assert cert.checks == tuple(want)


_CRITICAL_SCRIPT = """
import hashlib, json, sys
from robustlift.polyapprox import SignSpec, design_sign_poly
out = {}
for key in json.loads(sys.argv[1]):
    cert = design_sign_poly(SignSpec(*map(float, key.split(",")))).certificate
    assert cert.mode == "critical"
    out[key] = hashlib.sha256(json.dumps(cert.to_dict()).encode()).hexdigest()
print(json.dumps(out))
"""


def _search_sign_no_hint(spec, grid_density=1e4, mode="auto"):
    """Reference degree walk: every candidate gets a full certificate, read
    in grid order, and no hint passes from one candidate to the next."""
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
            return cand, density
        deg += max(2, int(0.08 * deg) & ~1)


def _full_verify_sign(spec, grid_density=1e4, mode="auto"):
    """Reference sign design over the fully verified degree walk."""
    cand, density = _search_sign_no_hint(spec, grid_density, mode)
    final = OddPolynomial(cand.odd_coeffs, spec.halfwidth)
    cert = verify_poly_spec(final, sign_checks(spec),
                            max(density, density / spec.halfwidth), mode)
    return replace(final, certificate=cert)


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


def _one_shot_grid_check(poly, check, density):
    """Reference grid clause: the whole grid of each interval in one chebval.

    Its Python max() drops NaNs, so it is a reference on finite grids only.
    """
    series = polyapprox._target_series(poly, check.target)
    deriv_sup = float(np.sum(np.abs(C.chebder(series)))) / poly.halfwidth
    sup = 0.0
    inflation = 0.0
    for a, b in check.intervals:
        n = max(2, int(math.ceil((b - a) * density)) + 1)
        xs = np.linspace(a, b, n)
        vals = np.abs(C.chebval(xs / poly.halfwidth, series))
        sup = max(sup, float(vals.max()))
        h = (b - a) / (n - 1)
        inflation = max(inflation, 0.5 * h * deriv_sup)
    certified = sup + inflation
    tol = 1e-12 * max(1.0, check.bound)
    return polyapprox.CheckResult(check.label, check.target, check.bound, sup,
                                  inflation, certified,
                                  certified <= check.bound + tol)


def _bits(result):
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in vars(result).values())


CHUNK = polyapprox._GRID_CHUNK
HALF = CHUNK // 2
# grids around half a chunk and around one and two chunks
GRID_SIZES = [2, HALF - 1, HALF, HALF + 1, CHUNK + 3,
              CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]


class TestChunkedGrid:
    @pytest.mark.parametrize("a, b, n", [
        (-0.5, 0.5, 2), (0.3, 0.3, 7), (0.0, 5e-324, 4),
        (-0.5, 0.5, HALF - 1), (0.1, 0.7, HALF), (-1.0, 0.3, HALF + 1),
        (-2.5, 2.5, 2 * HALF + 3), (1.0, 1.0 + 2e-308, HALF + 5),
        (-0.5, 0.5, CHUNK - 1), (0.1, 0.7, CHUNK), (-1.0, 0.3, CHUNK + 1),
        (-2.5, 2.5, 2 * CHUNK + 3), (1.0, 1.0 + 2e-308, CHUNK + 5),
    ])
    def test_chunks_concatenate_to_linspace(self, a, b, n):
        chunks = list(polyapprox._grid_chunks([(a, b, n)]))
        assert all(len(xs) <= CHUNK for xs in chunks)
        assert (np.concatenate(chunks).tobytes()
                == np.linspace(a, b, n).tobytes())

    @pytest.mark.parametrize("n, lo, hi", [
        (2, 0, 2), (CHUNK + 1, 0, 5), (2 * CHUNK + 3, CHUNK - 7, CHUNK + 9),
        (2 * CHUNK + 3, 2 * CHUNK - 1, 2 * CHUNK + 3),
    ])
    def test_window_first_reads_every_point_once(self, n, lo, hi):
        # the window, then the rest of its grid from hi on, wrapping to lo
        grids = [(-0.5, 0.7, n), (1.0, 1.0 + 2e-308, 9)]
        chunks = list(polyapprox._grid_chunks(grids, (0, lo, hi)))
        assert all(len(xs) <= CHUNK for xs in chunks)
        line = np.linspace(-0.5, 0.7, n)
        want = np.concatenate([line[lo:hi], line[hi:], line[:lo],
                               np.linspace(1.0, 1.0 + 2e-308, 9)])
        assert chunks[0].tobytes() == line[lo:hi].tobytes()
        assert np.concatenate(chunks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", GRID_SIZES)
    @pytest.mark.parametrize("target", ["zero", "plus_one", "minus_one",
                                        "identity"])
    def test_full_scan_matches_one_shot(self, n, target):
        poly = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        check = PolyCheck(((-0.5, 0.5),), target, 1.0, "c")
        density = float(n - 1)  # the interval has length 1: n points
        got = polyapprox._grid_check(poly, check, density)
        assert _bits(got) == _bits(_one_shot_grid_check(poly, check, density))

    @pytest.mark.parametrize("target", ["zero", "plus_one", "identity"])
    def test_two_interval_clause_matches_one_shot(self, target):
        poly = design_clip_poly(ClipSpec(2.0, 0.1, 0.02))
        check = PolyCheck(((-1.7, -0.4), (0.2, 1.9)), target, 0.5, "c")
        for density in (1e4, 3 * CHUNK + 0.5):
            got = polyapprox._grid_check(poly, check, density)
            want = _one_shot_grid_check(poly, check, density)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", GRID_SIZES)
    @pytest.mark.parametrize("interval, target", [
        ((0.0, 1.0), "plus_one"),    # sup at the first point
        ((-1.0, 0.0), "minus_one"),  # sup at the last point
        ((-1.0, 1.0), "zero"),
    ])
    def test_early_stop_agrees_with_full_scan(self, n, interval, target):
        poly = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        density = float(n - 1) / (interval[1] - interval[0])
        base = polyapprox._grid_check(
            poly, PolyCheck((interval,), target, 1.0), density)
        lo, hi = interval
        for scale in (0.5, 0.999, 1.0, 1.001, 2.0):
            check = PolyCheck((interval,), target, scale * base.certified_sup)
            full = polyapprox._grid_check(poly, check, density)
            stopped = polyapprox._grid_check(poly, check, density, True)
            assert stopped.passed == full.passed
            assert stopped.observed_sup <= full.observed_sup
            if full.passed:
                assert _bits(stopped) == _bits(full)
            # a hint only reorders the scan: inside, at the ends, outside
            for x in (None, lo, 0.3 * lo + 0.7 * hi, hi, hi + 1.0):
                hint = polyapprox._FailHint(x)
                hinted = polyapprox._grid_check(poly, check, density, True,
                                                hint)
                assert hinted.passed == full.passed
                assert hinted.observed_sup <= full.observed_sup
                if full.passed:
                    assert _bits(hinted) == _bits(full) and hint.x == x
                else:
                    assert lo <= hint.x <= hi


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.5e-310, -1e-308]


@st.composite
def _series(draw, odd):
    """A float Chebyshev series of degree 0-400, dense or mostly zero,
    with a few special entries."""
    n = draw(st.integers(1, 401))
    finite = st.floats(-1e3, 1e3, allow_subnormal=True)
    if draw(st.booleans()):
        c = draw(hnp.arrays(np.float64, n, elements=finite))
    else:
        c = np.zeros(n)
    entry = st.one_of(st.sampled_from(_SPECIAL), finite)
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), entry),
                              max_size=4)):
        c[i] = v
    if odd:
        c[0::2] = draw(st.sampled_from([0.0, -0.0]))
    return c


@st.composite
def _unit_grid(draw):
    """t in [-1, 1]: a linspace through 0 and +-1 exactly, and a few more."""
    n = 2 * draw(st.integers(1, 150)) + 1
    extra = draw(st.lists(st.floats(-1.0, 1.0), max_size=8))
    return np.concatenate([np.linspace(-1.0, 1.0, n), extra])


def _kernel_bytes(t, series):
    work = np.empty((4, len(t) + 3))  # rows longer than t, as in a last chunk
    return polyapprox._abs_chebval(t, series, work).tobytes()


class TestAbsChebval:
    """The grid verifier's kernel against np.abs(C.chebval), byte for byte."""

    @given(st.booleans().flatmap(_series), _unit_grid())
    @settings(max_examples=150, deadline=None)
    def test_matches_chebval(self, series, t):
        with np.errstate(all="ignore"):
            want = np.abs(C.chebval(t, series)).tobytes()
            assert _kernel_bytes(t, series) == want

    @given(_series(odd=False), st.sampled_from([1.0, 2.0, 3.0, 0.7]),
           st.sampled_from(["zero", "plus_one", "minus_one", "identity"]),
           _unit_grid())
    @settings(max_examples=100, deadline=None)
    def test_matches_chebval_on_target_series(self, coeffs, halfwidth, target,
                                              t):
        # odd coefficients of degree <= 399, as OddPolynomial stores them
        poly = OddPolynomial(coeffs[:max(1, len(coeffs) // 2)], halfwidth)
        series = polyapprox._target_series(poly, target)
        with np.errstate(all="ignore"):
            want = np.abs(C.chebval(t, series)).tobytes()
            assert _kernel_bytes(t, series) == want

    @pytest.mark.parametrize("series", [
        [2.5], [-0.0], [math.nan], [-math.inf], [5e-324],
        [1.0, -2.0], [0.0, 5e-324], [-0.0, math.inf], [0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [1.0, 0.0, 5e-324], [0.0, 5e-324, 0.0, 0.0],
    ])
    def test_short_and_sparse_series(self, series):
        t = np.linspace(-1.0, 1.0, 9)
        series = np.array(series)
        with np.errstate(all="ignore"):
            want = np.abs(C.chebval(t, series)).tobytes()
            assert _kernel_bytes(t, series) == want

    @pytest.mark.parametrize("width", [1, 7, 9, 1001, polyapprox._GRID_CHUNK])
    def test_work_rows_start_on_cache_lines(self, width):
        work = polyapprox._aligned_rows(5, width)
        assert work.shape == (5, width)
        assert all(row.ctypes.data % 64 == 0 and row.flags.c_contiguous
                   for row in work)

    def test_designed_series(self):
        poly = design_clip_poly(ClipSpec(2.0, 0.1, 0.02))
        t = np.linspace(-1.0, 1.0, 40001)
        for target in ("zero", "plus_one", "minus_one", "identity"):
            series = polyapprox._target_series(poly, target)
            assert (_kernel_bytes(t, series)
                    == np.abs(C.chebval(t, series)).tobytes())

    def test_grid_check_calls_no_chebval(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("chebval called")

        poly = design_sign_poly(SignSpec(1.0, 0.2, 0.05))
        monkeypatch.setattr(polyapprox.C, "chebval", refused)
        assert polyapprox._grid_check(
            poly, PolyCheck(((-1.0, 1.0),), "zero", 1.0), 1e4).passed


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

        def counted(poly, check, density, stop_at_fail=False, hint=None):
            assert stop_at_fail
            result = grid_check(poly, check, density, stop_at_fail, hint)
            calls.append((poly.degree, check.label, result.passed))
            return result

        monkeypatch.setattr(polyapprox, "_grid_check", counted)
        spec = ClipSpec(2.0, 0.1, 0.02)
        polyapprox._search_sign(
            SignSpec(spec.widened, spec.tau, spec.delta / spec.big_l))
        by_degree = {}
        for degree, label, passed in calls:
            by_degree.setdefault(degree, []).append((label, passed))
        *failed, last = by_degree.values()
        assert [passed for _, passed in last] == [True, True]
        for results in failed:
            *head, (_, stopped) = results
            assert all(passed for _, passed in head) and not stopped
        assert any(len(results) == 1 for results in failed)
        assert len(calls) < 2 * len(by_degree)

    def test_failing_candidates_read_part_of_their_grids(self, monkeypatch):
        # kernel input sizes of the clip's inner search, per candidate,
        # against the full grids of the clauses each candidate started
        read, grid = {}, {}
        kernel, grid_check = polyapprox._abs_chebval, polyapprox._grid_check

        def counted_kernel(t, series, work):
            read[len(series) - 1] = read.get(len(series) - 1, 0) + len(t)
            return kernel(t, series, work)

        def counted_check(poly, check, density, stop_at_fail=False, hint=None):
            n = sum(max(2, int(math.ceil((b - a) * density)) + 1)
                    for a, b in check.intervals)
            grid[poly.degree] = grid.get(poly.degree, 0) + n
            return grid_check(poly, check, density, stop_at_fail, hint)

        monkeypatch.setattr(polyapprox, "_abs_chebval", counted_kernel)
        monkeypatch.setattr(polyapprox, "_grid_check", counted_check)
        spec = ClipSpec(2.0, 0.1, 0.02)
        polyapprox._search_sign(
            SignSpec(spec.widened, spec.tau, spec.delta / spec.big_l))
        assert list(read) == list(grid)
        *failed, passed = grid
        assert read[passed] == grid[passed]
        assert all(read[deg] < grid[deg] for deg in failed)
        assert sum(read[deg] for deg in failed) < 0.5 * sum(
            grid[deg] for deg in failed)
        # scanned in grid order from each clause's first chunk, the
        # failing candidates read 278,528 points; the hint saves most
        assert sum(read[deg] for deg in failed) < 278_528 / 3

    def test_each_candidate_forms_its_derivative_once(self, monkeypatch):
        # one chebder per round of clauses: the candidate's density and
        # every clause but "identity" share it; the final clip certificate
        # adds one for its "identity" clause
        chebder, clause_results = C.chebder, polyapprox._clause_results
        ders, rounds = [], []

        def counted_der(c, *args, **kwargs):
            ders.append(len(c) - 1)
            return chebder(c, *args, **kwargs)

        def counted_rounds(poly, *args, **kwargs):
            rounds.append(poly.degree)
            return clause_results(poly, *args, **kwargs)

        monkeypatch.setattr(polyapprox.C, "chebder", counted_der)
        monkeypatch.setattr(polyapprox, "_clause_results", counted_rounds)
        design_clip_poly(ClipSpec(2.0, 0.1, 0.02))
        assert len(ders) == len(rounds) + 1
        assert ders[:-2] == rounds[:-1] and ders[-2:] == rounds[-1:] * 2

    @pytest.mark.parametrize("spec", [
        SignSpec(1.0, 0.2, 0.05), SignSpec(1.0, 0.1, 0.05),
        SignSpec(1.0, 0.05, 0.1), SignSpec(2.0, 0.3, 0.1),
        SignSpec(1.0, 0.2, 0.01), SignSpec(0.5, 0.1, 0.003),
        SignSpec(3.0, 0.1, 0.01),  # the default clip's inner search
        SignSpec(1.0, 0.1, 1e-6),  # critical mode, which takes no hint
    ], ids=str)
    def test_hint_keeps_the_chosen_candidate(self, spec):
        got, got_density = polyapprox._search_sign(spec)
        want, want_density = _search_sign_no_hint(spec)
        assert got.odd_coeffs.tobytes() == want.odd_coeffs.tobytes()
        assert got.degree == want.degree
        assert np.float64(got_density).tobytes() == np.float64(
            want_density).tobytes()


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
    def test_derivative_sup_bound_is_sound(self):
        poly = OddPolynomial(np.array([0.9, -0.3, 0.08]), halfwidth=1.5)
        xs = np.linspace(-1.5, 1.5, 20001)
        assert np.max(np.abs(poly.derivative_values(xs))) <= \
            poly.derivative_sup_bound() + 1e-12

    def test_derivative_sup_bound_is_computed_once(self, monkeypatch):
        poly = OddPolynomial(np.array([0.9, -0.3, 0.08]), halfwidth=1.5)
        calls = []
        chebder = C.chebder

        def counted(c, *args, **kwargs):
            calls.append(len(c))
            return chebder(c, *args, **kwargs)

        monkeypatch.setattr(polyapprox.C, "chebder", counted)
        bound = poly.derivative_sup_bound()
        assert poly.derivative_sup_bound() == bound and len(calls) == 1
        want = float(np.sum(np.abs(chebder(poly.full_coeffs())))) / 1.5
        assert np.float64(bound).tobytes() == np.float64(want).tobytes()

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
