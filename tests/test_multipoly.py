"""Ring arithmetic on dense exponent grids, and Chebyshev series on them."""

import tracemalloc

import numpy as np
import numpy.polynomial.chebyshev as C
import pytest
from hypothesis import given, settings, strategies as st

from robustlift.multipoly import MultiPoly
from robustlift.polyapprox import OddPolynomial

RNG = np.random.default_rng(7)


def random_poly(d: int, deg: int, rng) -> MultiPoly:
    shape = (deg + 1,) * d
    return MultiPoly(rng.standard_normal(shape))


class TestMultiPoly:
    def test_affine_evaluation(self):
        # an affine form as the gradients build it, a matrix row of
        # coordinates plus an offset
        coords = np.array([MultiPoly.variable(3, i) for i in range(3)],
                          dtype=object)
        p = coords @ np.array([2.0, 0.0, -1.0]) + 0.5
        assert p.total_degree() == 1
        pts = RNG.standard_normal((40, 3))
        expect = 0.5 + 2.0 * pts[:, 0] - pts[:, 2]
        np.testing.assert_allclose(p(pts), expect, atol=1e-14)

    def test_ring_ops_match_pointwise(self):
        a = random_poly(2, 3, RNG)
        b = random_poly(2, 2, RNG)
        pts = RNG.uniform(-1, 1, size=(60, 2))
        np.testing.assert_allclose((a + b)(pts), a(pts) + b(pts), atol=1e-10)
        np.testing.assert_allclose((a - b)(pts), a(pts) - b(pts), atol=1e-10)
        np.testing.assert_allclose((a * b)(pts), a(pts) * b(pts), rtol=1e-10)

    def test_substitution_is_composition(self):
        # evaluating at MultiPoly points composes
        outer = random_poly(2, 2, RNG)
        inner = [random_poly(2, 2, RNG), random_poly(2, 1, RNG)]
        composed = outer(np.array(inner, dtype=object))
        assert isinstance(composed, MultiPoly)
        pts = RNG.uniform(-0.7, 0.7, size=(25, 2))
        stage = np.stack([q(pts) for q in inner], axis=-1)
        np.testing.assert_allclose(composed(pts), outer(stage), rtol=1e-9,
                                   atol=1e-9)

    def test_total_degree_and_slices(self):
        v0 = MultiPoly.variable(2, 0)
        v1 = MultiPoly.variable(2, 1)
        p = v0 * v0 * v1 + v1 * 3.0 + 1.0
        assert p.total_degree() == 3
        assert p.degree_slice(3) == {(2, 1): 1.0}
        assert p.degree_slice(1) == {(0, 1): 3.0}
        assert p.degree_slice(0) == {(0, 0): 1.0}
        assert p.degree_slice(2) == {}

    def test_zero_factor_spans_no_variable(self):
        # a zero weight in a matrix row adds no axis to the row's grid
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        w = np.array([x, y], dtype=object) @ np.array([0.3, 0.0]) + 1.0
        assert w.coeffs.shape == (2, 1)
        assert w.coeffs.tolist() == [[1.0], [0.3]]

    def test_oversized_sum_refused_before_allocating(self):
        # two univariate degree-4096 polynomials in different variables
        # sum to a 4097^2-cell grid, just past the 2^24 cap
        wide = MultiPoly(np.ones((4097, 1)))
        tall = MultiPoly(np.ones((1, 4097)))
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match="sum grid exceeds cap"):
                wide + tall
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_complex_evaluation_supported(self):
        p = random_poly(2, 3, RNG)
        z = RNG.standard_normal((10, 2)) + 1j * RNG.standard_normal((10, 2))
        vals = p(z)
        assert np.iscomplexobj(vals)
        np.testing.assert_allclose(p(np.real(z)), np.real(p(np.real(z))))


class TestChebvalOnMultiPolys:
    def test_odd_polynomial_composes_on_coordinates(self):
        # numpy's chebval over an object array is a ring Clenshaw, so an
        # OddPolynomial applied to MultiPolys is its composition with them
        p = OddPolynomial(RNG.standard_normal(4), halfwidth=2.0)
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        args = np.array([x * 0.3 - y * 0.2 + 0.1, y / 0.5], dtype=object)
        composed = p(args)
        assert [q.total_degree() for q in composed] == [p.degree] * 2
        pts = RNG.uniform(-1, 1, size=(30, 2))
        for q, arg in zip(composed, args):
            want = [C.chebval(a / 2.0, p.full_coeffs()) for a in arg(pts)]
            np.testing.assert_allclose(q(pts), want, rtol=1e-12, atol=1e-12)


class TestRingChebval:
    """numpy's chebval over MultiPoly values is a ring Clenshaw."""

    def test_matches_numpy_on_scalars(self):
        coeffs = RNG.standard_normal(7)
        xs = np.linspace(-1, 1, 33)
        consts = np.array([MultiPoly.constant(2, x) for x in xs], dtype=object)
        got = C.chebval(consts, coeffs)
        assert all(q.coeffs.shape == (1, 1) for q in got)
        np.testing.assert_allclose([q.coeffs[0, 0] for q in got],
                                   C.chebval(xs, coeffs), rtol=0, atol=1e-14)

    def test_poly_argument_composes(self):
        coeffs = RNG.standard_normal(5)
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        arg = x * 0.3 - y * 0.2 + 0.1
        composed = C.chebval(arg, coeffs)
        pts = RNG.uniform(-1, 1, size=(30, 2))
        np.testing.assert_allclose(composed(pts), C.chebval(arg(pts), coeffs),
                                   rtol=1e-10, atol=1e-10)

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_degree_preserved(self, n):
        # T_n's zero coefficients go through the Clenshaw recurrence as zero
        # factors and must not lower or raise the degree
        coeffs = np.zeros(n + 1)
        coeffs[-1] = 1.0
        x = MultiPoly.variable(1, 0)
        assert C.chebval(x, coeffs).total_degree(tol=1e-9) == n
