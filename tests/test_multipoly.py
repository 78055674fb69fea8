"""Ring arithmetic on dense exponent grids and ring-generic Clenshaw."""

import numpy as np
import numpy.polynomial.chebyshev as C
from hypothesis import given, settings, strategies as st

from robustlift.multipoly import MultiPoly, ring_chebval

RNG = np.random.default_rng(7)


def random_poly(d: int, deg: int, rng) -> MultiPoly:
    shape = (deg + 1,) * d
    return MultiPoly(rng.standard_normal(shape))


class TestMultiPoly:
    def test_affine_evaluation(self):
        p = MultiPoly.affine(3, np.array([2.0, 0.0, -1.0]), 0.5)
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
        np.testing.assert_allclose((a ** 3)(pts), a(pts) ** 3, rtol=1e-8)

    def test_substitution_is_composition(self):
        outer = random_poly(2, 2, RNG)
        inner = [random_poly(2, 2, RNG), random_poly(2, 1, RNG)]
        composed = outer.substitute(inner)
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

    def test_complex_evaluation_supported(self):
        p = random_poly(2, 3, RNG)
        z = RNG.standard_normal((10, 2)) + 1j * RNG.standard_normal((10, 2))
        vals = p(z)
        assert np.iscomplexobj(vals)
        np.testing.assert_allclose(p(np.real(z)), np.real(p(np.real(z))))


class TestRingChebval:
    def test_matches_numpy_on_scalars(self):
        coeffs = RNG.standard_normal(7)
        xs = np.linspace(-1, 1, 33)
        np.testing.assert_allclose(ring_chebval(xs, coeffs),
                                   C.chebval(xs, coeffs), atol=1e-12)

    def test_poly_argument_composes(self):
        coeffs = RNG.standard_normal(5)
        arg = MultiPoly.affine(2, np.array([0.3, -0.2]), 0.1)
        composed = ring_chebval(arg, coeffs)
        pts = RNG.uniform(-1, 1, size=(30, 2))
        np.testing.assert_allclose(composed(pts), C.chebval(arg(pts), coeffs),
                                   rtol=1e-10, atol=1e-10)

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_degree_preserved(self, n):
        coeffs = np.zeros(n + 1)
        coeffs[-1] = 1.0
        x = MultiPoly.variable(1, 0)
        assert ring_chebval(x, coeffs).total_degree(tol=1e-9) == n

