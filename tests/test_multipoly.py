"""Ring arithmetic on dense exponent grids and ring-generic Clenshaw."""

import numpy as np
import numpy.polynomial.chebyshev as C
import pytest
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


def _substitute_reference(poly: MultiPoly, args: list[MultiPoly]) -> MultiPoly:
    """Term-by-term composition: each monomial as a ring product of its
    powers, added to a growing sum with ``+``."""
    d_out = args[0].d
    one = MultiPoly.constant(d_out, 1.0)
    powers = [[one] for _ in range(poly.d)]
    out = MultiPoly.zero(d_out)
    for idx in np.ndindex(poly.coeffs.shape):
        c = poly.coeffs[idx]
        if c == 0.0:
            continue
        term = one * c
        for i, e in enumerate(idx):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * args[i])
            if e:
                term = term * powers[i][e]
        out = out + term
    return out


# sparse coefficients, products that underflow, signed zeros and infinities
_COEFF = st.one_of(
    st.just(0.0), st.just(0.0), st.just(-0.0),
    st.floats(-2.0, 2.0, allow_subnormal=False),
    st.floats(-2.0, 2.0, allow_subnormal=False).map(lambda x: x * 1e-160),
    st.sampled_from([np.inf, -np.inf]),
)


@st.composite
def _grid(draw, d: int, max_degree: int):
    shape = tuple(draw(st.integers(1, max_degree + 1)) for _ in range(d))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(_COEFF, min_size=size, max_size=size))).reshape(shape)


@st.composite
def _affine_case(draw):
    # one variable per argument, v_i / s_i + c_i, as recentre_polys builds
    d = draw(st.integers(1, 3))
    outer = MultiPoly(draw(_grid(d, 4)))
    args = []
    for i in range(d):
        scale = draw(st.sampled_from([1.0, 45.0, 1.5, 1e160, -0.5]))
        shift = draw(st.sampled_from([0.0, 0.02, -0.3]) | _COEFF)
        args.append(MultiPoly.variable(d, i) * (1.0 / scale) + shift)
    return outer, args


@st.composite
def _multivariate_case(draw):
    # dense polynomials in every variable for the first arguments, plain
    # variables for the rest, as structural_step_polys builds its inner map
    d = draw(st.integers(1, 3))
    outer = MultiPoly(draw(_grid(d, 4)))
    n_dense = draw(st.integers(1, d))
    args = [MultiPoly(draw(_grid(d, 2))) for _ in range(n_dense)]
    args += [MultiPoly.variable(d, i) for i in range(n_dense, d)]
    return outer, args


class TestSubstituteMatchesReference:
    def _check(self, outer, args):
        with np.errstate(all="ignore"):
            got = outer.substitute(args)
            ref = _substitute_reference(outer, args)
        assert got.coeffs.shape == ref.coeffs.shape
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()

    @given(_affine_case())
    @settings(max_examples=150, deadline=None)
    def test_affine_args(self, case):
        self._check(*case)

    @given(_multivariate_case())
    @settings(max_examples=150, deadline=None)
    def test_multivariate_args(self, case):
        self._check(*case)

    def test_all_zero_poly_keeps_unit_grid(self):
        outer = MultiPoly(np.array([[0.0, -0.0], [0.0, 0.0]]))
        args = [MultiPoly.variable(2, 1), MultiPoly.variable(2, 0) + 1.0]
        got = outer.substitute(args)
        ref = _substitute_reference(outer, args)
        assert got.coeffs.shape == ref.coeffs.shape == (1, 1)
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("d_first, d_second", [(2, 3), (3, 2)])
    def test_mixed_variable_counts_rejected(self, d_first, d_second):
        # (2, 3) used to drop a variable silently, (3, 2) to fail in numpy
        outer = MultiPoly(np.array([[1.0, 2.0], [3.0, 0.0]]))
        args = [MultiPoly.variable(d_first, 0), MultiPoly.variable(d_second, 1)]
        with pytest.raises(ValueError, match="one variable count"):
            outer.substitute(args)


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

