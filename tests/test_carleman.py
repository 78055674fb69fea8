"""Lift layout, transfer blocks, majorants, truncation tails.

The symmetric lift is checked against the Kronecker lift it replaces:
`_kron_reference` assembles that lift with scipy's `kron`, and
`sym_projection` gives U, whose block j maps the isometric monomial
coordinates of level j to the d^j index words.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from robustlift import carleman
from robustlift.carleman import (
    LiftedStep,
    TailReport,
    build_lifted_step,
    delta_dim,
    design_cutoff,
    level_offsets,
    lift_lipschitz,
    lift_state,
    majorant_and_contractivity,
    run_truncated_recurrence,
    tail_constant_and_cutoff,
)
from robustlift.dynamics import PolynomialMapCoeffs
from robustlift.instances import (
    certify_instance,
    folded_demo_instance,
    random_coeff_map,
)
from robustlift.multipoly import MultiPoly

RNG = np.random.default_rng(23)


def scalar_map(*mono_coeffs):
    """d=1 map from monomial coefficients (c1, c2, ...)."""
    x = MultiPoly.variable(1, 0)
    acc = MultiPoly.constant(1, 0.0)
    power = x
    for c in mono_coeffs:
        acc = acc + c * power
        power = power * x
    return PolynomialMapCoeffs.from_coordinate_polys([acc])


def transfer_block(coeffs, j, s):
    """K_{j,s} read off the lifted step truncated at max(j, s).

    s = 0 gives the constant column K_{j,0} as a vector; s >= 1 gives the
    (j, s) block of B, located by `level_offsets`.
    """
    n_levels = max(j, s)
    step = build_lifted_step(coeffs, n_levels)
    off = level_offsets(coeffs.d, n_levels)
    if s == 0:
        return step.c_vector[off[j - 1]:off[j]]
    return step.b_matrix[off[j - 1]:off[j], off[s - 1]:off[s]]


@lru_cache(maxsize=None)
def _word_contents(d, j):
    """Row-major index words of length j, each as its monomial's position
    in `combinations_with_replacement` order, and each monomial's m."""
    index = {w: k for k, w in enumerate(
        itertools.combinations_with_replacement(range(d), j))}
    cols = np.array([index[tuple(sorted(w))]
                     for w in itertools.product(range(d), repeat=j)])
    return cols, np.bincount(cols, minlength=len(index))


@lru_cache(maxsize=None)
def sym_projection(d, n_levels):
    """U = diag(U_1, ..., U_N): U_j holds 1 / sqrt(m_alpha) at each word
    of content alpha, so v^(xj) = U_j y_j and U^T U = I."""
    blocks = []
    for j in range(1, n_levels + 1):
        cols, mult = _word_contents(d, j)
        blocks.append(sparse.csr_matrix(
            (1.0 / np.sqrt(mult[cols]), (np.arange(cols.size), cols)),
            shape=(cols.size, mult.size)))
    return sparse.block_diag(blocks, format="csr")


def q_matrix(coeffs, ell):
    """Q_ell, d x d^ell: each word with content beta holds coeff / m_beta."""
    d = coeffs.d
    if ell == 0:
        return sparse.csr_matrix(coeffs.constant_vector()[:, None])
    cols, mult = _word_contents(d, ell)
    slot = {tuple(np.bincount(w, minlength=d).tolist()): k for k, w in enumerate(
        itertools.combinations_with_replacement(range(d), ell))}
    dense = np.zeros((d, mult.size))
    for beta, coeff in coeffs.terms.get(ell, {}).items():
        dense[:, slot[beta]] = coeff / mult[slot[beta]]
    return sparse.csr_matrix(dense[:, cols])


def kron_lift(v, n_levels):
    power, out = np.ones(1), []
    for _ in range(n_levels):
        power = np.kron(power, v)
        out.append(power)
    return np.concatenate(out)


def random_quadratic(d):
    polys = []
    vs = [MultiPoly.variable(d, i) for i in range(d)]
    for _ in range(d):
        p = MultiPoly.constant(d, RNG.uniform(-0.1, 0.1))
        for v in vs:
            p = p + RNG.uniform(-0.4, 0.4) * v
        for a in range(d):
            for b in range(a, d):
                p = p + RNG.uniform(-0.2, 0.2) * vs[a] * vs[b]
        polys.append(p)
    return PolynomialMapCoeffs.from_coordinate_polys(polys)


class TestLiftLayout:
    def test_dimension_formula(self):
        assert delta_dim(2, 3) == 9
        assert delta_dim(1, 5) == 5
        assert delta_dim(3, 2) == 9
        # the window-solve block: 55 coordinates where the kron lift has 363
        assert delta_dim(3, 5) == sum(math.comb(2 + j, j) for j in range(1, 6)) == 55

    def test_offsets_partition(self):
        off = level_offsets(2, 3)
        assert off.tolist() == [0, 2, 5, 9]

    def test_lift_norm_identity(self):
        for _ in range(20):
            v = RNG.uniform(-1, 1, 3)
            y = lift_state(v, 4)
            expect = sum(np.dot(v, v) ** j for j in range(1, 5))
            assert np.linalg.norm(y) ** 2 == pytest.approx(expect, rel=1e-12)

    def test_zero_lifts_to_zero(self):
        assert not lift_state(np.zeros(3), 3).any()

    def test_levels_are_kron_powers(self):
        # sqrt(m) v^alpha in combinations_with_replacement order; U maps
        # each level to the kron power
        v = np.array([0.3, -0.7])
        y = lift_state(v, 3)
        off = level_offsets(2, 3)
        np.testing.assert_array_equal(y[off[0]:off[1]], v)
        np.testing.assert_allclose(
            y[off[1]:off[2]], [0.09, math.sqrt(2) * -0.21, 0.49], rtol=1e-15)
        np.testing.assert_allclose(
            y[off[2]:off[3]], [0.027, math.sqrt(3) * -0.063,
                               math.sqrt(3) * 0.147, -0.343], rtol=1e-15)
        np.testing.assert_allclose(sym_projection(2, 3) @ y, kron_lift(v, 3),
                                   rtol=1e-15)

    def test_dim_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(carleman, "DEFAULT_DIM_CAP", 10_000)
        with pytest.raises(MemoryError):
            lift_state(np.zeros(10), 12)

    @pytest.mark.parametrize("n_levels", [0, -2])
    def test_no_levels_refused(self, n_levels):
        with pytest.raises(ValueError, match="at least one level"):
            lift_state(np.array([0.3, -0.7]), n_levels)


class TestIsometry:
    """The identities the probe's closed-form weights rest on."""

    @given(d=st.integers(1, 6), n_levels=st.integers(1, 6),
           v=st.lists(st.floats(-1, 1), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_lift_is_isometric_and_projects_to_kron(self, d, n_levels, v):
        v = np.array(v[:d])
        norm = np.linalg.norm(v)
        if norm > 1.0:
            v /= norm
        y = lift_state(v, n_levels)
        sq = float(v @ v)
        assert float(y @ y) == pytest.approx(
            sum(sq**j for j in range(1, n_levels + 1)), rel=1e-13, abs=0)
        assert y[:d].tobytes() == v.tobytes()
        np.testing.assert_allclose(sym_projection(d, n_levels) @ y,
                                   kron_lift(v, n_levels), rtol=1e-13,
                                   atol=1e-300)


def _projected(got, want):
    """Relative gap between two matrices (or vectors): max |got - want|
    over the finite entries of want, divided by max |want| there.

    got must be finite there, non-finite wherever want is, and NaN only
    where want is NaN.  (The kron lift forms each row of a content in its
    own order, so where products overflow an inf of one may meet a -inf
    of another, and their projection is NaN.)
    """
    got, want = (sparse.csr_matrix(np.atleast_2d(x) if isinstance(x, np.ndarray)
                                   else x) for x in (got, want))
    if np.isfinite(got.data).all() and np.isfinite(want.data).all():
        return abs(got - want).max() / max(abs(want).max(), 1e-300)
    got, want = got.toarray(), want.toarray()
    finite = np.isfinite(want)
    assert np.isfinite(got[finite]).all()
    assert not np.isfinite(got[~finite]).any()
    assert not (np.isnan(got) & ~np.isnan(want)).any()
    gap = np.abs(got[finite] - want[finite]).max(initial=0.0)
    return gap / max(np.abs(want[finite]).max(initial=0.0), 1e-300)


class TestTransferBlocks:
    def test_linear_blocks(self):
        a = np.array([[0.5, 0.2], [-0.1, 0.3]])
        x0 = MultiPoly.variable(2, 0)
        x1 = MultiPoly.variable(2, 1)
        polys = [a[0, 0] * x0 + a[0, 1] * x1, a[1, 0] * x0 + a[1, 1] * x1]
        coeffs = PolynomialMapCoeffs.from_coordinate_polys(polys)
        u2 = sym_projection(2, 2)[2:, 2:].toarray()
        np.testing.assert_allclose(transfer_block(coeffs, 1, 1).toarray(), a,
                                   atol=1e-14)
        np.testing.assert_allclose(transfer_block(coeffs, 2, 2).toarray(),
                                   u2.T @ np.kron(a, a) @ u2, atol=1e-14)
        assert transfer_block(coeffs, 2, 1).nnz == 0

    def test_affine_cross_block(self):
        # constant term couples levels: K_{2,1} = U_2^T (kron(b, A) + kron(A, b))
        a = np.array([[0.4, -0.2], [0.1, 0.5]])
        b = np.array([0.3, -0.6])
        x0 = MultiPoly.variable(2, 0)
        x1 = MultiPoly.variable(2, 1)
        polys = [b[0] + a[0, 0] * x0 + a[0, 1] * x1,
                 b[1] + a[1, 0] * x0 + a[1, 1] * x1]
        coeffs = PolynomialMapCoeffs.from_coordinate_polys(polys)
        u2 = sym_projection(2, 2)[2:, 2:].toarray()
        expect = u2.T @ (np.kron(b[:, None], a) + np.kron(a, b[:, None]))
        np.testing.assert_allclose(transfer_block(coeffs, 2, 1).toarray(),
                                   expect, atol=1e-14)

    def test_exact_level_recurrence(self):
        # the lift of the image == sum over source levels, no truncation
        coeffs = random_quadratic(2)
        blocks = {j: [transfer_block(coeffs, j, s) for s in range(2 * j + 1)]
                  for j in range(1, 4)}
        for _ in range(5):
            v = RNG.uniform(-0.5, 0.5, 2)
            image = lift_state(coeffs.evaluate(v), 3)
            source = lift_state(v, 6)
            off = level_offsets(2, 6)
            for j in range(1, 4):
                acc = blocks[j][0].copy()
                for s in range(1, 2 * j + 1):
                    acc = acc + blocks[j][s] @ source[off[s - 1]:off[s]]
                np.testing.assert_allclose(acc, image[off[j - 1]:off[j]],
                                           atol=1e-10)

    def test_block_shapes(self):
        coeffs = random_quadratic(2)
        blk = transfer_block(coeffs, 3, 4)
        assert blk.shape == (4, 5)


class TestLiftedStep:
    def test_identity_map(self):
        x0 = MultiPoly.variable(2, 0)
        x1 = MultiPoly.variable(2, 1)
        step = build_lifted_step(
            PolynomialMapCoeffs.from_coordinate_polys([x0, x1]), 3)
        assert not step.c_vector.any()
        np.testing.assert_allclose(step.b_matrix.toarray(), np.eye(9),
                                   atol=1e-14)

    def test_scalar_linear_diagonal(self):
        step = build_lifted_step(scalar_map(0.5), 3)
        np.testing.assert_allclose(step.b_matrix.toarray(),
                                   np.diag([0.5, 0.25, 0.125]), atol=1e-15)
        maj = majorant_and_contractivity(scalar_map(0.5), 3)
        assert maj.rho == pytest.approx(0.5, abs=1e-12)
        assert maj.h1_pass

    def test_apply_matches_blocks(self):
        coeffs = random_quadratic(2)
        step = build_lifted_step(coeffs, 3)
        assert step.dim == 9
        y = RNG.uniform(-1, 1, 9)
        out = step.apply(y)
        assert out.shape == (9,)
        # level-1 block row equals Q_1 y_1 + Q_2 U_2 y_2 + c
        q1 = q_matrix(coeffs, 1).toarray()
        q2 = q_matrix(coeffs, 2).toarray()
        u2 = sym_projection(2, 2)[2:, 2:].toarray()
        expect = q1 @ y[:2] + q2 @ u2 @ y[2:5] + coeffs.constant_vector()
        np.testing.assert_allclose(out[:2], expect, atol=1e-12)

    @pytest.mark.parametrize("n_levels", [0, -2])
    def test_no_levels_refused(self, n_levels):
        with pytest.raises(ValueError, match="at least one level"):
            build_lifted_step(scalar_map(0.5), n_levels)

    def test_step_reproduces_exact_lift_on_linear(self):
        a = np.array([[0.5, 0.1], [0.0, 0.4]])
        x0 = MultiPoly.variable(2, 0)
        x1 = MultiPoly.variable(2, 1)
        coeffs = PolynomialMapCoeffs.from_coordinate_polys(
            [0.5 * x0 + 0.1 * x1, 0.4 * x1])
        step = build_lifted_step(coeffs, 4)
        v = RNG.uniform(-1, 1, 2)
        np.testing.assert_allclose(step.apply(lift_state(v, 4)),
                                   lift_state(a @ v, 4), atol=1e-12)

    def test_built_lift_is_canonical_and_kept(self):
        for coeffs, n_levels in [(shipped_coeffs(certify_instance(50)), 2),
                                 (shipped_coeffs(folded_demo_instance(6)), 3),
                                 (random_quadratic(3), 3)]:
            step = build_lifted_step(coeffs, n_levels)
            b = step.b_matrix
            # the flag the build sets holds for the arrays themselves
            fresh = sparse.csr_matrix((b.data, b.indices, b.indptr),
                                      shape=b.shape)
            assert fresh.has_canonical_format
            again = LiftedStep(b, step.c_vector, step.d, step.n_levels)
            assert again.b_matrix is b

    def test_duplicate_entries_are_summed_in_a_copy(self):
        b = sparse.csr_matrix(((0.1, 0.2, 0.3), (0, 0, 1), (0, 2, 3)),
                              shape=(2, 2))
        step = LiftedStep(b, np.zeros(2), 2, 1)
        assert step.b_matrix is not b and b.nnz == 3
        assert step.b_matrix.has_canonical_format and step.b_matrix.nnz == 2
        np.testing.assert_array_equal(step.b_matrix.toarray(), b.toarray())


def _kron_reference(coeffs, n_levels):
    """B and c of the Kronecker lift as scipy assembles them: kron per
    block, CSR sums, bmat."""
    d = coeffs.d
    top = min(coeffs.degree, n_levels)
    mats = [q_matrix(coeffs, ell) for ell in range(top + 1)]
    levels = [mats + [sparse.csr_matrix((d, d**s))
                      for s in range(top + 1, n_levels + 1)]]
    for j in range(2, n_levels + 1):
        prev = levels[-1]
        level = []
        for s in range(n_levels + 1):
            used = [ell for ell in range(min(top, s) + 1)
                    if mats[ell].nnz and prev[s - ell].nnz]
            terms = (sparse.kron(mats[ell], prev[s - ell], format="csr")
                     for ell in used)
            level.append(sum(terms, next(terms)) if used
                         else sparse.csr_matrix((d**j, d**s)))
        levels.append(level)
    b_matrix = sparse.bmat([level[1:] for level in levels], format="csr")
    c_vector = np.concatenate([level[0].toarray().ravel() for level in levels])
    return b_matrix, c_vector


def assert_same_lift(coeffs, n_levels):
    """The symmetric lift is U^T B_kron U and U^T c_kron to 1e-13 relative,
    and B_kron U = U B: the kron lift keeps the symmetric tensors.
    Returns the step and the kron reference's B."""
    ref_b, ref_c = _kron_reference(coeffs, n_levels)
    u = sym_projection(coeffs.d, n_levels)
    step = build_lifted_step(coeffs, n_levels)
    b = step.b_matrix
    assert b.shape == (delta_dim(coeffs.d, n_levels),) * 2
    assert b.has_sorted_indices and step.c_vector.dtype == ref_c.dtype
    assert _projected(b, u.T @ ref_b @ u) <= 1e-13
    assert _projected(step.c_vector, u.T @ ref_c) <= 1e-13
    assert _projected(u @ b, ref_b @ u) <= 1e-13
    return step, ref_b


def shipped_coeffs(instance):
    return instance.build_expansion(*instance.design_polys(0.05, 0.05))


class TestKronDifferential:
    """The symmetric lift against the projected kron recurrence."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]),
           degree=st.integers(1, 3), n_levels=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_ladder(self, seed, d, degree, n_levels):
        coeffs = random_coeff_map(np.random.default_rng(seed), d, degree)
        assert_same_lift(coeffs, n_levels)

    def test_saturated_toy_merges_sparse_levels(self):
        # at N = 16 the kron lift is 2^17 - 2 wide, the symmetric one 152
        coeffs = shipped_coeffs(certify_instance(50))
        for n_levels in range(1, 17):
            step, _ = assert_same_lift(coeffs, n_levels)
        assert step.dim == 152

    def test_folded_demo_fills_dense_slabs(self):
        coeffs = shipped_coeffs(folded_demo_instance(6))
        for n_levels in range(1, 10):
            step, ref = assert_same_lift(coeffs, n_levels)
        # the dense folded step fills its symmetric rows
        assert step.b_matrix.nnz > 0.5 * step.dim**2 and ref.nnz > step.b_matrix.nnz

    @pytest.mark.parametrize("n_levels", [2, 3, 4, 5])
    def test_cancelling_block_drops_its_zero(self, n_levels):
        # (x + 1 - x^2/2)^2 has no x^2 term: K_{2,2} sums to exactly zero
        x = MultiPoly.variable(1, 0)
        coeffs = PolynomialMapCoeffs.from_coordinate_polys(
            [1.0 + x - 0.5 * x * x])
        step, _ = assert_same_lift(coeffs, n_levels)
        assert (step.b_matrix.data != 0).all()
        if n_levels == 2:
            assert step.b_matrix.nnz == 3 and step.b_matrix[1, 1] == 0

    @pytest.mark.parametrize("n_levels", [1, 2, 3, 4])
    def test_underflowing_single_term_block_keeps_its_zeros(self, n_levels):
        # 1e-170 * 1e-170 underflows in K_{2,0}; the kron lift stores the
        # zeros its single-term blocks make (a -0.0 at N = 4), the symmetric
        # lift stores none and multiplies none further
        x = MultiPoly.variable(1, 0)
        coeffs = PolynomialMapCoeffs.from_coordinate_polys(
            [1e-170 * x + 1e-170 * x * x - 3e-170])
        step, ref = assert_same_lift(coeffs, n_levels)
        if n_levels >= 3:
            assert (ref.data == 0).any()
        if n_levels == 4:
            assert np.signbit(ref.data[ref.data == 0]).any()
        assert (step.b_matrix.data != 0).all()

    def test_underflowing_maps_with_dropped_degrees(self):
        # coefficients near 1e-165 make products underflow to signed zeros,
        # and dropping whole degrees leaves empty blocks beside full ones
        stored_zeros = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            d, degree = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            drawn = random_coeff_map(rng, d, degree)
            scale = 10.0 ** rng.uniform(-180, -150)
            terms = {ell: {beta: scale * c for beta, c in block.items()}
                     for ell, block in drawn.terms.items()
                     if rng.random() >= 0.35}
            if not terms:
                continue
            coeffs = PolynomialMapCoeffs(d, terms)
            for n_levels in range(1, 5):
                step, ref = assert_same_lift(coeffs, n_levels)
                assert (step.b_matrix.data != 0).all()
                stored_zeros += bool((ref.data == 0).any())
        assert stored_zeros > 0

    def test_non_finite_factors(self):
        # linear coefficients of 1e250 or inf next to zeroed entries: only
        # stored products are formed, so an inf meets no unstored zero and
        # the lift is non-finite exactly where the projected kron lift is
        non_finite = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 4))
            terms = {}
            for ell, block in random_coeff_map(rng, d, 2).terms.items():
                terms[ell] = {}
                for beta, c in block.items():
                    c = np.where(rng.random(d) < 0.3, 0.0, c)
                    if ell == 1 and rng.random() < 0.5:
                        c[0] = np.inf if seed % 3 == 0 else c[0] * 1e250
                    terms[ell][beta] = c
            coeffs = PolynomialMapCoeffs(d, terms)
            for n_levels in range(2, 5):
                with np.errstate(over="ignore", invalid="ignore"):
                    step, _ = assert_same_lift(coeffs, n_levels)
                non_finite += not np.isfinite(step.b_matrix.data).all()
        assert non_finite > 0

    @pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5])
    def test_empty_middle_degree(self, n_levels):
        x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        coeffs = PolynomialMapCoeffs.from_coordinate_polys(
            [0.1 + 0.3 * x0 + 0.2 * x0 * x0 * x1,
             -0.2 * x1 + 0.1 * x1 * x1 * x1])
        assert not coeffs.terms.get(2)
        assert_same_lift(coeffs, n_levels)

    def test_no_scipy_kron_or_bmat(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lift went back to block assembly")

        monkeypatch.setattr(sparse, "kron", refuse)
        monkeypatch.setattr(sparse, "bmat", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        window = random_coeff_map(np.random.default_rng(5), 3, 3)
        assert build_lifted_step(window, 5).b_matrix.nnz > 0
        folded = shipped_coeffs(folded_demo_instance(6))
        assert build_lifted_step(folded, 5).b_matrix.nnz > 0


class TestRecurrence:
    def run_toy(self, t_window=20, n_levels=3):
        coeffs = scalar_map(0.5, 0.1)
        traj = [np.array([0.2])]
        for _ in range(t_window):
            v = traj[-1][0]
            traj.append(np.array([0.5 * v + 0.1 * v * v]))
        step = build_lifted_step(coeffs, n_levels)
        res = run_truncated_recurrence([step] * t_window,
                                       lift_state(traj[0], n_levels),
                                       t_window, reference=traj)
        return coeffs, traj, res

    def test_initial_block_is_exact_lift(self):
        _, traj, res = self.run_toy()
        np.testing.assert_array_equal(res.y[0], lift_state(traj[0], 3))
        assert np.linalg.norm(res.eta[0]) == 0.0

    def test_linear_map_has_zero_residual(self):
        a = np.array([[0.5, 0.2], [-0.1, 0.6]])
        x0 = MultiPoly.variable(2, 0)
        x1 = MultiPoly.variable(2, 1)
        coeffs = PolynomialMapCoeffs.from_coordinate_polys(
            [0.5 * x0 + 0.2 * x1, -0.1 * x0 + 0.6 * x1])
        traj = [RNG.uniform(-1, 1, 2)]
        for _ in range(50):
            traj.append(a @ traj[-1])
        step = build_lifted_step(coeffs, 4)
        res = run_truncated_recurrence([step] * 50, lift_state(traj[0], 4),
                                       50, reference=traj)
        assert np.max(np.abs(res.eta)) <= 1e-13

    def test_quadratic_toy_obeys_tail_bounds(self):
        coeffs, traj, res = self.run_toy()
        maj = majorant_and_contractivity(coeffs, 3)
        vbar = max(abs(float(s[0])) for s in traj)
        tails = tail_constant_and_cutoff(coeffs, 3, vbar, 20, maj.rho, 1e-3)
        norms = np.linalg.norm(res.eta, axis=1)
        assert norms.max() <= tails.uniform_bound
        assert np.linalg.norm(res.eta) <= tails.horizon_bound

    def test_per_step_sequence_and_length_check(self):
        coeffs = scalar_map(0.5, 0.1)
        step = build_lifted_step(coeffs, 2)
        res = run_truncated_recurrence([step, step], lift_state([0.1], 2), 2)
        assert res.y.shape == (3, 2)
        assert res.stacked.shape == (6,)
        with pytest.raises(ValueError):
            run_truncated_recurrence([step], lift_state([0.1], 2), 2)

    def test_bare_step_rejected(self):
        step = build_lifted_step(scalar_map(0.5, 0.1), 2)
        with pytest.raises(TypeError):
            run_truncated_recurrence(step, lift_state([0.1], 2), 2)


class TestMajorant:
    def test_norm_of_b_dominated(self):
        for _ in range(20):
            d = int(RNG.integers(1, 3))
            coeffs = random_quadratic(d)
            n_levels = int(RNG.integers(1, 4))
            step = build_lifted_step(coeffs, n_levels)
            b_norm = np.linalg.norm(step.b_matrix.toarray(), 2)
            maj = majorant_and_contractivity(coeffs, n_levels)
            assert b_norm <= maj.rho + 1e-9

    def test_linear_dominant_split(self):
        # gamma = 1 - ||Q_1||, bound (1 - gamma) + sigma
        coeffs = scalar_map(0.6, 0.05)
        maj = majorant_and_contractivity(coeffs, 3)
        assert maj.gamma == pytest.approx(0.4, abs=1e-12)
        assert maj.linear_dominant_bound == pytest.approx(0.6 + maj.sigma)
        if maj.linear_dominant_applies:
            assert maj.rho <= maj.linear_dominant_bound + 1e-12

    def test_linear_dominant_frozen_arithmetic(self):
        # declared gamma=0.4 sigma=0.1 gives 0.7 regardless of provenance
        assert (1.0 - 0.4) + 0.1 == pytest.approx(0.7)

    def test_worst_step_selected(self):
        mild = scalar_map(0.3)
        harsh = scalar_map(0.9)
        maj = majorant_and_contractivity([mild, harsh], 2)
        assert maj.rho == pytest.approx(0.9, abs=1e-12)
        assert maj.per_step_rho.shape == (2,)
        assert maj.per_step_rho[0] == pytest.approx(0.3, abs=1e-12)

    def test_h1_flag(self):
        assert not majorant_and_contractivity(scalar_map(1.2), 2).h1_pass
        assert majorant_and_contractivity(scalar_map(0.8), 2).h1_pass

class TestTails:
    def test_linear_map_has_empty_tail(self):
        rep = tail_constant_and_cutoff(scalar_map(0.5), 3, 0.9, 10, 0.5, 1e-3)
        assert rep.gamma_n == 0.0
        assert rep.horizon_bound == 0.0
        assert not rep.per_level_tails.any()

    def test_direct_tail_matches_convolution_oracle(self):
        # phi(x) = 0.4 x + 1.2 x^2; tail_j = sum_{s>N} [x^s] phi^j vbar^s
        coeffs = scalar_map(0.4, 1.2)
        vbar, n_levels = 0.25, 4
        rep = tail_constant_and_cutoff(coeffs, n_levels, vbar, 99, 0.5, 1e-3)
        phi = np.zeros(2 * n_levels + 1)
        phi[1], phi[2] = 0.4, 1.2
        tails = []
        for j in range(1, n_levels + 1):
            pj = np.zeros(2 * n_levels + 1)
            pj[0] = 1.0
            for _ in range(j):
                pj = np.convolve(pj, phi)[: 2 * n_levels + 1]
            tails.append(sum(pj[s] * vbar**s
                             for s in range(n_levels + 1, 2 * n_levels + 1)))
        np.testing.assert_allclose(rep.per_level_tails, tails, rtol=1e-12)
        assert rep.gamma_n == pytest.approx(float(np.linalg.norm(tails)),
                                            rel=1e-12)

    def test_weighted_gamma_formula(self):
        # chi = 0.5 at lam = 1.5 via a linear family with matched norm
        vbar, lam = 0.5, 1.5
        coeffs = scalar_map(0.5 / (lam * vbar))
        rep = tail_constant_and_cutoff(coeffs, 4, vbar, 10, 0.5, 1e-3, lam=lam)
        assert rep.weighted_chi == pytest.approx(0.5, rel=1e-12)
        assert rep.weighted_gamma_n == pytest.approx(
            1.5**-5 * 0.5 / math.sqrt(0.75), rel=1e-12)
        assert rep.weighted_feasible
        assert rep.weighted_gamma_n >= rep.gamma_n

    def test_weighted_dominates_direct(self):
        coeffs = scalar_map(0.4, 1.2)
        rep = tail_constant_and_cutoff(coeffs, 4, 0.25, 99, 0.5, 1e-3, lam=2.0)
        assert rep.weighted_chi == pytest.approx(0.5, rel=1e-12)
        assert rep.gamma_n <= rep.weighted_gamma_n

    def test_design_cutoff_frozen_example(self):
        assert design_cutoff(99, 0.5, 1e-3, 0.5, 2.0) == 13

    def test_design_cutoff_certifies_direct_tail(self):
        # the closed-form cutoff must satisfy the budget it was designed
        # for, checked by direct summation on the matching family
        coeffs = scalar_map(0.4, 1.2)
        rep = tail_constant_and_cutoff(coeffs, 4, 0.25, 99, 0.5, 1e-3, lam=2.0)
        assert rep.n_design == 13
        at_design = tail_constant_and_cutoff(coeffs, rep.n_design, 0.25, 99,
                                             0.5, 1e-3)
        assert at_design.horizon_bound <= 1e-3

    def test_design_cutoff_monotone_in_budget(self):
        loose = design_cutoff(99, 0.5, 1e-2, 0.5, 2.0)
        tight = design_cutoff(99, 0.5, 1e-6, 0.5, 2.0)
        assert tight > loose

    def test_input_validation(self):
        coeffs = scalar_map(0.5)
        with pytest.raises(ValueError):
            tail_constant_and_cutoff(coeffs, 3, 0.9, 10, 1.0, 1e-3)
        with pytest.raises(ValueError):
            tail_constant_and_cutoff(coeffs, 3, 0.9, 10, 0.5, 1e-3, lam=1.0)
        with pytest.raises(ValueError):
            design_cutoff(10, 0.5, 1e-3, 0.0, 2.0)
        with pytest.raises(ValueError):
            design_cutoff(10, 0.5, 1e-3, 0.5, 1.0)

    def test_infeasible_weight_reported(self):
        coeffs = scalar_map(0.9)
        rep = tail_constant_and_cutoff(coeffs, 2, 0.9, 10, 0.5, 1e-3, lam=3.0)
        assert rep.weighted_chi > 1.0
        assert not rep.weighted_feasible
        assert rep.weighted_gamma_n is None and rep.n_design is None


class TestLipschitz:
    def test_closed_form_values(self):
        assert lift_lipschitz(1, 0.3) == 1.0
        assert lift_lipschitz(2, 0.5) == pytest.approx(math.sqrt(2.0))
        assert lift_lipschitz(3, 0.0) == 1.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            lift_lipschitz(2, -0.1)

    def test_lift_is_lipschitz_on_ball(self):
        vbar, n_levels, d = 0.6, 3, 2
        lip = lift_lipschitz(n_levels, vbar)
        for _ in range(500):
            a = RNG.uniform(-1, 1, d)
            b = RNG.uniform(-1, 1, d)
            for s in (a, b):
                nrm = np.linalg.norm(s)
                if nrm > vbar:
                    s *= vbar / nrm * RNG.uniform(0, 1)
            gap = np.linalg.norm(lift_state(a, n_levels)
                                 - lift_state(b, n_levels))
            assert gap <= lip * np.linalg.norm(a - b) + 1e-12

