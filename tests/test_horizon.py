"""Stacked-window assembly, query rows, sparsity and condition bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.io import mmread

import robustlift.horizon as horizon_module
from robustlift.carleman import (
    LiftedStep,
    build_lifted_step,
    lift_state,
    majorant_and_contractivity,
)
from robustlift.dynamics import PolynomialMapCoeffs
from robustlift.horizon import (
    assemble_horizon,
    condition_bounds,
    hockey_stick_total,
    lift_window,
    row_access,
    save_matrix_market,
    sparsity_bounds,
)
from robustlift.instances import (
    certify_instance,
    folded_demo_instance,
    random_coeff_map,
    random_contractive,
)
from robustlift.multipoly import MultiPoly
from robustlift.readout import run_pipeline_certificate

RNG = np.random.default_rng(37)


def quadratic_coeffs(d, seed=0):
    rng = np.random.default_rng(seed)
    vs = [MultiPoly.variable(d, i) for i in range(d)]
    polys = []
    for _ in range(d):
        p = MultiPoly.constant(d, rng.uniform(-0.05, 0.05))
        for v in vs:
            p = p + rng.uniform(-0.3, 0.3) * v
        p = p + rng.uniform(-0.1, 0.1) * vs[0] * vs[-1]
        polys.append(p)
    return PolynomialMapCoeffs.from_coordinate_polys(polys)


def toy_system(d=2, n_levels=3, t_window=10, seed=0):
    coeffs = quadratic_coeffs(d, seed)
    step = build_lifted_step(coeffs, n_levels)
    rho = majorant_and_contractivity(coeffs, n_levels).rho
    y0 = lift_state(np.full(d, 0.1), n_levels)
    system = assemble_horizon([step] * t_window, y0, rho)
    return coeffs, step, system


class TestAssembly:
    def test_zero_window_is_identity(self):
        y0 = np.array([0.3, -0.1])
        system = assemble_horizon([], y0, 0.4, dims=(2, 1))
        np.testing.assert_array_equal(system.matrix.toarray(), np.eye(2))
        np.testing.assert_array_equal(system.rhs, y0)
        assert system.t_window == 0
        assert system.dim == 2

    def test_zero_window_needs_dims(self):
        with pytest.raises(ValueError):
            assemble_horizon([], np.ones(2), 0.4)

    def test_subdiagonal_block_count(self):
        _, step, system = toy_system(t_window=7)
        dim = system.block_dim
        # every off-diagonal nonzero lives in one of exactly T blocks
        coo = system.matrix.tocoo()
        off = coo.row != coo.col
        blocks = {(r // dim, c // dim)
                  for r, c in zip(coo.row[off], coo.col[off])}
        assert blocks == {(t, t - 1) for t in range(1, 8)}
        assert system.matrix.nnz == 8 * dim + 7 * step.b_matrix.nnz

    def test_subdiagonal_is_negated_step(self):
        _, step, system = toy_system(t_window=3)
        dim = system.block_dim
        block = system.matrix[dim:2 * dim, :dim].toarray()
        np.testing.assert_array_equal(block, -step.b_matrix.toarray())

    def test_rhs_stacks_lift_then_constants(self):
        coeffs, step, system = toy_system(t_window=3)
        dim = system.block_dim
        np.testing.assert_array_equal(system.rhs[dim:2 * dim], step.c_vector)
        np.testing.assert_allclose(system.rhs_normalized,
                                   system.rhs * system.inv_scale)

    def test_normalized_scale(self):
        _, _, system = toy_system()
        np.testing.assert_allclose(system.matrix_normalized.toarray(),
                                   system.matrix.toarray() * system.inv_scale,
                                   atol=1e-15)

    def test_matches_block_assembly(self):
        # scipy's bmat over the block grid is the reference layout
        _, step, system = toy_system(t_window=7)
        grid = [[None] * 8 for _ in range(8)]
        for t in range(8):
            grid[t][t] = sparse.identity(system.block_dim, format="csr")
            if t >= 1:
                grid[t][t - 1] = -step.b_matrix
        ref = sparse.bmat(grid, format="csr")
        for got, scale in ((system.matrix, 1.0),
                           (system.matrix_normalized, system.inv_scale)):
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.data, ref.data * scale)

    @pytest.mark.parametrize("pattern", ["", "aaabba", "ab", "aaaa"])
    def test_matvec_matches_per_step_loop(self, pattern):
        # runs of one step object share one sparse-dense product; the
        # per-step loop of B @ y_t is the bitwise reference
        steps = {name: build_lifted_step(quadratic_coeffs(3, seed), 3)
                 for seed, name in enumerate("ab")}
        window = [steps[name] for name in pattern]
        system = assemble_horizon(window, lift_state([0.1, -0.2, 0.05], 3),
                                  0.5, dims=(3, 3))
        y = np.random.default_rng(3).standard_normal(system.dim)
        blocks = y.reshape(len(window) + 1, system.block_dim)
        want = blocks.copy()
        for t, step in enumerate(window):
            want[t + 1] -= step.b_matrix @ blocks[t]
        assert system.matvec(y).tobytes() == want.reshape(-1).tobytes()
        grid = [[None] * (len(window) + 1) for _ in range(len(window) + 1)]
        for t in range(len(window) + 1):
            grid[t][t] = sparse.identity(system.block_dim, format="csr")
            if t >= 1:
                grid[t][t - 1] = -window[t - 1].b_matrix
        ref = sparse.bmat(grid, format="csr")
        np.testing.assert_array_equal(system.matrix.indptr, ref.indptr)
        np.testing.assert_array_equal(system.matrix.indices, ref.indices)
        np.testing.assert_array_equal(system.matrix.data, ref.data)

    def test_preflight_refuses_oversized_stack(self, monkeypatch):
        _, step, system = toy_system(t_window=7)
        nnz = 8 * system.block_dim + 7 * step.b_matrix.nnz
        monkeypatch.setattr(horizon_module, "MAX_STACKED_NNZ", nnz - 1)
        for name in ("matrix", "matrix_normalized"):
            with pytest.raises(MemoryError, match=str(nnz)):
                getattr(system, name)
            assert name not in system.__dict__

    def test_bare_step_rejected(self):
        _, step, _ = toy_system(t_window=1)
        with pytest.raises(TypeError):
            assemble_horizon(step, lift_state([0.1, 0.1], 3), 0.5)

    @pytest.mark.parametrize("t_window", [0, 1, 7])
    def test_lift_window_is_lift_then_stack(self, t_window):
        coeffs = quadratic_coeffs(2)
        v0 = np.array([0.1, -0.05])
        step, system = lift_window(coeffs, 3, v0, t_window, 0.4)
        want_step = build_lifted_step(coeffs, 3)
        want = assemble_horizon([want_step] * t_window, lift_state(v0, 3), 0.4,
                                dims=(2, 3))
        # T references to the one step, not T copies
        assert [id(s) for s in system.steps] == [id(step)] * t_window
        for attr in ("data", "indices", "indptr"):
            assert (getattr(step.b_matrix, attr).tobytes()
                    == getattr(want_step.b_matrix, attr).tobytes())
        assert step.c_vector.tobytes() == want_step.c_vector.tobytes()
        assert system.rhs.tobytes() == want.rhs.tobytes()
        assert system.rhs_normalized.tobytes() == want.rhs_normalized.tobytes()
        assert (system.rho, system.d, system.n_levels) == (0.4, 2, 3)

    def test_dimension_mismatch_rejected(self):
        coeffs = quadratic_coeffs(2)
        step2 = build_lifted_step(coeffs, 2)
        step3 = build_lifted_step(coeffs, 3)
        with pytest.raises(ValueError):
            assemble_horizon([step2, step3], lift_state([0.1, 0.1], 2), 0.5)
        with pytest.raises(ValueError):
            assemble_horizon([step2], np.ones(3), 0.5)
        with pytest.raises(ValueError):
            assemble_horizon([step2], lift_state([0.1, 0.1], 2), -0.1)


class TestRowAccess:
    def test_first_block_row(self):
        _, _, system = toy_system()
        entries = row_access(system, 0, 5)
        assert entries == [(5, system.inv_scale)]

    def test_rows_match_assembled_matrix(self):
        _, _, system = toy_system(t_window=6)
        dense = system.matrix_normalized.toarray()
        dim = system.block_dim
        for _ in range(200):
            t = int(RNG.integers(0, system.t_window + 1))
            r = int(RNG.integers(0, dim))
            row = np.zeros(system.dim)
            for col, val in row_access(system, t, r):
                row[col] = val
            # bitwise: both sides come from the same stored floats
            assert np.array_equal(row, dense[t * dim + r])

    def test_out_of_range_rejected(self):
        _, _, system = toy_system()
        with pytest.raises(IndexError):
            row_access(system, system.t_window + 1, 0)
        with pytest.raises(IndexError):
            row_access(system, 0, system.block_dim)

    @staticmethod
    def loop_reference(system, t, r):
        """The per-entry loop `row_access` replaced, kept as its reference."""
        dim = system.block_dim
        inv = system.inv_scale
        entries = [(t * dim + r, 1.0 * inv)]
        if t >= 1:
            b = system.steps[t - 1].b_matrix
            base = (t - 1) * dim
            for idx in range(b.indptr[r], b.indptr[r + 1]):
                entries.append((base + int(b.indices[idx]), (-b.data[idx]) * inv))
        entries.sort(key=lambda e: e[0])
        return [(c, float(v).hex()) for c, v in entries]

    def assert_rows_match_loop(self, system):
        for t in range(system.t_window + 1):
            for r in range(system.block_dim):
                got = row_access(system, t, r)
                assert all(type(c) is int for c, _ in got)
                assert ([(c, float(v).hex()) for c, v in got]
                        == self.loop_reference(system, t, r))

    @pytest.mark.parametrize("d, n_levels", [(2, 1), (2, 3), (3, 3), (2, 5)])
    def test_rows_match_entry_loop(self, d, n_levels):
        _, _, system = toy_system(d=d, n_levels=n_levels, t_window=4)
        self.assert_rows_match_loop(system)

    def test_unsorted_step_rows_match_entry_loop(self):
        _, step, _ = toy_system(d=3, n_levels=3, t_window=1)
        b = step.b_matrix
        # reverse each row's stored order: the same matrix, unsorted indices
        order = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi
                                in zip(b.indptr[:-1], b.indptr[1:])])
        unsorted = sparse.csr_matrix((b.data[order], b.indices[order], b.indptr),
                                     shape=b.shape)
        assert not unsorted.has_sorted_indices
        steps = [LiftedStep(unsorted, step.c_vector, step.d, step.n_levels)] * 3
        system = assemble_horizon(steps, lift_state(np.full(3, 0.1), 3), 0.3)
        self.assert_rows_match_loop(system)

    def test_entries_sorted_by_column(self):
        _, _, system = toy_system()
        entries = row_access(system, 2, 1)
        cols = [c for c, _ in entries]
        assert cols == sorted(cols)


class TestSparsity:
    def test_hockey_stick_small_case(self):
        assert sum(math.comb(s + 1, 1) for s in range(1, 4)) == 9
        assert hockey_stick_total(2, 3) == 9

    def test_hockey_stick_identity_exhaustive(self):
        for j, n in itertools.product(range(1, 9), range(1, 9)):
            direct = sum(math.comb(s + j - 1, j - 1) for s in range(1, n + 1))
            assert hockey_stick_total(j, n) == direct

    @pytest.mark.parametrize("t_window", [0, 1, 5])
    def test_counts_match_stacked_matrix(self, t_window):
        _, system = lift_window(quadratic_coeffs(2), 3, np.full(2, 0.1),
                                t_window, 0.4)
        assert system.stacked_nnz == system.matrix.nnz
        assert system.max_row_nnz == np.diff(system.matrix.indptr).max()
        if t_window == 0:
            assert system.max_row_nnz == 1

    def test_counts_keep_stored_zeros(self):
        # row 0 of the second B stores an explicit zero, which the stacked
        # CSR keeps; the first B's rows are shorter
        short = LiftedStep(sparse.identity(2, format="csr"), np.zeros(2), 2, 1)
        b = sparse.csr_matrix(((0.1, 0.0, 0.3), (0, 1, 1), (0, 2, 3)),
                              shape=(2, 2))
        step = LiftedStep(b, np.zeros(2), 2, 1)
        system = assemble_horizon([short, step, short], np.zeros(2), 0.5)
        assert system.stacked_nnz == system.matrix.nnz == 8 + 2 + 3 + 2
        assert system.max_row_nnz == np.diff(system.matrix.indptr).max() == 3

    def test_stacked_rows_within_bound(self):
        coeffs, step, system = toy_system(t_window=5)
        report = sparsity_bounds(coeffs.row_sparsities(), system.n_levels)
        measured = int(np.diff(system.matrix.indptr).max())
        assert measured <= report.s_row
        assert report.s_row == report.s_b + 1

    # the kron-count formula bounds each symmetric row: a row's distinct
    # monomials never outnumber its products of stored terms
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
           degree=st.integers(1, 3), n_levels=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_max_row_nnz_within_bound_on_ladder(self, seed, d, degree,
                                                n_levels):
        coeffs = random_coeff_map(np.random.default_rng(seed), d, degree)
        _, system = lift_window(coeffs, n_levels, np.zeros(d), 3, 0.5)
        report = sparsity_bounds(coeffs.row_sparsities(), n_levels)
        assert system.max_row_nnz <= report.s_row

    def test_max_row_nnz_within_bound_on_dense_window(self, saturated_window):
        # dense coupling among the 10 parameters at d = 12
        inst = saturated_window(2, 10, 5, "dense")
        coeffs = inst.build_expansion(None, None)
        assert coeffs.d == 12
        for n_levels in (2, 3):
            _, system = lift_window(coeffs, n_levels, np.zeros(12), 5, 0.5)
            report = sparsity_bounds(coeffs.row_sparsities(), n_levels)
            assert system.max_row_nnz <= report.s_row

    def test_row_access_count_within_bound(self):
        coeffs, _, system = toy_system(t_window=5)
        report = sparsity_bounds(coeffs.row_sparsities(), system.n_levels)
        dim = system.block_dim
        for _ in range(100):
            t = int(RNG.integers(0, system.t_window + 1))
            r = int(RNG.integers(0, dim))
            assert len(row_access(system, t, r)) <= report.s_row


class TestConditioning:
    def test_identity_window(self):
        rep = condition_bounds(0.0, 12)
        assert rep.kappa_bound == 1.0
        assert rep.norm_bound == 1.0

    def test_closed_form_minimum(self):
        rep = condition_bounds(0.5, 30)
        assert rep.kappa_bound == pytest.approx(min(3.0, 62.0))
        rep = condition_bounds(0.99, 1)
        # short window: the geometric sum beats both closed forms
        assert rep.kappa_bound == pytest.approx(1.99 * 1.99)
        assert rep.kappa_bound <= min(199.0, 4.0)

    def test_halved_contraction_window(self):
        # B = 0.5 I, d = 1, N = 1, T = 8: measured kappa within the bound
        coeffs = PolynomialMapCoeffs(1, {1: {(1,): np.array([0.5])}})
        step = build_lifted_step(coeffs, 1)
        system = assemble_horizon([step] * 8, np.array([1.0]), 0.5)
        rep = condition_bounds(0.5, 8, system=system)
        assert rep.measured_kappa is not None
        assert rep.measured_kappa <= 3.0 + 1e-8
        assert rep.measured_norm <= 1.5 + 1e-12

    def test_measured_norm_within_bound(self):
        _, _, system = toy_system(t_window=8)
        rep = condition_bounds(system.rho, 8, system=system)
        assert rep.measured_norm <= rep.norm_bound + 1e-10
        assert rep.measured_kappa <= rep.kappa_bound + 1e-8

    def test_iteration_cap_reports_none(self, monkeypatch):
        _, _, system = toy_system(t_window=8)
        monkeypatch.setattr(horizon_module, "_LANCZOS_MAX_ITER", 1)
        rep = condition_bounds(system.rho, 8, system=system)
        assert rep.measured_kappa is None and rep.measured_norm is None
        assert rep.kappa_bound == condition_bounds(system.rho, 8).kappa_bound

    def test_geometric_bound_tracks_window(self):
        short = condition_bounds(0.9, 2)
        longer = condition_bounds(0.9, 20)
        assert longer.kappa_bound_geometric > short.kappa_bound_geometric

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            condition_bounds(-0.1, 5)


def _dense_svd_check(system, rho):
    rep = condition_bounds(rho, system.t_window, system=system)
    svals = np.linalg.svd(system.matrix.toarray(), compute_uv=False)
    assert rep.measured_norm == pytest.approx(svals[0], rel=1e-9)
    assert rep.measured_kappa == pytest.approx(svals[0] / svals[-1], rel=1e-9)


class TestLanczosAgainstDenseSvd:
    def test_random_contractive_windows(self):
        # built like the corpus of acceptance criterion 04, on other draws
        rng = np.random.default_rng(4004)
        for _ in range(24):
            rs = random_contractive(rng, rho_target=0.8)
            step = build_lifted_step(rs.coeffs, rs.n_levels)
            system = assemble_horizon([step] * rs.t_window,
                                      lift_state(rs.v0, rs.n_levels), rs.rho)
            _dense_svd_check(system, rs.rho)

    @pytest.mark.parametrize("make, eps_out, mode", [
        (certify_instance, 0.05, "terminal"),
        (folded_demo_instance, 0.3, "state")])
    def test_shipped_windows(self, monkeypatch, make, eps_out, mode):
        seen = []
        measure = horizon_module.condition_bounds

        def kept(rho, t_window, system=None):
            seen.append((system, rho))
            return measure(rho, t_window, system)

        monkeypatch.setattr(horizon_module, "condition_bounds", kept)
        run_pipeline_certificate(make(), eps_out, mode=mode)
        (system, rho), = seen
        _dense_svd_check(system, rho)

    def test_identity_window(self):
        # T = 0: M is the identity and the first Lanczos step is exact
        system = assemble_horizon([], np.ones(4), 0.5, dims=(4, 1))
        rep = condition_bounds(0.5, 0, system=system)
        assert (rep.measured_norm, rep.measured_kappa) == (1.0, 1.0)

    def test_long_saturated_toy_window_is_measured(self):
        # dim 2005: kappa is measured however long the window is
        meas = run_pipeline_certificate(certify_instance(400), 0.05).measurements
        assert meas["dim"] == 2005
        assert meas["kappa_measured"] is not None
        assert meas["kappa_measured"] <= meas["kappa_bound"]


class TestSerialization:
    def test_matrix_market_roundtrip(self, tmp_path):
        _, _, system = toy_system(t_window=4)
        path = tmp_path / "horizon.mtx"
        save_matrix_market(system, str(path))
        back = mmread(str(path))
        np.testing.assert_allclose(sparse.csr_matrix(back).toarray(),
                                   system.matrix_normalized.toarray(),
                                   atol=1e-15)
