"""Classical solves of the stacked window and the oracle cost model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve_triangular

from robustlift.carleman import (
    build_lifted_step,
    lift_state,
    majorant_and_contractivity,
)
from robustlift import horizon
from robustlift.dynamics import PolynomialMapCoeffs
from robustlift.horizon import assemble_horizon
from robustlift.instances import random_coeff_map
from robustlift.multipoly import MultiPoly
from robustlift.solver import (
    ResourceModel,
    qlsa_estimate,
    solve_forward,
    solve_linear_system,
)

RNG = np.random.default_rng(41)


def toy_system(t_window=10, seed=3):
    rng = np.random.default_rng(seed)
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    polys = [rng.uniform(-0.05, 0.05) + rng.uniform(-0.3, 0.3) * x0
             + rng.uniform(-0.3, 0.3) * x1 + rng.uniform(-0.1, 0.1) * x0 * x1
             for _ in range(2)]
    coeffs = PolynomialMapCoeffs.from_coordinate_polys(polys)
    step = build_lifted_step(coeffs, 3)
    rho = majorant_and_contractivity(coeffs, 3).rho
    y0 = lift_state(np.array([0.12, -0.08]), 3)
    return assemble_horizon([step] * t_window, y0, rho)


class TestClassicalSolve:
    def test_zero_window_solution_is_rhs(self):
        system = assemble_horizon([], np.array([0.6, -0.3]), 0.2, dims=(2, 1))
        out = solve_linear_system(system)
        np.testing.assert_allclose(out.stacked, [0.6, -0.3], atol=1e-14)
        np.testing.assert_allclose(out.block(0), [0.6, -0.3], atol=1e-14)

    def test_direct_matches_forward(self):
        system = toy_system()
        direct = solve_linear_system(system)
        forward = solve_forward(system)
        gap = np.linalg.norm(direct.stacked - forward.stacked)
        assert gap <= 1e-10 * max(1.0, np.linalg.norm(forward.stacked))
        assert direct.residual <= 1e-12
        assert forward.residual <= 1e-12

    def test_first_block_is_initial_lift(self):
        system = toy_system()
        out = solve_linear_system(system)
        np.testing.assert_allclose(out.block(0), system.rhs[:system.block_dim],
                                   atol=1e-12)

    def test_normalized_state_is_unit(self):
        out = solve_linear_system(toy_system())
        assert abs(np.linalg.norm(out.normalized_state) - 1.0) <= 1e-14
        np.testing.assert_allclose(out.normalized_state * out.norm,
                                   out.stacked, atol=1e-12)

    def test_blocks_tile_the_stacked_vector(self):
        system = toy_system(t_window=4)
        out = solve_linear_system(system)
        assert out.y_blocks.shape == (5, system.block_dim)
        np.testing.assert_array_equal(out.y_blocks.reshape(-1), out.stacked)

    def test_zero_solution_raises(self):
        x0 = MultiPoly.variable(1, 0)
        coeffs = PolynomialMapCoeffs.from_coordinate_polys([0.5 * x0])
        step = build_lifted_step(coeffs, 1)
        system = assemble_horizon([step] * 3, np.zeros(1), 0.5)
        with pytest.raises(ArithmeticError):
            solve_linear_system(system)


def random_window(seed, d, degree, n_levels, t_window):
    """A dense random map's lifted window, solved both ways."""
    rng = np.random.default_rng(seed)
    coeffs = random_coeff_map(rng, d, degree)
    v0 = rng.standard_normal(d)
    v0 *= 0.2 / max(np.linalg.norm(v0), 1e-12)
    rho = majorant_and_contractivity(coeffs, n_levels).rho
    step = build_lifted_step(coeffs, n_levels)
    system = assemble_horizon([step] * t_window, lift_state(v0, n_levels),
                              rho, dims=(d, n_levels))
    return system, solve_linear_system(system), solve_forward(system)


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestDifferential:
    """Block substitution against independent routes across a size ladder."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]),
           degree=st.integers(1, 3), n_levels=st.integers(1, 4),
           t_window=st.sampled_from([0, 1, 7, 30]))
    @settings(max_examples=60, deadline=None)
    def test_ladder(self, seed, d, degree, n_levels, t_window):
        system, sol, fwd = random_window(seed, d, degree, n_levels, t_window)
        # the independent triangular route, which needs the stacked CSR
        ref = spsolve_triangular(system.matrix_normalized,
                                 system.rhs_normalized, lower=True)
        assert rel_gap(sol.stacked, ref) <= 1e-10
        assert rel_gap(sol.stacked, fwd.stacked) <= 1e-10
        y = np.random.default_rng(seed).standard_normal(system.dim)
        assert rel_gap(system.matvec(y), system.matrix @ y) <= 1e-13
        # the closed-form counts are the stacked CSR's
        assert system.stacked_nnz == system.matrix.nnz
        assert system.max_row_nnz == np.diff(system.matrix.indptr).max()
        assert sol.residual <= 1e-12 and fwd.residual <= 1e-12

    def test_frontier_size_solves_without_stacked_matrix(self):
        # (d=4, degree 3, N=7, T=500): 329-wide blocks, ~53M stacked nonzeros
        system, sol, fwd = random_window(5, 4, 3, 7, 500)
        assert system.block_dim == 329
        assert system.stacked_nnz > horizon.MAX_STACKED_NNZ
        assert sol.residual <= 1e-12 and fwd.residual <= 1e-12
        assert rel_gap(sol.stacked, fwd.stacked) <= 1e-10
        assert "matrix" not in system.__dict__
        assert "matrix_normalized" not in system.__dict__
        with pytest.raises(MemoryError, match="MAX_STACKED_NNZ"):
            system.matrix


class TestResourceModel:
    def base(self, **kw):
        args = dict(s_row=8, kappa=3.0, dim=2.0**20, eps_ls=1e-3)
        args.update(kw)
        return ResourceModel(**args)

    def test_qubit_count_frozen_example(self):
        est = qlsa_estimate(self.base(a_ancilla=10))
        # 20 address + 2 for kappa + 10 for eps + 10 ancillas
        assert est.qubits == 42

    def test_queries_linear_in_kappa(self):
        one = qlsa_estimate(self.base(kappa=3.0))
        two = qlsa_estimate(self.base(kappa=6.0))
        assert two.queries == pytest.approx(2.0 * one.queries, rel=1e-12)

    def test_polylog_ratio_self_check(self):
        dim = 2.0**20
        small = qlsa_estimate(self.base(dim=dim))
        large = qlsa_estimate(self.base(dim=dim * dim))
        expect = math.log2(dim * dim / 1e-3) / math.log2(dim / 1e-3)
        assert large.queries / small.queries == pytest.approx(expect,
                                                              rel=1e-12)

    def test_monotone_in_each_argument(self):
        base = qlsa_estimate(self.base())
        assert qlsa_estimate(self.base(s_row=16)).queries > base.queries
        assert qlsa_estimate(self.base(kappa=5.0)).queries > base.queries
        assert qlsa_estimate(self.base(dim=2.0**22)).queries > base.queries
        assert qlsa_estimate(self.base(eps_ls=1e-5)).queries > base.queries

    def test_qram_swaps_preparation(self):
        plain = qlsa_estimate(self.base())
        fast = qlsa_estimate(self.base(qram=True))
        assert plain.prep_gates == 2.0**20
        assert fast.prep_gates == pytest.approx(20.0)
        assert fast.gates < plain.gates
        assert fast.queries == plain.queries
        assert "qram" in fast.formulas["prep"]

    def test_constants_scale_outputs(self):
        unit = qlsa_estimate(self.base())
        scaled = qlsa_estimate(self.base(c_query=2.5))
        assert scaled.queries == pytest.approx(2.5 * unit.queries)

    def test_clamped_logs_keep_estimates_sane(self):
        est = qlsa_estimate(ResourceModel(s_row=1, kappa=1.0, dim=2.0,
                                          eps_ls=0.9))
        assert est.queries >= 1.0
        assert est.qubits >= 1 + 1 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceModel(s_row=0, kappa=1.0, dim=4.0, eps_ls=0.1)
        with pytest.raises(ValueError):
            ResourceModel(s_row=1, kappa=1.0, dim=4.0, eps_ls=1.0)

    def test_to_dict_reports_inputs(self):
        est = qlsa_estimate(self.base())
        payload = est.to_dict()
        assert payload["inputs"]["kappa"] == 3.0
        assert payload["inputs"]["qram"] is False
        assert "queries" in payload["formulas"]
