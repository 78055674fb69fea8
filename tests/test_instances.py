"""Ready-made instances: the certified run, its folded twin, random draws."""

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robustlift.instances
from robustlift.carleman import majorant_and_contractivity
from robustlift.dynamics import StepSchedule, exact_outer_step
from robustlift.instances import (
    CertifyInstance,
    FoldedInstance,
    certify_instance,
    folded_demo_instance,
    random_coeff_map,
    random_contractive,
)
from robustlift.multipoly import MultiPoly
from robustlift.readout import run_pipeline_certificate

_ORACLE = Path(__file__).parent / "data"


class TestCertifyInstance:
    def test_regime_margins_by_design(self):
        margins = certify_instance(50).exact_regime_margins()
        assert margins["ok"]
        assert margins["sign_margin"] > 0.5
        assert margins["clamp_margin"] >= 0.0

    @pytest.mark.parametrize("make", [
        lambda window: certify_instance(20),
        lambda window: window(2, 10, 20, "dense"),
        lambda window: window(2, 62, 20, "banded"),
    ], ids=["toy", "dense-d12", "banded-d64"])
    def test_expansion_matches_exact_dynamics(self, make, saturated_window):
        # on the saturated tube the affine map IS the outer step
        inst = make(saturated_window)
        assert inst.exact_regime_margins()["ok"]
        coeffs = inst.build_expansion(None, None)
        dev = inst.deviations(inst.exact_states())
        for t in range(inst.sched.t_window):
            np.testing.assert_allclose(coeffs.evaluate(dev[t]), dev[t + 1],
                                       atol=1e-14)

    def test_certificate_needs_no_exponent_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the step map went back to an exponent grid")

        monkeypatch.setattr(MultiPoly, "__init__", refuse)
        cert = run_pipeline_certificate(certify_instance(50), 0.05)
        assert cert.to_json() == (
            _ORACLE / "saturated_toy_T50_eps0.05_terminal.json").read_text()

    def test_expansion_is_affine(self):
        inst = certify_instance(10)
        coeffs = inst.build_expansion(None, None)
        assert coeffs.degree == 1

    def test_expansion_contracts(self):
        inst = certify_instance(10)
        coeffs = inst.build_expansion(None, None)
        assert majorant_and_contractivity(coeffs, 4).rho < 1.0

    def test_scaled_deviations_stay_in_unit_ball(self):
        inst = certify_instance(50)
        dev = inst.deviations(inst.exact_states())
        assert np.linalg.norm(dev, axis=1).max() < 1.0

    def test_replace_starts_a_fresh_trajectory(self):
        # a cached trajectory of the old window must not outlive replace
        inst = certify_instance(5)
        assert len(inst.exact_states()) == 6
        longer = replace(inst, sched=StepSchedule.uniform(
            10, eps_ball=0.02, eta_delta=0.04, eta_u=0.1, alpha=1.0))
        assert len(longer.exact_states()) == 11
        cert = run_pipeline_certificate(longer, 0.05)
        assert cert.to_json() == run_pipeline_certificate(
            certify_instance(10), 0.05).to_json()

    def test_assignment_starts_a_fresh_trajectory(self):
        # plain assignment of a field must not leave the old trajectory
        inst = certify_instance(5)
        inst.exact_states()
        inst.sched = StepSchedule.uniform(10, eps_ball=0.02, eta_delta=0.04,
                                          eta_u=0.1, alpha=1.0)
        assert len(inst.exact_states()) == 11
        cert = run_pipeline_certificate(inst, 0.05)
        assert cert.to_json() == run_pipeline_certificate(
            certify_instance(10), 0.05).to_json()
        inst.v0 = certify_instance(10).exact_states()[1]
        assert inst.exact_states()[0] is inst.v0

    def test_nonuniform_learner_rate_rejected(self):
        inst = certify_instance(3)
        object.__setattr__(inst.sched, "eta_u",
                           np.array([0.1, 0.2, 0.1]))
        with pytest.raises(ValueError):
            inst.build_expansion(None, None)

    def test_trajectory_defined_by_outer_step(self):
        inst = certify_instance(5)
        v = inst.v0
        for t, expect in enumerate(inst.exact_states()[1:]):
            v = exact_outer_step(v, t, inst.sched, inst.grads)
            np.testing.assert_array_equal(v.vector, expect.vector)


class TestFoldedDemo:
    def test_fixed_polys_carry_measured_certificates(self):
        inst = folded_demo_instance()
        p_s, p_c = inst.design_polys(0.01, 0.01)
        # requested budgets are ignored; the declared accuracies rule
        assert p_s.certificate is not None
        assert p_c.certificate is not None
        assert p_s.degree == 3
        assert p_c.degree == 13

    def test_folded_states_stay_in_ball(self):
        inst = folded_demo_instance()
        p_s, p_c = inst.design_polys(0.05, 0.05)
        monitor = inst.fresh_monitor()
        states = inst.model_states(p_s, p_c, monitor)
        assert len(states) == inst.sched.t_window + 1
        for s in states:
            assert np.max(np.abs(s.delta)) <= inst.sched.eps_ball + 1e-15
        assert monitor.clean

    def test_honest_failure_pattern(self):
        # hypotheses hold, the coarse surrogates do not meet the planned
        # per-step share, so the certificate reports itself unmet
        cert = run_pipeline_certificate(folded_demo_instance(), 0.3,
                                        mode="state")
        assert all(h["pass"] for h in cert.hypotheses.values())
        assert not cert.passed
        failing = {line.name for line in cert.verification if not line.ok}
        assert "per-step model error <= target" in failing
        assert cert.monitor["clean"]

    def test_measured_accuracy_drives_the_claim(self):
        cert = run_pipeline_certificate(folded_demo_instance(), 0.3,
                                        mode="state")
        # claimed split is the worse of planned and delivered
        assert cert.measurements["delta_s"] >= cert.budget.delta_s
        assert cert.measurements["eps_base_step"] > cert.budget.base_target

    @pytest.mark.parametrize("rates", ["eta_u", "eta_delta", "alpha"])
    def test_nonuniform_schedule_rejected(self, rates):
        # a rate decaying from 1 to 0.3 times its start over the window:
        # step 0's map would stand in for all six steps
        inst = folded_demo_instance(6)
        decayed = getattr(inst.sched, rates) * np.linspace(1.0, 0.3, 6)
        inst.sched = replace(inst.sched, **{rates: decayed})
        p_s, p_c = inst.design_polys(0.05, 0.05)
        with pytest.raises(ValueError, match="uniform schedule"):
            inst.build_expansion(p_s, p_c)
        with pytest.raises(ValueError, match="uniform schedule"):
            run_pipeline_certificate(inst, 0.3, mode="state")

    def test_expansion_degree_capped(self, monkeypatch):
        # the cap applies to the bound q^2 K_s K_c = 3 * 13, not to the
        # degree the composed map trims to
        inst = folded_demo_instance()
        p_s, p_c = inst.design_polys(0.05, 0.05)
        monkeypatch.setattr(robustlift.instances, "_MAX_EXPAND_DEGREE", 38)
        with pytest.raises(ValueError, match="too high for direct expansion"):
            inst.build_expansion(p_s, p_c)
        monkeypatch.setattr(robustlift.instances, "_MAX_EXPAND_DEGREE", 39)
        assert inst.build_expansion(p_s, p_c).degree <= 39

    def test_designed_surrogates_refused_before_composing(self):
        # designed surrogates put the bound in the thousands; composing
        # them on MultiPoly grids first would take close to a minute
        inst = replace(folded_demo_instance(), fixed_polys=None)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too high for direct expansion"):
            run_pipeline_certificate(inst, 0.3, mode="state")
        assert time.perf_counter() - start < 5.0


class TestWindowProtocol:
    @pytest.mark.parametrize("make", [certify_instance, folded_demo_instance])
    def test_both_classes_answer_the_five_calls(self, make):
        inst = make(6)
        p_s, p_c = inst.design_polys(0.05, 0.05)
        states = inst.model_states(p_s, p_c, inst.fresh_monitor())
        assert len(states) == 7
        dev = inst.deviations(states)
        want = (np.stack([s.vector for s in states]) - inst.center) * inst.scale
        assert dev.tobytes() == want.tobytes()
        assert inst.build_expansion(p_s, p_c).d == inst.grads.d

    def test_certify_model_is_the_exact_trajectory(self):
        inst = certify_instance(6)
        assert inst.design_polys(0.05, 0.05) == (None, None)
        assert inst.fresh_monitor() is None
        assert inst.model_states(None, None) is inst.exact_states()
        assert not CertifyInstance.uses_fold and FoldedInstance.uses_fold

    def test_fixed_surrogates_certified_once(self, monkeypatch):
        calls = []
        verify = robustlift.instances.verify_poly_spec

        def counted(*args, **kwargs):
            calls.append(args[0])
            return verify(*args, **kwargs)

        monkeypatch.setattr(robustlift.instances, "verify_poly_spec", counted)
        inst = folded_demo_instance(6)
        assert len(calls) == 2
        first = inst.design_polys(1e-3, 1e-3)
        second = inst.design_polys(0.05, 0.02)
        assert len(calls) == 2
        assert first[0] is second[0] and first[1] is second[1]
        assert first[0].certificate is not None
        assert first[1].certificate is not None


class TestRandomFamilies:
    def test_coeff_map_hits_norm_targets(self):
        rng = np.random.default_rng(7)
        norms = random_coeff_map(rng, 2, 3).norm_bounds()
        assert norms[0] == pytest.approx(0.02, rel=1e-9)
        assert norms[1] == pytest.approx(0.5, rel=1e-9)
        assert norms[2] == pytest.approx(0.1 / 2, rel=1e-9)
        assert norms[3] == pytest.approx(0.1 / 6, rel=1e-9)

    def test_contractive_draws_meet_target(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            sys = random_contractive(rng, rho_target=0.8)
            assert sys.rho <= 0.8
            assert 1 <= sys.coeffs.d <= 3
            assert sys.t_window <= 20
            assert majorant_and_contractivity(
                sys.coeffs, sys.n_levels).rho == pytest.approx(sys.rho)

    def test_trajectory_shape_and_start(self):
        rng = np.random.default_rng(3)
        sys = random_contractive(rng)
        traj = sys.trajectory()
        assert traj.shape == (sys.t_window + 1, sys.coeffs.d)
        np.testing.assert_array_equal(traj[0], sys.v0)

    def test_fixed_degree_request(self):
        rng = np.random.default_rng(5)
        sys = random_contractive(rng, degree=1)
        assert sys.coeffs.degree == 1

    def test_corpus_keeps_its_coefficient_bytes(self):
        # criterion 01's 110 draws; the digest was taken when both random
        # builders still scaled the coefficient vectors in place
        rng = np.random.default_rng(20260814)
        digest = hashlib.sha256()
        for _ in range(110):
            terms = random_contractive(rng, rho_target=0.8).coeffs.terms
            for ell in sorted(terms):
                for beta, vec in terms[ell].items():
                    digest.update(repr((ell, beta)).encode())
                    digest.update(vec.tobytes())
        assert digest.hexdigest() == (
            "ca8a3df1b0f4f7a8051b824cfdeefcb10b5be64ccdfa81a1a9a5464f676261ed")

    def test_draws_are_seeded(self):
        a = random_contractive(np.random.default_rng(11))
        b = random_contractive(np.random.default_rng(11))
        np.testing.assert_array_equal(a.v0, b.v0)
        assert a.rho == b.rho
