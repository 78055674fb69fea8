"""Ready-made systems: the certified descent example and random families.

Both window classes answer one protocol, so no caller asks which model
a window steps by: `design_polys(delta_s, delta_c)` gives the step's
surrogate pair ((None, None) without surrogates), `model_states(p_s, p_c,
monitor=None)` the model trajectory under it, `deviations(states)` the
scaled coordinates (v - center) * scale the lift works in, one row per
state, `fresh_monitor()` the step monitor or None, and `build_expansion(
p_s, p_c)` the step map in those coordinates.  `exact_states()`, the
genuine iteration, is computed once per window.

The certification example is a one-parameter, one-perturbation training
run designed so the attacker saturates from the first step: its gradient
coordinate stays strictly positive and the ball clamp is active, so the
realized outer step is affine on the whole reachable tube.  That puts
the lifted model in the exact regime (degree one, empty discarded
levels) while the reference trajectory is still the genuine sign-and-
clamp iteration.  `exact_regime_margins` measures how far the run sits
from the regime boundary; the margins are part of the design, not an
assumption; a window that misses them has no bound on its model error.
The affine step reaches the lift in closed form, with no exponent grid.
The folded step reaches it through its own step closure, run on MultiPoly
coordinates c + y / S, so the surrogate step has one definition.

Random families feed the oracle and bound tests: coefficient maps drawn
at controlled norms and rescaled until the majorant certifies the
requested contraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .dynamics import (
    AffineGradient,
    CoupledState,
    PolynomialMapCoeffs,
    StepMonitor,
    StepSchedule,
    exact_outer_step,
    folded_poly_step,
    folded_step_closure,
)
from .multipoly import MultiPoly
from .polyapprox import (ClipSpec, OddPolynomial, SignSpec, clip_checks,
                         design_clip_poly, design_sign_poly, sign_checks,
                         verify_poly_spec)

__all__ = [
    "CertifyInstance",
    "certify_instance",
    "FoldedInstance",
    "folded_demo_instance",
    "random_coeff_map",
    "random_contractive",
    "RandomSystem",
]

# accuracies that fixed surrogates are certified at, whatever a caller budgets
_DECLARED_DELTA_S = 0.05
_DECLARED_DELTA_C = 0.05
# highest degree bound q^2 K_s K_c of a folded step that is composed on
# MultiPoly coordinates
_MAX_EXPAND_DEGREE = 60
# random families: the norms `random_coeff_map` gives degrees 0, 1 and
# l >= 2 (divided by l!), and the largest d, degree, N and T that
# `random_contractive` draws
_CONST_NORM, _LIN_NORM, _HIGH_NORM = 0.02, 0.5, 0.1
_D_MAX, _DEGREE_MAX, _N_LEVELS_MAX, _T_MAX = 3, 3, 4, 20


@dataclass
class _Window:
    """One training window: schedule, gradients, start and coordinates."""

    sched: StepSchedule
    grads: AffineGradient
    v0: CoupledState
    center: np.ndarray
    scale: np.ndarray
    tau_s: float
    tau_c: float
    big_l: float
    lam: float | None = None
    # the trajectory, with the (sched, grads, v0) objects it was computed
    # from; not an init field, so `dataclasses.replace` starts a fresh one
    _exact: tuple[tuple, list[CoupledState]] | None = field(
        default=None, init=False, repr=False, compare=False)

    # whether the model steps through surrogates rather than exactly
    uses_fold: ClassVar[bool]

    def exact_states(self) -> list[CoupledState]:
        """The exact trajectory, recomputed once sched, grads or v0 is reassigned."""
        inputs = (self.sched, self.grads, self.v0)
        if self._exact is None or any(
                now is not then for now, then in zip(inputs, self._exact[0])):
            states = [self.v0]
            for t in range(self.sched.t_window):
                states.append(exact_outer_step(states[-1], t, self.sched,
                                               self.grads))
            self._exact = (inputs, states)
        return self._exact[1]

    def deviations(self, states) -> np.ndarray:
        """Scaled coordinates (v - center) * scale, one row per state."""
        return (np.stack([s.vector for s in states]) - self.center) * self.scale


# ----------------------------------------------------------------------
# the certification example


@dataclass
class CertifyInstance(_Window):
    """Saturated-regime training run with an affine realized step."""

    uses_fold: ClassVar[bool] = False

    def design_polys(self, delta_s, delta_c):
        return None, None

    def model_states(self, p_s, p_c, monitor=None) -> list[CoupledState]:
        return self.exact_states()

    def fresh_monitor(self):
        return None

    def exact_regime_margins(self) -> dict:
        """Distance from the sign flip and from leaving the clamp.

        sign margin: min_t g_delta(v(t)) coordinate-wise, must stay > 0.
        clamp margin: min_t (delta + eta_delta - eps), must stay >= 0 so
        the clamp pins delta at the ball radius every step.
        """
        sched, grads = self.sched, self.grads
        sign_margin = math.inf
        clamp_margin = math.inf
        for t, v in enumerate(self.exact_states()[:-1]):
            g = grads.exact_g_delta(v.vector)
            sign_margin = min(sign_margin, float(g.min()))
            reach = v.delta + sched.eta_delta[t] * np.sign(g) - sched.eps_ball
            clamp_margin = min(clamp_margin, float(reach.min()))
        return {"sign_margin": sign_margin, "clamp_margin": clamp_margin,
                "ok": sign_margin > 0.0 and clamp_margin >= 0.0}

    def build_expansion(self, p_s, p_c) -> PolynomialMapCoeffs:
        """The realized step v+ = A v + b in y = S (v - c), in closed form.

        A has zero delta rows and u block I - eta A_uu; b_delta = eps_ball and
        b_u = -eta (A_udelta eps + b_u).  Then y+ = S A S^-1 y + S (A c + b - c)
        gives Q_1 and Q_0.  Valid precisely where exact_regime_margins is ok.
        """
        sched, grads = self.sched, self.grads
        m, d, eta_u = grads.m, grads.d, sched.eta_u
        if eta_u.size and not np.allclose(eta_u, eta_u[0]):
            raise ValueError("the realized step assumes a uniform learner rate")
        # empty window: the step map is never applied, any rate serves
        eta = float(eta_u[0]) if eta_u.size else 0.0
        a = np.zeros((d, d))
        a[m:, m:] = np.eye(grads.n) - eta * grads.a_u[:, m:]
        b = np.full(d, sched.eps_ball)
        b[m:] = -eta * (np.add.reduce(grads.a_u[:, :m] * sched.eps_ball,
                                      axis=1) + grads.b_u)
        s, c = self.scale, self.center
        # no BLAS call, so no bit depends on its threads; + 0.0 clears -0.0
        q1 = a * (1.0 / s) * s[:, None]
        q0 = (b + np.add.reduce(a * c, axis=1) - c) * s + 0.0
        return PolynomialMapCoeffs(d, {
            0: {(0,) * d: q0} if q0.any() else {},
            1: {tuple(int(i == j) for i in range(d)): q1[:, j]
                for j in range(d) if q1[:, j].any()}})


def certify_instance(t_window: int = 50) -> CertifyInstance:
    """One-parameter run whose attacker saturates from step one.

    eta_delta = 2 eps, so a single sign step crosses the ball; the loss
    gradient in delta keeps a constant sign on the tube, and the learner
    contracts at rate 0.7 toward the robust optimum at delta = eps.
    """
    eps = 0.02
    sched = StepSchedule.uniform(t_window, eps_ball=eps, eta_delta=0.04,
                                 eta_u=0.1, alpha=1.0)
    grads = AffineGradient(
        a_delta=np.array([[0.3, 0.0]]),
        b_delta=np.array([1.0]),
        a_u=np.array([[0.5, 3.0]]),
        b_u=np.array([-0.55]),
    )
    v0 = CoupledState(np.array([eps]), np.array([0.199]))
    center = np.array([eps, 0.0])
    scale = np.array([45.0, 1.5])
    return CertifyInstance(sched=sched, grads=grads, v0=v0, center=center,
                           scale=scale, tau_s=0.7, tau_c=0.8, big_l=6.0,
                           lam=1.25)


# ----------------------------------------------------------------------
# folded variant


@dataclass
class FoldedInstance(_Window):
    """Same coupled run, stepped through the designed surrogates.

    `fixed_polys` short-circuits the per-budget design with handmade
    low-degree surrogates; their declared accuracies come from direct
    measurement over the admissible region, so the budgets they satisfy
    are whatever those measurements support.  They are certified once, at
    construction, and every `design_polys` call returns those objects.
    """

    uses_fold: ClassVar[bool] = True
    fixed_polys: tuple | None = None

    def __post_init__(self) -> None:
        if self.fixed_polys is not None:
            p_s, p_c = self.fixed_polys
            cert_s = verify_poly_spec(
                p_s, sign_checks(SignSpec(1.0, self.tau_s, _DECLARED_DELTA_S)))
            cert_c = verify_poly_spec(
                p_c, clip_checks(ClipSpec(self.big_l, self.tau_c,
                                          _DECLARED_DELTA_C)))
            self.fixed_polys = (replace(p_s, certificate=cert_s),
                                replace(p_c, certificate=cert_c))

    def design_polys(self, delta_s: float, delta_c: float):
        if self.fixed_polys is not None:
            # certified at the declared accuracies, not the caller's budget
            return self.fixed_polys
        p_s = design_sign_poly(SignSpec(1.0, self.tau_s, delta_s))
        p_c = design_clip_poly(ClipSpec(self.big_l, self.tau_c, delta_c))
        return p_s, p_c

    def model_states(self, p_s, p_c, monitor: StepMonitor | None = None):
        states = [self.v0]
        for t in range(self.sched.t_window):
            states.append(folded_poly_step(states[-1], t, self.sched,
                                           self.grads, p_s, p_c, monitor))
        return states

    def fresh_monitor(self) -> StepMonitor:
        return StepMonitor(self.tau_s, self.tau_c, self.big_l)

    def build_expansion(self, p_s, p_c) -> PolynomialMapCoeffs:
        # the expansion is step 0's map, so it stands for every step only
        # when the schedule is uniform
        sched = self.sched
        for rates in (sched.eta_delta, sched.eta_u, sched.alpha):
            if rates.size and not np.allclose(rates, rates[0]):
                raise ValueError("the folded step assumes a uniform schedule")
        # refused from the degree bound before any composition: the
        # composed grids grow with it, whatever the trimmed degree
        if self.grads.q ** 2 * p_s.degree * p_c.degree > _MAX_EXPAND_DEGREE:
            raise ValueError("surrogate degrees too high for direct expansion")
        # the step itself, run on coordinates v = c + y / S, then mapped
        # back to y+ = S (v+ - c)
        c, s = self.center, self.scale
        coords = np.array([MultiPoly.variable(len(c), i) * (1.0 / s[i]) + c[i]
                           for i in range(len(c))], dtype=object)
        out = folded_step_closure(0, sched, self.grads, p_s, p_c)(coords)
        return PolynomialMapCoeffs.from_coordinate_polys(
            [(p - c[i]) * s[i] for i, p in enumerate(out)], tol=1e-14)


def folded_demo_instance(t_window: int = 6) -> FoldedInstance:
    """Low-degree folded run in the saturated attacker regime.

    Saturation is what makes the window contract: on the flat part of the
    clamp the folded step loses its delta-derivative, so the majorant is
    dominated by the learner rate.  The cubic sign and degree-13 clamp
    surrogates are a few percent accurate on the visited regions.  This
    exercises the folded machinery; it is not a tight certificate.
    """
    base = certify_instance(t_window)
    sched = StepSchedule.uniform(t_window, eps_ball=base.sched.eps_ball,
                                 eta_delta=0.04, eta_u=0.1, alpha=1.2)
    p_s = OddPolynomial(np.array([1.1932, -0.2339]), halfwidth=1.0)
    p_c = OddPolynomial(np.array([
        1.2673167, -0.40685606, 0.22602583, -0.14315523,
        0.09384986, -0.0607401, 0.03718076]), halfwidth=6.0)
    return FoldedInstance(
        sched=sched, grads=base.grads, v0=base.v0,
        center=base.center, scale=base.scale,
        tau_s=0.7, tau_c=0.8, big_l=6.0, lam=1.25,
        fixed_polys=(p_s, p_c))


# ----------------------------------------------------------------------
# random families


def _exponents(d: int, ell: int):
    for cuts in itertools.combinations_with_replacement(range(d), ell):
        beta = [0] * d
        for i in cuts:
            beta[i] += 1
        yield tuple(beta)


def random_coeff_map(rng: np.random.Generator, d: int,
                     degree: int) -> PolynomialMapCoeffs:
    """Dense random coefficients at controlled per-degree norms."""
    terms: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    for ell in range(degree + 1):
        block = {beta: rng.standard_normal(d) for beta in _exponents(d, ell)}
        terms[ell] = block
    coeffs = PolynomialMapCoeffs(d, terms)
    targets = [_CONST_NORM, _LIN_NORM] + [_HIGH_NORM / math.factorial(ell)
                                          for ell in range(2, degree + 1)]
    return coeffs.scaled([target / norm if norm != 0.0 else 1.0
                          for target, norm in zip(targets, coeffs.norm_bounds())])


@dataclass(frozen=True)
class RandomSystem:
    coeffs: PolynomialMapCoeffs
    v0: np.ndarray
    t_window: int
    n_levels: int
    rho: float

    def trajectory(self) -> np.ndarray:
        out = np.empty((self.t_window + 1, self.coeffs.d))
        out[0] = self.v0
        for t in range(self.t_window):
            out[t + 1] = self.coeffs.evaluate(out[t])
        return out


def random_contractive(rng: np.random.Generator, rho_target: float = 0.95,
                       degree: int | None = None) -> RandomSystem:
    """Draw a coefficient map and shrink it until the majorant certifies.

    Shrinking every order above zero by a common factor drives the
    majorant norm down geometrically, so the loop always terminates.
    """
    from .carleman import majorant_and_contractivity

    d = int(rng.integers(1, _D_MAX + 1))
    deg = int(degree if degree is not None else rng.integers(1, _DEGREE_MAX + 1))
    n_levels = int(rng.integers(max(2, deg), _N_LEVELS_MAX + 1)) \
        if _N_LEVELS_MAX >= max(2, deg) else _N_LEVELS_MAX
    t_window = int(rng.integers(1, _T_MAX + 1))
    coeffs = random_coeff_map(rng, d, deg)
    for _ in range(200):
        rho = majorant_and_contractivity(coeffs, n_levels).rho
        if rho <= rho_target:
            break
        coeffs = coeffs.scaled([1.0] + [0.7] * coeffs.degree)
    else:
        raise RuntimeError("rescaling failed to certify contraction")
    v0 = rng.standard_normal(d)
    v0 *= 0.2 / max(np.linalg.norm(v0), 1e-12)
    return RandomSystem(coeffs, v0, t_window, n_levels, float(rho))
