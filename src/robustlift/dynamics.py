"""One attacker/learner training step and its polynomial coefficient form.

The coupled state is v = (delta, u): perturbation block first, parameter
block second.  The exact step signs the attack gradient, clamps to the
ball, then descends the learner gradient at the updated perturbation.
The surrogate step replaces sign and clamp by certified odd polynomials
and the gradients by polynomial models, which makes the whole update one
polynomial map v -> sum_l Q_l v^(x l).  That step is written once: run on
real points it gives trajectories, on complex grids the FFT expansion,
and on an object array of `MultiPoly` coordinates the map's coordinate
polynomials.

Coefficients are stored per monomial: degree l maps each exponent beta
to the d-vector of its coefficients in the d output coordinates.  Read as
a tensor, Q_l spreads a monomial's coefficient equally over the ordered
index words with that exponent content, coeff / multiplicity(beta) each.
On the symmetric tensors the lift works with (see `carleman`), Q_l is the
d x C(d+l-1, l) matrix of columns coeff / sqrt(multiplicity(beta)), so
its operator norm follows exactly from a d x d Gram matrix, never from
d^l columns.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .multipoly import MultiPoly
from .polyapprox import OddPolynomial

__all__ = [
    "CoupledState",
    "StepSchedule",
    "AffineGradient",
    "PolynomialGradient",
    "StepMonitor",
    "exact_outer_step",
    "folded_poly_step",
    "folded_step_closure",
    "PolynomialMapCoeffs",
    "DegreeOverflowError",
    "expand_polynomial_map",
    "AttackSubstep",
    "LearnerSubstep",
    "ComposedSchedule",
    "compose_schedule",
    "schedule_error_constant",
    "one_step_delta_bound",
    "scaled_base_step_error_bound",
]

# `expand_polynomial_map`: largest (d_max + 1)^d exponent box, and the
# residual check on random real points that enforces the degree promise
_MAX_EXPAND_GRID = 2_000_000
_EXPAND_CHECK_POINTS = 100
_EXPAND_TOL = 1e-10
# most points per closure call of `expand_polynomial_map`
_EXPAND_BLOCK = 16_384


class DegreeOverflowError(RuntimeError):
    """Raised when a closure is not a polynomial of the promised degree."""


@dataclass(frozen=True)
class CoupledState:
    delta: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))

    @property
    def m(self) -> int:
        return len(self.delta)

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def d(self) -> int:
        return self.m + self.n

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.delta, self.u])

    @classmethod
    def from_vector(cls, v: np.ndarray, m: int) -> "CoupledState":
        v = np.asarray(v, dtype=float)
        return cls(v[:m], v[m:])


@dataclass(frozen=True)
class StepSchedule:
    """Window length, ball radius and per-step sizes/normalizations."""

    eps_ball: float
    eta_delta: np.ndarray
    eta_u: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        for name in ("eta_delta", "eta_u", "alpha"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.eta_delta) == len(self.eta_u) == len(self.alpha)):
            raise ValueError("per-step arrays must share one length")
        if (self.eta_delta <= 0).any() or (self.eta_u < 0).any() or (self.alpha <= 0).any():
            raise ValueError("step sizes must be positive (eta_u may be zero)")

    @classmethod
    def uniform(cls, t_window: int, eps_ball: float, eta_delta: float,
                eta_u: float, alpha: float = 1.0) -> "StepSchedule":
        ones = np.ones(t_window)
        return cls(eps_ball, eta_delta * ones, eta_u * ones, alpha * ones)

    @property
    def t_window(self) -> int:
        return len(self.eta_delta)

    @property
    def eta_delta_max(self) -> float:
        return float(self.eta_delta.max()) if self.eta_delta.size else 0.0

    @property
    def eta_u_max(self) -> float:
        return float(self.eta_u.max()) if self.eta_u.size else 0.0


class AffineGradient:
    """Exact affine gradients; the polynomial surrogate is the map itself."""

    def __init__(self, a_delta: np.ndarray, b_delta: np.ndarray,
                 a_u: np.ndarray, b_u: np.ndarray):
        self.a_delta = np.asarray(a_delta, dtype=float)
        self.b_delta = np.asarray(b_delta, dtype=float)
        self.a_u = np.asarray(a_u, dtype=float)
        self.b_u = np.asarray(b_u, dtype=float)
        if self.a_delta.shape[1] != self.a_u.shape[1]:
            raise ValueError("gradient blocks disagree on state dimension")
        self.m = self.a_delta.shape[0]
        self.n = self.a_u.shape[0]
        self.d = self.a_delta.shape[1]
        if self.m + self.n != self.d:
            raise ValueError("state dimension must equal m + n")
        self.q = 1
        self.eps_delta_grad = 0.0
        self.eps_u_grad = 0.0

    def g_delta(self, v):
        return v @ self.a_delta.T + self.b_delta

    def g_u(self, v):
        return v @ self.a_u.T + self.b_u

    # the surrogate and the physical gradient coincide
    exact_g_delta = g_delta
    exact_g_u = g_u

    @property
    def l_u_delta(self) -> float:
        block = self.a_u[:, : self.m]
        return float(np.linalg.norm(block, 2)) if block.size else 0.0


class PolynomialGradient:
    """Degree-q polynomial gradient surrogates with declared error bounds."""

    def __init__(self, delta_polys: list[MultiPoly], u_polys: list[MultiPoly],
                 m: int, n: int, eps_delta_grad: float = 0.0,
                 eps_u_grad: float = 0.0, l_u_delta: float = 0.0,
                 exact_g_delta=None, exact_g_u=None):
        self.m, self.n, self.d = m, n, m + n
        self._delta_polys = list(delta_polys)
        self._u_polys = list(u_polys)
        if len(self._delta_polys) != m or len(self._u_polys) != n:
            raise ValueError("one polynomial per gradient coordinate")
        self.q = max([p.total_degree() for p in self._delta_polys + self._u_polys] + [1])
        self.eps_delta_grad = float(eps_delta_grad)
        self.eps_u_grad = float(eps_u_grad)
        self.l_u_delta = float(l_u_delta)
        self._exact_g_delta = exact_g_delta
        self._exact_g_u = exact_g_u

    def g_delta(self, v):
        return np.stack([p(v) for p in self._delta_polys], axis=-1)

    def g_u(self, v):
        return np.stack([p(v) for p in self._u_polys], axis=-1)

    def exact_g_delta(self, v):
        return self._exact_g_delta(v) if self._exact_g_delta else self.g_delta(v)

    def exact_g_u(self, v):
        return self._exact_g_u(v) if self._exact_g_u else self.g_u(v)


def exact_outer_step(v: CoupledState, t: int, sched: StepSchedule,
                     grads) -> CoupledState:
    """Sign step, clamp to the ball, then learner descent at delta+.

    sign(0) = 0; the clamp keeps ||delta+||_inf <= eps exactly.
    """
    g = grads.exact_g_delta(v.vector)
    stepped = v.delta + sched.eta_delta[t] * np.sign(g)
    d_plus = np.clip(stepped, -sched.eps_ball, sched.eps_ball)
    u_plus = v.u - sched.eta_u[t] * grads.exact_g_u(np.concatenate([d_plus, v.u]))
    return CoupledState(d_plus, u_plus)


@dataclass
class StepMonitor:
    """Counts domain excursions of the surrogate step; never intervenes."""

    tau_s: float
    tau_c: float
    big_l: float
    dead_zone: int = 0
    norm_domain: int = 0
    clip_band: int = 0
    clip_range: int = 0
    checked: int = 0
    _warned: bool = field(default=False, repr=False)

    def record(self, w: np.ndarray, z: np.ndarray) -> None:
        aw, az = np.abs(w), np.abs(z)
        self.checked += 1
        hits = 0
        if (aw < self.tau_s).any():
            self.dead_zone += 1
            hits += 1
        if (aw > 1.0).any():
            self.norm_domain += 1
            hits += 1
        if ((az > 1.0 - self.tau_c) & (az < 1.0 + self.tau_c)).any():
            self.clip_band += 1
            hits += 1
        if (az > self.big_l).any():
            self.clip_range += 1
            hits += 1
        if hits and not self._warned:
            warnings.warn("surrogate step left its certified domain; "
                          "flags recorded in the monitor", RuntimeWarning,
                          stacklevel=3)
            self._warned = True

    @property
    def clean(self) -> bool:
        return not (self.dead_zone or self.norm_domain
                    or self.clip_band or self.clip_range)

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "dead_zone": self.dead_zone,
            "norm_domain": self.norm_domain,
            "clip_band": self.clip_band,
            "clip_range": self.clip_range,
            "clean": self.clean,
        }


def _attack_substep(vec, m, eta_delta, alpha, eps_ball, grads,
                    p_s: OddPolynomial, p_c: OddPolynomial,
                    monitor: StepMonitor | None):
    """Surrogate sign step on delta, then the surrogate clamp to the ball."""
    delta, u = vec[..., :m], vec[..., m:]
    w = grads.g_delta(vec) / alpha
    z = (delta + eta_delta * p_s(w)) / eps_ball
    if monitor is not None:
        monitor.record(np.real(w), np.real(z))
    return np.concatenate([eps_ball * p_c(z), u], axis=-1)


def _learner_substep(vec, m, eta_u, grads):
    """Descent on u at the current perturbation."""
    delta, u = vec[..., :m], vec[..., m:]
    return np.concatenate([delta, u - eta_u * grads.g_u(vec)], axis=-1)


def _folded_vector_step(vec, m, t, sched, grads, p_s: OddPolynomial,
                        p_c: OddPolynomial, monitor: StepMonitor | None):
    attacked = _attack_substep(vec, m, sched.eta_delta[t], sched.alpha[t],
                               sched.eps_ball, grads, p_s, p_c, monitor)
    return _learner_substep(attacked, m, sched.eta_u[t], grads)


def folded_poly_step(v: CoupledState, t: int, sched: StepSchedule, grads,
                     p_s: OddPolynomial, p_c: OddPolynomial,
                     monitor: StepMonitor | None = None) -> CoupledState:
    out = _folded_vector_step(v.vector, v.m, t, sched, grads, p_s, p_c, monitor)
    return CoupledState.from_vector(out, v.m)


def folded_step_closure(t: int, sched: StepSchedule, grads,
                        p_s: OddPolynomial, p_c: OddPolynomial,
                        monitor: StepMonitor | None = None):
    """Vectorized (and complex-capable) map over points of shape (..., d).

    It also takes a (d,) object array of `MultiPoly` coordinates, without
    a monitor, and then returns the step's coordinate polynomials in them.
    """

    def step(points):
        return _folded_vector_step(np.asarray(points), grads.m, t, sched,
                                   grads, p_s, p_c, monitor)

    return step


# ----------------------------------------------------------------------
# coefficient tensors


def _multiplicity(beta: tuple[int, ...]) -> int:
    out = math.factorial(sum(beta))
    for b in beta:
        out //= math.factorial(b)
    return out


class PolynomialMapCoeffs:
    """Map v -> sum_l Q_l v^(x l), stored per exponent with one d-vector each.

    A value: `terms` and its per-degree maps are read-only views, and the
    vectors read-only copies, so the norm series and the row sparsities
    are computed once, and `scaled` makes a new map.
    """

    def __init__(self, d: int, terms: dict[int, dict[tuple[int, ...], np.ndarray]]):
        self.d = d
        frozen = {}
        for ell, by_beta in terms.items():
            if not by_beta:
                continue
            copies = {beta: np.array(c, dtype=float) for beta, c in by_beta.items()}
            for c in copies.values():
                c.flags.writeable = False
            frozen[ell] = MappingProxyType(copies)
        self.terms = MappingProxyType(frozen)
        self._norms = None
        self._row_sparsities = None

    @property
    def degree(self) -> int:
        return max(self.terms, default=0)

    @classmethod
    def from_coordinate_polys(cls, polys: list[MultiPoly],
                              tol: float = 0.0) -> "PolynomialMapCoeffs":
        d = len(polys)
        if any(p.d != d for p in polys):
            raise ValueError("coordinate polynomials must use d variables")
        terms: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
        for i, p in enumerate(polys):
            top = p.total_degree(tol)
            for ell in range(top + 1):
                for beta, c in p.degree_slice(ell).items():
                    if abs(c) <= tol:
                        continue
                    vec = terms.setdefault(ell, {}).setdefault(beta, np.zeros(d))
                    vec[i] = c
        return cls(d, terms)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points)
        scalar = points.ndim == 1
        pts = points[None, :] if scalar else points
        out = np.zeros(pts.shape[:-1] + (self.d,), dtype=pts.dtype)
        for by_beta in self.terms.values():
            for beta, coeff in by_beta.items():
                mono = np.ones(pts.shape[:-1], dtype=pts.dtype)
                for i, b in enumerate(beta):
                    if b:
                        mono = mono * pts[..., i] ** b
                out = out + mono[..., None] * coeff
        return out[0] if scalar else out

    def constant_vector(self) -> np.ndarray:
        block = self.terms.get(0, {})
        if not block:
            return np.zeros(self.d)
        return next(iter(block.values())).copy()

    def operator_norm(self, ell: int) -> float:
        """Exact spectral norm of Q_ell under symmetric placement."""
        by_beta = self.terms.get(ell)
        if not by_beta:
            return 0.0
        if ell == 0:
            return float(np.linalg.norm(self.constant_vector()))
        gram = np.zeros((self.d, self.d))
        for beta, coeff in by_beta.items():
            gram += np.outer(coeff, coeff) / float(_multiplicity(beta))
        top = float(np.linalg.eigvalsh(gram)[-1])
        return math.sqrt(max(top, 0.0))

    def norm_bounds(self) -> np.ndarray:
        """The norm series ||Q_l|| for l = 0..degree, read-only."""
        if self._norms is None:
            out = np.zeros(self.degree + 1)
            for ell in self.terms:
                out[ell] = self.operator_norm(ell)
            out.flags.writeable = False
            self._norms = out
        return self._norms

    def scaled(self, factors) -> "PolynomialMapCoeffs":
        """The map whose degree-l terms are this map's times factors[l]."""
        return PolynomialMapCoeffs(self.d, {
            ell: {beta: c * factors[ell] for beta, c in by_beta.items()}
            for ell, by_beta in self.terms.items()})

    def row_sparsity(self, ell: int) -> int:
        by_beta = self.terms.get(ell)
        if not by_beta:
            return 0
        counts = [0] * self.d
        for beta, coeff in by_beta.items():
            mult = _multiplicity(beta)
            for i in range(self.d):
                if coeff[i] != 0.0:
                    counts[i] += mult
        return max(counts)

    def row_sparsities(self) -> tuple[int, ...]:
        """Row sparsity of each Q_l for l = 0..degree."""
        if self._row_sparsities is None:
            self._row_sparsities = tuple(self.row_sparsity(ell)
                                         for ell in range(self.degree + 1))
        return self._row_sparsities

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "terms": {
                str(ell): [{"beta": list(beta), "coeffs": coeff.tolist()}
                           for beta, coeff in by_beta.items()]
                for ell, by_beta in sorted(self.terms.items())
            },
        }
        return json.dumps(payload, indent=2)


def _fast_fft_length(minimum: int) -> int:
    """Smallest n >= minimum with no prime factor above 5."""
    n = max(1, minimum)
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def expand_polynomial_map(step_closure, d: int, d_max: int,
                          radius: float = 1.0) -> PolynomialMapCoeffs:
    """Recover exact coefficients of a polynomial closure of degree <= d_max.

    The closure must have real coefficients; a residual check on random
    real points enforces that and the degree promise.  Samples lie on a
    roots-of-unity tensor grid of radius `radius` whose length n is the
    smallest 2^a 3^b 5^c >= d_max + 1, built so that base[n - k] is
    exactly conj(base[k]).  Real coefficients make the values at
    conjugate points conjugate, so the closure is sampled only at
    last-axis indices 0..n//2 and a real inverse FFT gives the
    coefficients, exact (no aliasing) when the promise holds.  Exponents
    past d_max on an axis are never kept.

    The closure must be pointwise: row i of its (P, d) output depends on
    row i of its (P, d) input alone.  It is called once per block of
    whole last-axis rows of the half grid, at most `_EXPAND_BLOCK`
    points where a row fits, so its intermediates stay block-sized; a
    `StepMonitor` inside it therefore records once per block.
    """
    if d < 1:
        raise ValueError(f"need a dimension d >= 1, got {d!r}")
    if d_max < 0:
        raise ValueError(f"need a degree d_max >= 0, got {d_max!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"need a finite radius > 0, got {radius!r}")
    npts = d_max + 1
    if npts**d > _MAX_EXPAND_GRID:
        raise MemoryError("expansion grid exceeds the configured cap")
    n = _fast_fft_length(npts)
    half = radius * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    if n % 2 == 0:
        half[-1] = -radius
    base = np.concatenate([half, np.conj(half[1:(n + 1) // 2][::-1])])
    # row r of the half grid is the point (base[i_0], ..., base[i_{d-2}],
    # half[:]) with (i_0, ..., i_{d-2}) the C-order digits of r in base n;
    # each coordinate's conjugated samples fill one slab of `conj_vals`
    width = len(half)
    n_rows = n ** (d - 1)
    conj_vals = np.empty((d, n_rows, width), dtype=complex)
    block_rows = max(1, _EXPAND_BLOCK // width)
    for lo in range(0, n_rows, block_rows):
        hi = min(lo + block_rows, n_rows)
        rows = np.arange(lo, hi)
        pts = np.empty((hi - lo, width, d), dtype=complex)
        for axis in range(d - 1):
            pts[:, :, axis] = base[rows // n ** (d - 2 - axis) % n, None]
        pts[:, :, -1] = half
        pts = pts.reshape(-1, d)
        vals = np.asarray(step_closure(pts))
        if vals.shape != (len(pts), d):
            raise ValueError("closure must map (P, d) points to (P, d) values")
        np.conjugate(vals.reshape(hi - lo, width, d).transpose(2, 0, 1),
                     out=conj_vals[:, lo:hi])

    # each coordinate's irfftn equals its fftn / n^d, which is real for a
    # real map; only the (d_max + 1)^d exponent box is kept
    box = (slice(0, npts),) * d
    coeff_grid = np.empty((d,) + (npts,) * d)
    for k in range(d):
        coeff_grid[k] = np.fft.irfftn(
            conj_vals[k].reshape((n,) * (d - 1) + (width,)), s=(n,) * d,
            axes=range(d))[box]
    del conj_vals  # freed before the magnitudes: a lower peak on large grids
    point_mags = np.abs(coeff_grid[0])
    for k in range(1, d):
        np.maximum(point_mags, np.abs(coeff_grid[k]), out=point_mags)

    terms: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    scale_cache = radius ** np.arange(npts, dtype=float)
    floor = 1e-12 * max(1.0, float(point_mags.max()))
    # surviving grid points in C order; the descale product runs axis by
    # axis from 1.0, so each row gets the same bits a per-point loop would
    betas = np.argwhere(~(point_mags <= floor))
    descale = np.ones(len(betas))
    for axis in range(d):
        descale *= scale_cache[betas[:, axis]]
    real = coeff_grid[(slice(None),) + tuple(betas.T)].T / descale[:, None]
    real[np.abs(real) <= floor] = 0.0
    keep = real.any(axis=1)
    for beta, row in zip(betas[keep].tolist(), real[keep]):
        terms.setdefault(sum(beta), {})[tuple(beta)] = row
    coeffs = PolynomialMapCoeffs(d, terms)

    rng = np.random.default_rng(0)
    probes = rng.uniform(-0.5, 0.5, size=(_EXPAND_CHECK_POINTS, d)) * radius
    truth = np.asarray(step_closure(probes))
    got = coeffs.evaluate(probes)
    err = np.linalg.norm(truth - got, axis=1)
    ok = err <= _EXPAND_TOL * (1.0 + np.linalg.norm(truth, axis=1))
    if not ok.all():
        worst = float(err.max())
        raise DegreeOverflowError(
            f"closure is not degree <= {d_max} within tolerance "
            f"(worst residual {worst:.3e})")
    return coeffs


# ----------------------------------------------------------------------
# substep schedules


@dataclass(frozen=True)
class AttackSubstep:
    eta_delta: float
    alpha: float


@dataclass(frozen=True)
class LearnerSubstep:
    eta_u: float


@dataclass(frozen=True)
class ComposedSchedule:
    """Finite attack-then-learner composition for one outer step."""

    attack: tuple[AttackSubstep, ...]
    learner: tuple[LearnerSubstep, ...]
    eps_ball: float
    degree_bound: int
    attack_degree_bound: int

    @property
    def k_t(self) -> int:
        return len(self.attack)

    @property
    def l_t(self) -> int:
        return len(self.learner)

    def error_constant(self, lam: float) -> float:
        return schedule_error_constant(lam, self.k_t, self.l_t)


def schedule_error_constant(lam: float, k_t: int, l_t: int) -> float:
    """Geometric accumulation factor of substep errors over one outer step."""
    return float(sum(lam**r for r in range(k_t + l_t)))


def compose_schedule(attack: list[AttackSubstep], learner: list[LearnerSubstep],
                     eps_ball: float, grads, p_s: OddPolynomial,
                     p_c: OddPolynomial,
                     monitor: StepMonitor | None = None):
    """Closure of the composed outer step plus its degree report.

    Degree bound: each attack substep multiplies the degree by at most
    q*K_s*K_c, each learner substep by q.
    """
    if not attack or not learner:
        raise ValueError("need at least one attack and one learner substep")
    q = grads.q
    d_attack = q * p_s.degree * p_c.degree
    sched = ComposedSchedule(
        attack=tuple(attack),
        learner=tuple(learner),
        eps_ball=eps_ball,
        attack_degree_bound=d_attack,
        degree_bound=d_attack ** len(attack) * q ** len(learner),
    )
    m = grads.m

    def closure(points):
        vec = np.asarray(points)
        for sub in sched.attack:
            vec = _attack_substep(vec, m, sub.eta_delta, sub.alpha, eps_ball,
                                  grads, p_s, p_c, monitor)
        for sub in sched.learner:
            vec = _learner_substep(vec, m, sub.eta_u, grads)
        return vec

    return closure, sched


# ----------------------------------------------------------------------
# one-step error bounds


def one_step_delta_bound(m: int, eta_delta: float, delta_s: float,
                         eps_ball: float, delta_c: float) -> float:
    """l2 bound on the exact-vs-surrogate perturbation step."""
    return math.sqrt(m) * (eta_delta * delta_s + eps_ball * delta_c)


def scaled_base_step_error_bound(delta_step_err: float, eta_u: float,
                                 l_u_delta: float, eps_u_grad: float,
                                 scale_delta: float = 1.0,
                                 scale_u: float = 1.0) -> float:
    """One-step state error after diagonal rescaling of the two blocks.

    At the default unit scales this is the unscaled bound
    (1 + eta_u l_u_delta) delta_step_err + eta_u eps_u_grad.
    """
    if min(delta_step_err, eta_u, l_u_delta, eps_u_grad, scale_delta, scale_u) < 0:
        raise ValueError("inputs must be nonnegative")
    return ((scale_delta + scale_u * eta_u * l_u_delta) * delta_step_err
            + scale_u * eta_u * eps_u_grad)
