"""One attacker/learner training step and its polynomial coefficient form.

The coupled state is v = (delta, u): perturbation block first, parameter
block second.  The exact step signs the attack gradient, clamps to the
ball, then descends the learner gradient at the updated perturbation.
The surrogate step replaces sign and clamp by certified odd polynomials
and the gradients by polynomial models, which makes the whole update one
polynomial map v -> sum_l Q_l v^(x l).

Coefficient tensors use symmetric placement: a monomial's coefficient is
spread equally over all ordered index words with that exponent content.
Placement goes by content: column k of Q_l spells the word of its l
base-d digits, its content is the column of the same digits sorted, and
every column whose content is the monomial's exponent beta holds
coeff / multiplicity(beta).  Operator norms of the resulting Q_l follow
exactly from a d x d Gram matrix, never from materializing d^l columns.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .multipoly import MultiPoly, ring_chebval
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
    "structural_step_polys",
    "recentre_polys",
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

    def delta_polys(self) -> list[MultiPoly]:
        return [MultiPoly.affine(self.d, self.a_delta[i], float(self.b_delta[i]))
                for i in range(self.m)]

    def u_polys(self) -> list[MultiPoly]:
        return [MultiPoly.affine(self.d, self.a_u[i], float(self.b_u[i]))
                for i in range(self.n)]


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

    def delta_polys(self) -> list[MultiPoly]:
        return list(self._delta_polys)

    def u_polys(self) -> list[MultiPoly]:
        return list(self._u_polys)


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
    """Vectorized (and complex-capable) map over points of shape (..., d)."""

    def step(points):
        return _folded_vector_step(np.asarray(points), grads.m, t, sched,
                                   grads, p_s, p_c, monitor)

    return step


def structural_step_polys(t: int, sched: StepSchedule, grads,
                          p_s: OddPolynomial, p_c: OddPolynomial) -> list[MultiPoly]:
    """Coordinate polynomials of the surrogate step by symbolic composition."""
    d, m = grads.d, grads.m
    g_polys = grads.delta_polys()
    d_plus: list[MultiPoly] = []
    for i in range(m):
        w = g_polys[i] * (1.0 / sched.alpha[t])
        signed = ring_chebval(w * (1.0 / p_s.halfwidth), np.asarray(p_s.full_coeffs()))
        z = (MultiPoly.variable(d, i) + signed * sched.eta_delta[t]) * (1.0 / sched.eps_ball)
        d_plus.append(ring_chebval(z * (1.0 / p_c.halfwidth),
                                   np.asarray(p_c.full_coeffs())) * sched.eps_ball)
    inner = d_plus + [MultiPoly.variable(d, m + j) for j in range(grads.n)]
    u_plus = [MultiPoly.variable(d, m + j) - gu.substitute(inner) * sched.eta_u[t]
              for j, gu in enumerate(grads.u_polys())]
    return d_plus + u_plus


def recentre_polys(polys: list[MultiPoly], center: np.ndarray,
                   scale: np.ndarray) -> list[MultiPoly]:
    """Conjugate a polynomial map by v = center + S^{-1} v~ (S diagonal)."""
    center = np.asarray(center, dtype=float)
    scale = np.asarray(scale, dtype=float)
    d = len(center)
    args = [MultiPoly.variable(d, i) * (1.0 / scale[i]) + center[i] for i in range(d)]
    return [(p.substitute(args) - center[i]) * scale[i] for i, p in enumerate(polys)]


# ----------------------------------------------------------------------
# coefficient tensors


def _multiplicity(beta: tuple[int, ...]) -> int:
    out = math.factorial(sum(beta))
    for b in beta:
        out //= math.factorial(b)
    return out


def _content_index(d: int, ell: int) -> np.ndarray:
    """Exponent content of each of the d^ell columns of Q_ell.

    A content is named by the column of its sorted word, so two columns
    share an entry exactly when one word permutes the other.
    """
    weights = d ** np.arange(ell - 1, -1, -1, dtype=np.int64)
    digits = np.arange(d**ell, dtype=np.int64)[:, None] // weights % d
    return np.sort(digits, axis=1) @ weights


def _content_column(beta: tuple[int, ...]) -> int:
    """Column of the sorted word with exponent content beta."""
    d, ell = len(beta), sum(beta)
    return int(np.repeat(np.arange(d), beta) @ d ** np.arange(ell - 1, -1, -1))


class PolynomialMapCoeffs:
    """Map v -> sum_l Q_l v^(x l), stored per exponent with one d-vector each."""

    def __init__(self, d: int, terms: dict[int, dict[tuple[int, ...], np.ndarray]]):
        self.d = d
        self.terms = {
            ell: {beta: np.asarray(c, dtype=float) for beta, c in by_beta.items()}
            for ell, by_beta in terms.items()
            if by_beta
        }

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
        out = np.zeros(self.degree + 1)
        for ell in self.terms:
            out[ell] = self.operator_norm(ell)
        return out

    def series_value(self, x: float) -> float:
        """sum_l ||Q_l|| x^l; every coefficient is exact here."""
        return float(np.polynomial.polynomial.polyval(x, self.norm_bounds()))

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

    def row_sparsities(self) -> list[int]:
        return [self.row_sparsity(ell) for ell in range(self.degree + 1)]

    def as_matrix(self, ell: int, max_entries: int = 5_000_000) -> sparse.csr_matrix:
        """Q_ell as an explicit d x d^ell sparse matrix (small ell only)."""
        by_beta = self.terms.get(ell, {})
        budget = sum(_multiplicity(beta) * int(np.count_nonzero(coeff))
                     for beta, coeff in by_beta.items())
        if budget > max_entries:
            raise MemoryError(f"materializing Q_{ell} exceeds the entry cap")
        shape = (self.d, self.d**ell)
        if not by_beta:
            return sparse.csr_matrix(shape)
        values = np.stack([coeff / float(_multiplicity(beta))
                           for beta, coeff in by_beta.items()])
        slot = np.full(shape[1], -1)
        slot[[_content_column(beta) for beta in by_beta]] = np.arange(len(by_beta))
        which = slot[_content_index(self.d, ell)]
        cols = np.flatnonzero(which >= 0)
        placed = values[which[cols]].T
        rows, k = np.nonzero(placed)
        return sparse.csr_matrix((placed[rows, k], (rows, cols[k])), shape=shape)

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

    @classmethod
    def from_json(cls, text: str) -> "PolynomialMapCoeffs":
        payload = json.loads(text)
        terms = {
            int(ell): {tuple(entry["beta"]): np.array(entry["coeffs"], dtype=float)
                       for entry in entries}
            for ell, entries in payload["terms"].items()
        }
        return cls(int(payload["d"]), terms)


def expand_polynomial_map(step_closure, d: int, d_max: int,
                          radius: float = 1.0, tol: float = 1e-10,
                          check_points: int = 100,
                          rng: np.random.Generator | None = None,
                          max_grid: int = 2_000_000) -> PolynomialMapCoeffs:
    """Recover exact coefficients of a polynomial closure of degree <= d_max.

    Samples the closure on a roots-of-unity tensor grid of radius `radius`
    and inverts by FFT; exact (no aliasing) when the degree promise holds.
    A residual check on random real points enforces the promise.
    """
    npts = d_max + 1
    if npts**d > max_grid:
        raise MemoryError("expansion grid exceeds the configured cap")
    base = radius * np.exp(2j * np.pi * np.arange(npts) / npts)
    grids = np.meshgrid(*([base] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.asarray(step_closure(pts))
    if vals.shape != (npts**d, d):
        raise ValueError("closure must map (P, d) points to (P, d) values")
    vals = vals.reshape((npts,) * d + (d,))

    terms: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    scale_cache = radius ** np.arange(npts, dtype=float)
    coeff_grid = np.empty((npts,) * d + (d,), dtype=complex)
    for i in range(d):
        coeff_grid[..., i] = np.fft.fftn(vals[..., i]) / npts**d
    mags = np.abs(coeff_grid)
    floor = 1e-12 * max(1.0, float(mags.max()))
    # surviving grid points in C order; the descale product runs axis by
    # axis from 1.0, so each row gets the same bits a per-point loop would
    betas = np.argwhere(~(mags.max(axis=-1) <= floor))
    descale = np.ones(len(betas))
    for axis in range(d):
        descale *= scale_cache[betas[:, axis]]
    real = coeff_grid[tuple(betas.T)].real / descale[:, None]
    real[np.abs(real) <= floor] = 0.0
    keep = real.any(axis=1)
    for beta, row in zip(betas[keep].tolist(), real[keep]):
        terms.setdefault(sum(beta), {})[tuple(beta)] = row
    coeffs = PolynomialMapCoeffs(d, terms)

    rng = rng or np.random.default_rng(0)
    probes = rng.uniform(-0.5, 0.5, size=(check_points, d)) * radius
    truth = np.asarray(step_closure(probes))
    got = coeffs.evaluate(probes)
    err = np.linalg.norm(truth - got, axis=1)
    ok = err <= tol * (1.0 + np.linalg.norm(truth, axis=1))
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
