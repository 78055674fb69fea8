"""Lifting a polynomial step map to a truncated linear recurrence.

Levels stack Kronecker powers of the state: the lifted vector holds
v, v^(x2), ..., v^(xN) in row-major tuple order.  The step map's
coefficient tensors feed transfer blocks K_{j,s}; keeping 1 <= j,s <= N
gives the square block matrix B and the constant column c of the
truncated affine recurrence.

Assembly runs the level recurrence

    K_{j,s} = sum_l kron(Q_l, K_{j-1, s-l}),

over one list of blocks per level, which touches each block once instead
of enumerating compositions.  Each Q_l comes from the step map placed by
exponent content (see `dynamics`): the word of a column's base-d digits
names a monomial, and every reordering of that word carries the same
share of its coefficient.

Contractivity and truncation tails never look at B directly: a small
N x N majorant built from per-degree operator norms bounds ||B||_2, and
scaled power series of the same norms bound the discarded levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "delta_dim",
    "level_offsets",
    "lift_state",
    "LiftedStep",
    "build_lifted_step",
    "RecurrenceResult",
    "run_truncated_recurrence",
    "MajorantReport",
    "majorant_and_contractivity",
    "TailReport",
    "tail_constant_and_cutoff",
    "design_cutoff",
    "lift_lipschitz",
]

DEFAULT_DIM_CAP = 5_000_000


def delta_dim(d: int, n_levels: int) -> int:
    return sum(d**j for j in range(1, n_levels + 1))


def level_offsets(d: int, n_levels: int) -> np.ndarray:
    """Start offset of each level block; entry [j-1] is where v^(xj) begins."""
    sizes = [d**j for j in range(1, n_levels + 1)]
    return np.concatenate([[0], np.cumsum(sizes)])


def lift_state(v: np.ndarray, n_levels: int,
               dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    d = len(v)
    if delta_dim(d, n_levels) > dim_cap:
        raise MemoryError("lifted dimension exceeds the configured cap")
    blocks = []
    power = np.array([1.0])
    for _ in range(n_levels):
        power = np.kron(power, v)
        blocks.append(power)
    return np.concatenate(blocks)


@dataclass(frozen=True)
class LiftedStep:
    """One step of the truncated lifted recurrence y+ = B y + c."""

    b_matrix: sparse.csr_matrix
    c_vector: np.ndarray
    d: int
    n_levels: int

    @property
    def dim(self) -> int:
        return delta_dim(self.d, self.n_levels)

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.b_matrix @ y + self.c_vector


def build_lifted_step(coeffs, n_levels: int,
                      dim_cap: int = DEFAULT_DIM_CAP) -> LiftedStep:
    d = coeffs.d
    dim = delta_dim(d, n_levels)
    if dim > dim_cap:
        raise MemoryError("lifted dimension exceeds the configured cap")
    top = min(coeffs.degree, n_levels)
    mats = [coeffs.as_matrix(ell) for ell in range(top + 1)]
    # levels[j-1][s] = K_{j,s} for s = 0..N; products with an empty factor
    # are skipped, so an empty block stays an all-zero matrix
    levels = [mats + [sparse.csr_matrix((d, d**s))
                      for s in range(top + 1, n_levels + 1)]]
    for j in range(2, n_levels + 1):
        prev = levels[-1]
        level = []
        for s in range(n_levels + 1):
            used = [ell for ell in range(min(top, s) + 1)
                    if mats[ell].nnz and prev[s - ell].nnz]
            # summed left to right as they are made, seeded by the first;
            # functools.reduce keeps its previous operands alive one product
            # longer, which cost ~4 % of the build at d=3, degree 3, N=5
            terms = (sparse.kron(mats[ell], prev[s - ell], format="csr")
                     for ell in used)
            level.append(sum(terms, next(terms)) if used
                         else sparse.csr_matrix((d**j, d**s)))
        levels.append(level)
    b_matrix = sparse.bmat([level[1:] for level in levels], format="csr")
    c_vector = np.concatenate([level[0].toarray().ravel() for level in levels])
    return LiftedStep(b_matrix, c_vector, d, n_levels)


@dataclass(frozen=True)
class RecurrenceResult:
    y: np.ndarray
    eta: np.ndarray | None

    @property
    def stacked(self) -> np.ndarray:
        return self.y.reshape(-1)


def run_truncated_recurrence(steps, y0: np.ndarray, t_window: int,
                             reference: list[np.ndarray] | None = None,
                             dim_cap: int = DEFAULT_DIM_CAP) -> RecurrenceResult:
    """Iterate the truncated recurrence; optionally track the tail residual.

    `steps` is one LiftedStep (time-invariant) or a sequence with one per
    step.  When `reference` supplies the underlying states v(0..T), eta(t)
    is the gap between the exact lift of v(t) and the truncated iterate.
    """
    per_step = list(steps) if isinstance(steps, (list, tuple)) else [steps] * t_window
    if len(per_step) != t_window:
        raise ValueError("need one lifted step per time step")
    y = np.empty((t_window + 1, len(y0)))
    y[0] = y0
    for t in range(t_window):
        y[t + 1] = per_step[t].apply(y[t])
    eta = None
    if reference is not None:
        if len(reference) != t_window + 1:
            raise ValueError("reference trajectory must cover 0..T")
        n_levels = per_step[0].n_levels if per_step else 0
        eta = np.stack([lift_state(v, n_levels, dim_cap) - y[t]
                        for t, v in enumerate(reference)])
    return RecurrenceResult(y, eta)


# ----------------------------------------------------------------------
# majorants


def _low_norms(expansion, keep: int) -> np.ndarray:
    """Exact operator norms for degrees 0..keep-1, zero padded."""
    series = np.asarray(expansion.norm_bounds(), dtype=float)
    if (series < 0).any():
        raise ValueError("operator-norm series must be nonnegative")
    out = np.zeros(keep)
    out[: min(keep, len(series))] = series[:keep]
    return out


def _truncated_powers(series: np.ndarray, n_levels: int,
                      keep: int) -> np.ndarray:
    """Rows j = 1..n_levels of [x^s] series(x)^j for s = 0..keep-1."""
    out = np.zeros((n_levels, keep))
    power = np.zeros(keep)
    power[0] = 1.0
    for j in range(n_levels):
        power = np.convolve(power, series)[:keep]
        out[j] = power
    return out


@dataclass(frozen=True)
class MajorantReport:
    rho: float
    per_step_rho: np.ndarray
    majorant: np.ndarray
    gamma: float
    sigma: float
    linear_dominant_bound: float
    linear_dominant_applies: bool
    h1_pass: bool


def majorant_and_contractivity(expansions, n_levels: int) -> MajorantReport:
    """Exact norm of the N x N majorant; bounds sup_t ||B(t)||_2.

    Failing H1 is reported, not raised; callers decide what a rho >= 1
    window means for them.
    """
    exps = expansions if isinstance(expansions, (list, tuple)) else [expansions]
    rhos = []
    worst = None
    worst_rho = -1.0
    lin_norm = 0.0
    for exp in exps:
        series = _low_norms(exp, n_levels + 1)
        table = _truncated_powers(series, n_levels, n_levels + 1)
        big_r = table[:, 1:]
        rho_t = float(np.linalg.norm(big_r, 2)) if big_r.size else 0.0
        rhos.append(rho_t)
        if rho_t > worst_rho:
            worst_rho, worst = rho_t, big_r
        if len(series) > 1:
            lin_norm = max(lin_norm, float(series[1]))
    gamma = 1.0 - lin_norm
    lin_part = np.diag([lin_norm**j for j in range(1, n_levels + 1)])
    sigma = float(np.linalg.norm(worst - lin_part, 2))
    return MajorantReport(
        rho=worst_rho,
        per_step_rho=np.asarray(rhos),
        majorant=worst,
        gamma=gamma,
        sigma=sigma,
        linear_dominant_bound=lin_norm + sigma,
        linear_dominant_applies=bool(gamma > 0.0 and sigma < gamma),
        h1_pass=bool(worst_rho < 1.0),
    )


# ----------------------------------------------------------------------
# truncation tails


@dataclass(frozen=True)
class TailReport:
    n_levels: int
    gamma_n: float
    per_level_tails: np.ndarray
    horizon_bound: float
    uniform_bound: float
    weighted_lambda: float | None
    weighted_chi: float | None
    weighted_gamma_n: float | None
    weighted_feasible: bool
    n_design: int | None


def _direct_tail(expansion, n_levels: int, vbar: float) -> np.ndarray:
    """Per-level sums sum_{s>N} [x^s] (phi(x))^j vbar^s for j = 1..N.

    phi is the norm series.  Coefficients of phi^j at orders <= N only
    touch exact low-order norms; everything above folds into the value
    phi(vbar)^j, so tails never materialize high-degree arrays:
    tail_j = phi(vbar)^j - sum_{s<=N} [x^s](phi^j) vbar^s  (all terms >= 0).
    """
    low = _low_norms(expansion, n_levels + 1)
    scaled_low = low * vbar ** np.arange(n_levels + 1, dtype=float)
    phi_val = float(expansion.series_value(vbar))
    tails = np.zeros(n_levels)
    power = np.zeros(n_levels + 1)
    power[0] = 1.0
    total = 1.0
    for j in range(n_levels):
        power = np.convolve(power, scaled_low)[: n_levels + 1]
        total *= phi_val
        tails[j] = max(total - float(power.sum()), 0.0)
    return tails


def tail_constant_and_cutoff(expansions, n_levels: int, vbar: float,
                             t_window: int, rho: float, eps_tr: float,
                             lam: float | None = None) -> TailReport:
    """Discarded-level constant, its horizon bound, and a design cutoff.

    The direct route sums norm-product majorants of the exact tail blocks.
    The weighted route is reported when `lam` > 1 is supplied and the
    weighted series stays below one; it also yields the closed-form
    cutoff for the requested eps_tr.
    """
    if not (0.0 <= rho < 1.0):
        raise ValueError("need 0 <= rho < 1 for the horizon bound")
    exps = expansions if isinstance(expansions, (list, tuple)) else [expansions]
    gamma_n = 0.0
    per_level = np.zeros(n_levels)
    chi = None
    if lam is not None and lam <= 1.0:
        raise ValueError("weight lambda must exceed 1")
    for exp in exps:
        tails = _direct_tail(exp, n_levels, vbar)
        g = float(np.linalg.norm(tails))
        if g > gamma_n:
            gamma_n, per_level = g, tails
        if lam is not None:
            weighted = float(exp.series_value(lam * vbar))
            chi = weighted if chi is None else max(chi, weighted)
    horizon = math.sqrt(t_window + 1) * gamma_n / (1.0 - rho)
    weighted_gamma = None
    n_design = None
    feasible = False
    if lam is not None and chi is not None and chi < 1.0:
        feasible = True
        weighted_gamma = lam ** -(n_levels + 1) * chi / math.sqrt(1.0 - chi * chi)
        n_design = design_cutoff(t_window, rho, eps_tr, chi, lam)
    return TailReport(
        n_levels=n_levels,
        gamma_n=gamma_n,
        per_level_tails=per_level,
        horizon_bound=horizon,
        uniform_bound=gamma_n / (1.0 - rho),
        weighted_lambda=lam,
        weighted_chi=chi,
        weighted_gamma_n=weighted_gamma,
        weighted_feasible=feasible,
        n_design=n_design,
    )


def design_cutoff(t_window: int, rho: float, eps_tr: float, chi: float,
                  lam: float) -> int:
    """Smallest cutoff the weighted tail certifies for the target eps_tr."""
    if not (0.0 < chi < 1.0 and lam > 1.0 and eps_tr > 0.0 and 0.0 <= rho < 1.0):
        raise ValueError("weighted design needs chi in (0,1), lam > 1, eps_tr > 0")
    numer = math.sqrt(t_window + 1) * chi
    denom = (1.0 - rho) * eps_tr * math.sqrt(1.0 - chi * chi)
    value = math.log(numer / denom) / math.log(lam) - 1.0
    return max(1, math.ceil(value))


def lift_lipschitz(n_levels: int, vbar: float) -> float:
    """Lipschitz constant of the lift on the closed vbar ball."""
    if vbar < 0:
        raise ValueError("vbar must be nonnegative")
    total = sum(j * j * vbar ** (2 * j - 2) for j in range(1, n_levels + 1))
    return math.sqrt(total)

