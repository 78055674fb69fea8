"""Stacking the lifted recurrence over a time window into one linear system.

The unknown is Y = (y(0), ..., y(T)).  Row block 0 pins y(0); row block
t >= 1 encodes y(t) - B(t-1) y(t-1) = c(t-1).  The matrix M therefore has
identity diagonal blocks and -B(t) on the subdiagonal, and the right
hand side stacks the initial lift above the constant columns.  Each
block y(t) is a lift in the symmetric monomial basis of `carleman`,
C(d+N, N) - 1 coordinates wide.  `lift_window` builds the system from a
step map: the lift, then the stack.

The system is held as its steps: `HorizonSystem.matvec` applies M block
by block, and the solvers substitute through the same blocks.  The
stacked CSR of M and of its normalized copy M / (1 + rho) is built only
when something asks for it (the measured kappa, Matrix Market export, a
row check), and only after its closed-form nonzero count, `stacked_nnz`,
is checked against `MAX_STACKED_NNZ`.  `row_access` reproduces the
normalized rows entry for entry from the stored step blocks, which is
what a query oracle would serve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np
from scipy import sparse

from .carleman import LiftedStep, build_lifted_step, delta_dim, lift_state

__all__ = [
    "HorizonSystem",
    "assemble_horizon",
    "lift_window",
    "row_access",
    "SparsityReport",
    "sparsity_bounds",
    "hockey_stick_total",
    "ConditionReport",
    "condition_bounds",
    "save_matrix_market",
]

# largest stacked matrix, in nonzeros, that the lazy CSR builder allocates
MAX_STACKED_NNZ = 50_000_000


@dataclass(frozen=True)
class HorizonSystem:
    rhs: np.ndarray
    rhs_normalized: np.ndarray
    steps: tuple[LiftedStep, ...]
    rho: float
    d: int
    n_levels: int

    @property
    def t_window(self) -> int:
        return len(self.steps)

    @cached_property
    def block_dim(self) -> int:
        return delta_dim(self.d, self.n_levels)

    @property
    def dim(self) -> int:
        return (self.t_window + 1) * self.block_dim

    @property
    def inv_scale(self) -> float:
        return 1.0 / (1.0 + self.rho)

    @property
    def stacked_nnz(self) -> int:
        """Nonzeros the stacked CSR holds: dim + sum over t of nnz(B_t)."""
        return self.dim + sum(s.b_matrix.nnz for s in self.steps)

    @property
    def max_row_nnz(self) -> int:
        """Longest row of the stacked CSR, read from the steps: the diagonal
        entry plus the longest row of any B_t (1 at T = 0)."""
        distinct = {id(s): s.b_matrix for s in self.steps}.values()
        return 1 + max((int(np.diff(b.indptr).max()) for b in distinct), default=0)

    def matvec(self, y: np.ndarray) -> np.ndarray:
        """M y, applied block by block from the steps.

        A run of consecutive identical step objects, such as the
        `[step] * T` of a uniform window, applies its B to all of the
        run's blocks in one sparse-dense product.  Each row of that
        product sums the same terms in the same order as one B @ y_t,
        so the result is the per-step loop's, bit for bit.
        """
        blocks = np.asarray(y, dtype=float).reshape(self.t_window + 1,
                                                    self.block_dim)
        out = blocks.copy()
        t = 0
        for _, run in groupby(self.steps, key=id):
            run = list(run)
            e = t + len(run)
            out[t + 1:e + 1] -= (run[0].b_matrix @ blocks[t:e].T).T
            t = e
        return out.reshape(-1)

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """Stacked CSR of M, built on first access."""
        return self._stacked_csr()

    @cached_property
    def matrix_normalized(self) -> sparse.csr_matrix:
        """Stacked CSR of M / (1 + rho), built on first access."""
        out = self._stacked_csr()
        out.data *= self.inv_scale
        return out

    def _stacked_csr(self) -> sparse.csr_matrix:
        nnz = self.stacked_nnz
        if nnz > MAX_STACKED_NNZ:
            raise MemoryError(f"stacked matrix would hold {nnz} nonzeros, "
                              f"above MAX_STACKED_NNZ = {MAX_STACKED_NNZ}")
        # COO triplets block by block; the CSR conversion sorts each row
        dim = self.block_dim
        diag = np.arange(self.dim)
        rows, cols, vals = [diag], [diag], [np.ones(self.dim)]
        coo = {}  # one COO copy per distinct step object
        for t, step in enumerate(self.steps):
            if id(step) not in coo:
                coo[id(step)] = step.b_matrix.tocoo()
            b = coo[id(step)]
            rows.append(b.row + (t + 1) * dim)
            cols.append(b.col + t * dim)
            vals.append(-b.data)
        return sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim))


def assemble_horizon(steps, y0: np.ndarray, rho: float,
                     dims: tuple[int, int] | None = None) -> HorizonSystem:
    """Check the step sequence and stack the right hand side, normalized and not.

    No stacked matrix is built here; see `HorizonSystem.matrix`.  An
    empty step list is the T = 0 window (M is the identity); it needs
    explicit dims = (d, n_levels) since no step carries them.
    """
    per_step = tuple(steps)
    if per_step:
        d, n_levels = per_step[0].d, per_step[0].n_levels
    elif dims is not None:
        d, n_levels = dims
    else:
        raise ValueError("empty window needs explicit dims=(d, n_levels)")
    dim = delta_dim(d, n_levels)
    if any(s.dim != dim for s in per_step):
        raise ValueError("all steps must share the lifted dimension")
    y0 = np.asarray(y0, dtype=float)
    if len(y0) != dim:
        raise ValueError("initial lift has the wrong dimension")
    if rho < 0:
        raise ValueError("rho must be nonnegative")

    rhs = np.concatenate([y0] + [s.c_vector for s in per_step])
    return HorizonSystem(
        rhs=rhs,
        rhs_normalized=rhs * (1.0 / (1.0 + rho)),
        steps=per_step,
        rho=float(rho),
        d=d,
        n_levels=n_levels,
    )


def lift_window(coeffs, n_levels: int, v0: np.ndarray, t_window: int,
                rho: float) -> tuple[LiftedStep, HorizonSystem]:
    """Lift the step map and the start v0, and stack T references to the
    one lifted step (T = 0 is the identity system on the lifted start)."""
    step = build_lifted_step(coeffs, n_levels)
    system = assemble_horizon([step] * t_window, lift_state(v0, n_levels),
                              rho, dims=(coeffs.d, n_levels))
    return step, system


def row_access(system: HorizonSystem, t: int, r: int) -> list[tuple[int, float]]:
    """Nonzeros of one row of the normalized matrix, served from the steps.

    Row (t, r): for t = 0 a single diagonal entry; otherwise the diagonal
    entry plus row r of -B(t-1) placed in column block t-1, all scaled by
    1 / (1 + rho).
    """
    dim = system.block_dim
    if not (0 <= t <= system.t_window and 0 <= r < dim):
        raise IndexError("row index outside the stacked system")
    inv = system.inv_scale
    entries = []
    if t >= 1:
        b = system.steps[t - 1].b_matrix
        start, stop = b.indptr[r], b.indptr[r + 1]
        # Python ints: int32 indices + (t-1)*dim would wrap past 2^31
        base = (t - 1) * dim
        # a step's B is canonical: its columns come sorted, each once
        entries = [(base + c, (-v) * inv) for c, v in
                   zip(b.indices[start:stop].tolist(), b.data[start:stop].tolist())]
    # every column of block t-1 lies left of the diagonal
    entries.append((t * dim + r, 1.0 * inv))
    return entries


# ----------------------------------------------------------------------
# sparsity


def hockey_stick_total(j: int, n_levels: int) -> int:
    """sum_{s=1..N} C(s+j-1, j-1) collapsed to C(N+j, j) - 1."""
    return math.comb(n_levels + j, j) - 1


@dataclass(frozen=True)
class SparsityReport:
    s_b: int
    s_row: int


def sparsity_bounds(row_sparsities, n_levels: int) -> SparsityReport:
    """Row-sparsity bounds of B and of the stacked matrix.

    `row_sparsities` holds, per step, the per-degree row sparsities
    (index l gives the max row nonzeros of Q_l as a d x d^l matrix);
    integer convolution of that series counts the products of stored
    terms in a block row of the Kronecker lift.  A row of the symmetric
    lift holds the distinct monomials of the same products, so the count
    bounds it too; the stacked matrix adds one diagonal entry.
    """
    per_step = row_sparsities
    if per_step and isinstance(per_step[0], (int, np.integer)):
        per_step = [per_step]
    s_b = 0
    for series in per_step:
        series = [int(x) for x in series]
        power = [1]
        for _ in range(n_levels):
            new = [0] * min(len(power) + len(series) - 1, n_levels + 1)
            for a, ca in enumerate(power):
                if ca == 0 or a >= n_levels + 1:
                    continue
                for bdeg, cb in enumerate(series):
                    if a + bdeg >= n_levels + 1:
                        break
                    new[a + bdeg] += ca * cb
            power = new
            # block row j sums its level's terms over the columns s >= 1
            s_b = max(s_b, sum(power[1:]))
    return SparsityReport(s_b=s_b, s_row=s_b + 1)


# ----------------------------------------------------------------------
# conditioning


@dataclass(frozen=True)
class ConditionReport:
    rho: float
    t_window: int
    norm_bound: float
    kappa_bound_geometric: float
    kappa_bound: float
    measured_norm: float | None
    measured_kappa: float | None


_LANCZOS_TOL = 1e-10
_LANCZOS_MAX_ITER = 2000


def _extreme_eigenvalues(matrix: sparse.csr_matrix) -> tuple[float, float] | None:
    """(theta_min, theta_max) of M^T M, or None at the iteration cap."""
    n, transpose = matrix.shape[0], matrix.T
    q = np.random.default_rng(0).standard_normal(n)
    q /= math.sqrt(np.add.reduce(q * q))
    q_prev, beta, check, alphas, betas = np.zeros(n), 0.0, 8, [], []
    for k in range(1, _LANCZOS_MAX_ITER + 1):
        w = transpose @ (matrix @ q) - beta * q_prev
        alphas.append(np.add.reduce(q * w))
        w -= alphas[-1] * q
        beta = math.sqrt(np.add.reduce(w * w))
        if beta == 0.0 or k >= check or k == n:
            tri = np.diag(alphas) + np.diag(betas, -1)
            theta, s = np.linalg.eigh(tri)
            if np.all(beta * np.abs(s[-1, [0, -1]]) <= _LANCZOS_TOL * theta[[0, -1]]):
                return tuple(np.linalg.eigvalsh(tri)[[0, -1]])
            check = k + max(8, k // 8)
        betas.append(beta)
        q_prev, q = q, w / beta
    return None


def condition_bounds(rho: float, t_window: int,
                     system: HorizonSystem | None = None) -> ConditionReport:
    """Closed-form condition bounds; with a system, the measured ones too.

    One Lanczos run on M^T M through the stacked CSR gives sigma_max =
    sqrt(theta_max) and kappa = sqrt(theta_max / theta_min), to ~kappa^2 eps
    relative.  Every max(8, k/8) steps it stops if both end Ritz pairs meet
    |beta_k s_{k,i}| <= _LANCZOS_TOL theta_i; after _LANCZOS_MAX_ITER steps
    the measured fields are None, never raised.  A seeded start, inner
    products by `np.add.reduce` and `eigvalsh` (scalar dsterf on a
    tridiagonal) give the same bits on any BLAS thread count.
    """
    if not (0.0 <= rho):
        raise ValueError("rho must be nonnegative")
    geo_sum = float(sum(rho**k for k in range(t_window + 1)))
    kappa_geo = (1.0 + rho) * geo_sum
    closed = min((1.0 + rho) / (1.0 - rho) if rho < 1.0 else math.inf,
                 2.0 * (t_window + 1))
    measured_norm = measured_kappa = None
    ends = _extreme_eigenvalues(system.matrix) if system is not None else None
    if ends is not None:
        measured_norm = math.sqrt(ends[1])
        measured_kappa = math.sqrt(ends[1] / ends[0])
    return ConditionReport(
        rho=float(rho),
        t_window=t_window,
        norm_bound=1.0 + rho,
        kappa_bound_geometric=kappa_geo,
        kappa_bound=min(kappa_geo, closed),
        measured_norm=measured_norm,
        measured_kappa=measured_kappa,
    )


def save_matrix_market(system: HorizonSystem, path: str) -> None:
    """Write the normalized matrix M / (1 + rho) in Matrix Market format."""
    from scipy.io import mmwrite  # scipy.io costs import time no other path needs
    mmwrite(path, system.matrix_normalized)
