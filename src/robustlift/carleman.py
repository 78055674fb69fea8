"""Lifting a polynomial step map to a truncated linear recurrence.

Levels stack Kronecker powers of the state: the lifted vector holds
v, v^(x2), ..., v^(xN) in row-major tuple order.  The step map's
coefficient tensors feed transfer blocks K_{j,s}; keeping 1 <= j,s <= N
gives the square block matrix B and the constant column c of the
truncated affine recurrence.

Assembly runs the level recurrence

    K_{j,s} = sum_l kron(Q_l, K_{j-1, s-l}),

one numpy pass per level, and gives the bits scipy's sparse `kron` and CSR
sums would: every entry is the same IEEE products added in ascending l.
Each Q_l comes from the step map placed by exponent content (see
`dynamics`): the word of a column's base-d digits names a monomial, and
every reordering of that word carries the same share of its coefficient.

Contractivity and truncation tails never look at B directly: a small
N x N majorant built from per-degree operator norms bounds ||B||_2, and
scaled power series of the same norms bound the discarded levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
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

# largest lifted dimension a lift or a lifted state may have
DEFAULT_DIM_CAP = 5_000_000


def delta_dim(d: int, n_levels: int) -> int:
    return sum(d**j for j in range(1, n_levels + 1))


def level_offsets(d: int, n_levels: int) -> np.ndarray:
    """Start offset of each level block; entry [j-1] is where v^(xj) begins."""
    sizes = [d**j for j in range(1, n_levels + 1)]
    return np.concatenate([[0], np.cumsum(sizes)])


def lift_state(v: np.ndarray, n_levels: int) -> np.ndarray:
    if n_levels < 1:
        raise ValueError("a lift needs at least one level")
    v = np.asarray(v, dtype=float)
    d = len(v)
    if delta_dim(d, n_levels) > DEFAULT_DIM_CAP:
        raise MemoryError("lifted dimension exceeds the configured cap")
    blocks = []
    power = np.array([1.0])
    for _ in range(n_levels):
        power = np.kron(power, v)
        blocks.append(power)
    return np.concatenate(blocks)


@dataclass(frozen=True)
class LiftedStep:
    """One step of the truncated lifted recurrence y+ = B y + c.

    B is held in canonical CSR form, sorted indices and no duplicate
    entries: a caller's matrix that is not is replaced by a canonical
    copy, so the step's rows agree with the stacked matrix, which sums
    duplicates.
    """

    b_matrix: sparse.csr_matrix
    c_vector: np.ndarray
    d: int
    n_levels: int

    def __post_init__(self) -> None:
        if not self.b_matrix.has_canonical_format:
            b = self.b_matrix.copy()
            b.sum_duplicates()
            object.__setattr__(self, "b_matrix", b)

    @property
    def dim(self) -> int:
        return delta_dim(self.d, self.n_levels)

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.b_matrix @ y + self.c_vector


@dataclass
class _Level:
    """The blocks K_{j,0}, ..., K_{j,N} of one level, side by side.

    Column u lies in block s when off[s] <= u < off[s+1], so column 0 is
    the constant column and column u >= 1 is column u - 1 of B.  A level
    is held as a dense slab with the mask of what it stores, or as its
    stored entries: ascending keys row * width + u and their values.
    """

    n_rows: int
    width: int
    slab: np.ndarray | None = None
    stored: np.ndarray | None = None
    keys: np.ndarray | None = None
    vals: np.ndarray | None = None

    def entries(self):
        """Rows, columns and values of the stored entries."""
        if self.slab is not None:
            rows, cols = np.nonzero(self.stored)
            return rows, cols, self.slab[self.stored]
        rows, cols = np.divmod(self.keys, self.width)
        return rows, cols, self.vals

    def as_slab(self):
        """The level as a slab (zeros where unstored) and its stored mask."""
        if self.slab is not None:
            return self.slab, self.stored
        slab = np.zeros(self.n_rows * self.width)
        stored = np.zeros(self.n_rows * self.width, dtype=bool)
        slab[self.keys] = self.vals
        stored[self.keys] = True
        return (slab.reshape(self.n_rows, self.width),
                stored.reshape(self.n_rows, self.width))

    def block_counts(self, off: np.ndarray) -> np.ndarray:
        """Stored entries per block s = 0..N."""
        if self.slab is not None:
            return np.add.reduceat(np.count_nonzero(self.stored, axis=0),
                                   off[:-1])
        blocks = np.searchsorted(off, self.keys % self.width, side="right") - 1
        return np.bincount(blocks, minlength=len(off) - 1)

    def row_counts(self) -> np.ndarray:
        """Stored entries per row in the columns of B."""
        if self.slab is not None:
            return np.count_nonzero(self.stored[:, 1:], axis=1)
        rows, cols = np.divmod(self.keys, self.width)
        return np.bincount(rows[cols > 0], minlength=self.n_rows)

    def write(self, indices: np.ndarray, data: np.ndarray) -> None:
        """Fill this level's rows of B in row-major, column-sorted order."""
        if self.slab is not None:
            mask = self.stored[:, 1:]
            cols = np.arange(self.width - 1, dtype=indices.dtype)
            indices[:] = np.broadcast_to(cols, mask.shape)[mask]
            data[:] = self.slab[:, 1:][mask]
            return
        cols = self.keys % self.width
        in_b = cols > 0
        indices[:] = cols[in_b] - 1
        data[:] = self.vals[in_b]

    def constant(self) -> np.ndarray:
        """Column 0 as `toarray` gives it: 0.0 + value where stored."""
        if self.slab is not None:
            # an unstored cell holds a signed zero
            return self.slab[:, 0] + 0.0
        out = np.zeros(self.n_rows)
        rows, cols = np.divmod(self.keys, self.width)
        first = cols == 0
        out[rows[first]] += self.vals[first]
        return out


def _dense_level(mats, dense, live, prev, off, per_block, single) -> _Level:
    """Accumulate a level block by block into a slab.

    Every factor is finite here (see `_next_level`), so the products of
    unstored zeros, which `kron` never forms, leave each nonzero sum as
    it was.  The slab starts at -0.0 because -0.0 + x == x keeps a lone
    product's bits, zeros included.  A block summed from two or more
    terms stores its nonzeros, as a CSR sum does; a single-term block
    stores every product `kron` makes.  `dense` holds each Q_l as an
    array and its stored mask, formed on a lift's first dense level that
    needs them and kept for the rest of that lift.
    """
    d = mats[0].shape[0]
    prev_slab, prev_stored = prev.as_slab()
    slab = np.full((d * prev.n_rows, prev.width), -0.0)
    stored = np.zeros(slab.shape, dtype=bool)
    for ell in live:
        if ell not in dense:
            q = mats[ell]
            q_struct = np.zeros(q.shape, dtype=bool)
            q_struct[np.repeat(np.arange(d), np.diff(q.indptr)), q.indices] = True
            dense[ell] = q.toarray(), q_struct
        q_dense, q_struct = dense[ell]
        for sp in range(len(off) - 1 - ell):
            if not per_block[sp]:
                continue
            s = sp + ell
            # rows (Q row, prev row) and columns (Q column, prev column):
            # splitting both axes keeps the slice a view
            shape = (d, prev.n_rows, d**ell, d**sp)
            src = np.s_[None, :, None, off[sp]:off[sp + 1]]
            target = slab[:, off[s]:off[s + 1]].reshape(shape)
            target += q_dense[:, None, :, None] * prev_slab[src]
            if single[s]:
                # the one pair that writes this block marks what kron keeps
                stored[:, off[s]:off[s + 1]].reshape(shape)[...] = (
                    q_struct[:, None, :, None] & prev_stored[src])
    stored |= slab != 0
    return _Level(slab.shape[0], prev.width, slab=slab, stored=stored)


def _merged_level(mats, live, prev, off, single) -> _Level:
    """Accumulate a level by sorting the keys of its products.

    Each term's products come one row of Q_l at a time; a stable sort
    keeps every key's terms in ascending l, and they are summed left to
    right from the first, not from 0.0.
    """
    d = mats[0].shape[0]
    width = prev.width
    n_levels = len(off) - 2
    rows, cols, vals = prev.entries()
    blocks = np.searchsorted(off, cols, side="right") - 1
    keys, prods = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for ell in live:
        q = mats[ell]
        keep = cols < off[n_levels - ell + 1]
        blk = blocks[keep]
        # (prev row, column in block s' = blk) lands in block blk + ell at
        # Q column * d^blk + the same offset within the block
        base = rows[keep] * width + (off[blk + ell] - off[blk]) + cols[keep]
        stride = d**blk
        for a in range(d):
            lo, hi = q.indptr[a], q.indptr[a + 1]
            if lo < hi:
                keys.append((a * prev.n_rows * width + base
                             + q.indices[lo:hi, None] * stride).ravel())
                prods.append((q.data[lo:hi, None] * vals[keep]).ravel())
    keys, prods = np.concatenate(keys), np.concatenate(prods)
    order = np.argsort(keys, kind="stable")
    keys, prods = keys[order], prods[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    count = np.diff(first, append=keys.size)
    sums = prods[first]
    for k in range(1, int(count.max(initial=1))):
        more = count > k
        sums[more] += prods[first[more] + k]
    keys = keys[first]
    blk = np.searchsorted(off, keys % width, side="right") - 1
    kept = single[blk] | (sums != 0)
    return _Level(d * prev.n_rows, width, keys=keys[kept], vals=sums[kept])


def _next_level(mats, dense: dict, prev: _Level, off: np.ndarray) -> _Level:
    """K_{j,s} = sum_l kron(Q_l, K_{j-1,s-l}) for s = 0..N from level j-1."""
    n_levels = len(off) - 2
    per_block = prev.block_counts(off)
    # products with an empty factor are skipped, so a block's terms are
    # the nonempty pairs (Q_l, K_{j-1,s-l})
    live = [ell for ell, q in enumerate(mats) if q.nnz]
    n_terms = np.zeros(n_levels + 1, dtype=int)
    for ell in live:
        n_terms[ell:] += per_block[:n_levels + 1 - ell] > 0
    single = n_terms == 1
    below = np.cumsum(per_block)
    n_products = sum(mats[ell].nnz * int(below[n_levels - ell])
                     for ell in live)
    n_cells = mats[0].shape[0] * prev.n_rows * prev.width
    # a slab multiplies zeros that kron never forms, harmless only beside
    # finite factors; a non-finite Q_l always shows in the level below
    # (level one is Q_l itself) before it meets a nonempty block there
    values = prev.vals if prev.slab is None else prev.slab
    if n_cells <= n_products and np.isfinite(values).all():
        return _dense_level(mats, dense, live, prev, off, per_block, single)
    return _merged_level(mats, live, prev, off, single)


def build_lifted_step(coeffs, n_levels: int) -> LiftedStep:
    """Lift `coeffs` to the truncated recurrence y+ = B y + c.

    B and c match, bit for bit, the level recurrence
    K_{j,s} = sum_l kron(Q_l, K_{j-1,s-l}) built with scipy's sparse `kron`
    and CSR sums: each entry is the same products added in ascending l,
    a block summed from two or more terms drops its exact zeros, and a
    single-term block keeps every product.  Level j accumulates in one
    pass: into a dense d^j x sum_s d^s slab when that slab has no more
    cells than the level has products, sum_l nnz(Q_l) times the entries
    of level j-1 in blocks s' <= N-l, and level j-1 is finite; by merging
    sorted product keys otherwise.  B is written once, with sorted int32
    indices while they fit.
    """
    if n_levels < 1:
        raise ValueError("a lift needs at least one level")
    d = coeffs.d
    dim = delta_dim(d, n_levels)
    if dim > DEFAULT_DIM_CAP:
        raise MemoryError("lifted dimension exceeds the configured cap")
    top = min(coeffs.degree, n_levels)
    mats = [coeffs.as_matrix(ell) for ell in range(top + 1)]
    # a level's column offsets: block s = 0..N is d^s wide
    off = np.concatenate([[0], np.cumsum(d ** np.arange(n_levels + 1))])
    # level 0 is K_{0,0} = [1], so level one is K_{1,s} = Q_s * 1.0 = Q_s
    level = _Level(1, int(off[-1]), keys=np.zeros(1, dtype=np.int64),
                   vals=np.ones(1))
    levels, dense = [], {}
    for _ in range(n_levels):
        level = _next_level(mats, dense, level, off)
        levels.append(level)
    counts = np.concatenate([lv.row_counts() for lv in levels])
    nnz = int(counts.sum())
    index_dtype = (np.int32 if max(nnz, dim) <= np.iinfo(np.int32).max
                   else np.int64)
    indptr = np.zeros(dim + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index_dtype)
    data = np.empty(nnz)
    row = 0
    for lv in levels:
        lo, hi = indptr[row], indptr[row + lv.n_rows]
        lv.write(indices[lo:hi], data[lo:hi])
        row += lv.n_rows
    b_matrix = sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    b_matrix.has_canonical_format = True  # each row's columns are ascending and distinct
    c_vector = np.concatenate([lv.constant() for lv in levels])
    return LiftedStep(b_matrix, c_vector, d, n_levels)


@dataclass(frozen=True)
class RecurrenceResult:
    y: np.ndarray
    eta: np.ndarray | None

    @property
    def stacked(self) -> np.ndarray:
        return self.y.reshape(-1)


def run_truncated_recurrence(steps, y0: np.ndarray, t_window: int,
                             reference: list[np.ndarray] | None = None
                             ) -> RecurrenceResult:
    """Iterate the truncated recurrence; optionally track the tail residual.

    `steps` holds one LiftedStep per time step (`[step] * T` for a
    time-invariant window).  When `reference` supplies the underlying
    states v(0..T), eta(t) is the gap between the exact lift of v(t) and
    the truncated iterate.
    """
    per_step = list(steps)
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
        eta = np.stack([lift_state(v, n_levels) - y[t]
                        for t, v in enumerate(reference)])
    return RecurrenceResult(y, eta)


# ----------------------------------------------------------------------
# majorants


def _low_norms(series: np.ndarray, keep: int) -> np.ndarray:
    """The norm series ||Q_l|| for degrees 0..keep-1, zero padded."""
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
        series = _low_norms(exp.norm_bounds(), n_levels + 1)
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
    weighted_chi: float | None
    weighted_gamma_n: float | None
    weighted_feasible: bool
    n_design: int | None


def _direct_tail(series: np.ndarray, n_levels: int, vbar: float) -> np.ndarray:
    """Per-level sums sum_{s>N} [x^s] (phi(x))^j vbar^s for j = 1..N.

    phi is the norm series.  Coefficients of phi^j at orders <= N only
    touch exact low-order norms; everything above folds into the value
    phi(vbar)^j, so tails never materialize high-degree arrays:
    tail_j = phi(vbar)^j - sum_{s<=N} [x^s](phi^j) vbar^s  (all terms >= 0).
    """
    low = _low_norms(series, n_levels + 1)
    scaled_low = low * vbar ** np.arange(n_levels + 1, dtype=float)
    phi_val = float(polyval(vbar, series))
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
        series = exp.norm_bounds()
        tails = _direct_tail(series, n_levels, vbar)
        g = float(np.linalg.norm(tails))
        if g > gamma_n:
            gamma_n, per_level = g, tails
        if lam is not None:
            weighted = float(polyval(lam * vbar, series))
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

