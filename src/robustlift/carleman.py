"""Lifting a polynomial step map to a truncated linear recurrence.

Level j of the lifted vector holds v^(xj) on the symmetric tensors, in
the isometric monomial basis: the C(d+j-1, j) monomials v^alpha with
|alpha| = j, in `itertools.combinations_with_replacement(range(d), j)`
order, each scaled by sqrt(m_alpha), m_alpha = j! / prod_i alpha_i! the
number of index words with that content.  Then ||y_j|| = ||v||^j, level
one is v itself, and levels 1..N hold C(d+N, N) - 1 coordinates where
the Kronecker powers hold sum_j d^j.  With U_j the d^j x C(d+j-1, j)
matrix whose column alpha holds 1 / sqrt(m_alpha) at each word of content
alpha, v^(xj) = U_j y_j, and the Kronecker lift's B maps the span of U
into itself: B_kron U = U B.

Row alpha of [c | B] holds the coefficients of prod_{i in alpha} p_i up to
total degree N, the one at gamma scaled by sqrt(m_alpha / m_gamma); it is
built as p_i times the row one level down (see `build_lifted_step`).

Contractivity and truncation tails never look at B directly: a small
N x N majorant built from per-degree operator norms bounds ||B||_2, and
scaled power series of the same norms bound the discarded levels.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import sparse

__all__ = [
    "delta_dim",
    "checked_dim",
    "level_offsets",
    "level_product_counts",
    "LiftSizeError",
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
# largest matrix, in stored entries, that a lift's B or the stacked CSR of
# its window (see `horizon`) may hold
MAX_STACKED_NNZ = 50_000_000


class LiftSizeError(MemoryError):
    """A lift refused before allocation: its B may hold more than
    MAX_STACKED_NNZ entries."""


def delta_dim(d: int, n_levels: int) -> int:
    """Monomials of total degree 1..N in d variables: C(d + N, N) - 1."""
    return math.comb(d + n_levels, n_levels) - 1


def checked_dim(d: int, n_levels: int) -> int:
    """delta_dim, refused with MemoryError above DEFAULT_DIM_CAP."""
    if n_levels < 1:
        raise ValueError("a lift needs at least one level")
    dim = delta_dim(d, n_levels)
    if dim > DEFAULT_DIM_CAP:
        raise MemoryError("lifted dimension exceeds the configured cap")
    return dim


def level_offsets(d: int, n_levels: int) -> np.ndarray:
    """Start offset of each level block; entry [j-1] is where level j begins."""
    return np.array([delta_dim(d, j) for j in range(n_levels + 1)])


def level_product_counts(row_sparsities, n_levels: int) -> Iterator[int]:
    """P_j for j = 1..N: products of stored terms in a row of level j.

    `row_sparsities[l]` is the max row nonzeros of Q_l as a d x d^l
    matrix.  The integer convolution power series^j, truncated at degree
    N, counts the products of stored terms of each degree in a block row
    of the Kronecker lift; P_j sums it over the degrees s >= 1, the
    columns of B.  A row of the symmetric lift holds the distinct
    monomials of the same products, so P_j bounds it too.
    """
    series = [int(x) for x in row_sparsities]
    power = [1]
    for _ in range(n_levels):
        new = [0] * min(len(power) + len(series) - 1, n_levels + 1)
        for a, ca in enumerate(power):
            if ca == 0:
                continue
            for bdeg, cb in enumerate(series):
                if a + bdeg >= n_levels + 1:
                    break
                new[a + bdeg] += ca * cb
        power = new
        yield sum(power[1:])


def _check_lift_nnz(coeffs, n_levels: int, dim: int) -> None:
    """Refuse a lift whose B may hold more than MAX_STACKED_NNZ entries.

    Row alpha is zero unless every p_i, i in alpha, stores a term of
    degree <= N, so level j has C(d' + j - 1, j) rows that are not, d'
    the coordinates that store one; each holds at most min(P_j, dim)
    entries.  The count stops at the level that passes the budget, and
    is skipped when dim^2, the most a dim x dim matrix holds, is within it.
    """
    if dim * dim <= MAX_STACKED_NNZ:
        return
    live = int(np.count_nonzero(np.any(
        [c for ell, by_beta in coeffs.terms.items() if ell <= n_levels
         for c in by_beta.values()], axis=0)))
    bound = 0
    counts = level_product_counts(coeffs.row_sparsities(), n_levels)
    for j, products in enumerate(counts, start=1):
        bound += math.comb(live + j - 1, j) * min(products, dim)
        if bound > MAX_STACKED_NNZ:
            raise LiftSizeError(
                f"lifted step at N = {n_levels} may hold more than "
                f"MAX_STACKED_NNZ = {MAX_STACKED_NNZ} nonzeros "
                f"(levels 1..{j} alone bound {bound})")


@dataclass(frozen=True)
class _Monomials:
    """The monomials of degree 0..N in column order, 0 the constant.

    Monomial g >= 1 is the sorted word of letter first[g] followed by the
    word of monomial tail[g].  times[k, g] is the index of x_k times
    monomial g, for g of degree < N.
    """

    first: np.ndarray
    tail: np.ndarray
    sqrt_mult: np.ndarray
    times: np.ndarray


@lru_cache(maxsize=8)
def _monomials(d: int, n_levels: int) -> _Monomials:
    """Build degree s from degree s - 1, without listing words.

    Within a degree the words run in lex order, so those whose first
    letter is >= k form a suffix of counts[k] = C(d-k+s-2, s-1) words, and
    prepending a letter i that sorts first moves a monomial of degree
    s - 1 by cumsum(counts)[i].
    """
    width = delta_dim(d, n_levels) + 1
    first = np.full(width, d)  # the constant sorts after every letter
    tail = np.zeros(width, dtype=np.int64)
    mult = np.ones(width)
    run = np.zeros(width, dtype=np.int64)  # copies of the first letter
    times = np.empty((d, delta_dim(d, n_levels - 1) + 1), dtype=np.int64)
    letters = np.arange(d)
    lo = 0
    for s in range(1, n_levels + 1):
        hi = delta_dim(d, s - 1) + 1  # degree s - 1 spans lo..hi-1
        shift = np.cumsum([math.comb(d - k + s - 2, s - 1) for k in range(d)])
        top = hi + int(shift[-1])
        head = np.repeat(letters, np.diff(shift, prepend=0))
        tail[hi:top] = np.arange(hi, top) - shift[head]
        first[hi:top] = head
        below = tail[hi:top]
        run[hi:top] = np.where(first[below] == head, run[below] + 1, 1)
        # m = s! / prod_k alpha_k! is m(tail) * s / alpha_head
        mult[hi:top] = mult[below] * s / run[hi:top]
        # x_k times monomial g of degree s - 1 prepends k when k sorts
        # first; otherwise x_k multiplies g's tail and first[g] is prepended
        prev = np.arange(lo, hi)
        out = prev + shift[:, None]
        k, g = np.nonzero(letters[:, None] > first[prev])
        out[k, g] = times[k, tail[prev[g]]] + shift[first[prev[g]]]
        times[:, lo:hi] = out
        lo = hi
    arrays = (first, tail, np.sqrt(mult), times)
    for arr in arrays:
        arr.flags.writeable = False
    return _Monomials(*arrays)


def lift_state(v: np.ndarray, n_levels: int) -> np.ndarray:
    """sqrt(m_alpha) v^alpha for 1 <= |alpha| <= N, in column order.

    The weights make each level an isometric image of v^(xj),
    ||y_j|| = ||v||^j, and level one is v itself.
    """
    v = np.asarray(v, dtype=float)
    d = len(v)
    checked_dim(d, n_levels)
    mono = _monomials(d, n_levels)
    power = np.ones(mono.first.size)
    bounds = level_offsets(d, n_levels) + 1
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        power[lo:hi] = v[mono.first[lo:hi]] * power[mono.tail[lo:hi]]
    return (power * mono.sqrt_mult)[1:]


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


def _map_terms(coeffs, mono: _Monomials, n_levels: int) -> list:
    """Per degree l <= N, each stored coefficient of the map as its
    coordinate i, its monomial's letters (l columns) and column, and value."""
    letters = np.arange(coeffs.d)
    out = []
    for ell, by_beta in sorted(coeffs.terms.items()):
        if ell > n_levels:
            continue
        words = np.array([np.repeat(letters, beta) for beta in by_beta],
                         dtype=np.int64).reshape(len(by_beta), ell)
        cols = np.zeros(len(by_beta), dtype=np.int64)
        for t in range(ell):
            cols = mono.times[words[:, t], cols]
        values = np.stack(list(by_beta.values()))
        which, i = np.nonzero(values)
        out.append((ell, i, words[which], cols[which], values[which, i]))
    return out


def _summed(keys: list, prods: list, width: int):
    """Rows, columns and sums of the nonzero entries, by ascending key
    row * width + column.  The stable sort keeps one key's products in
    the order given, so each sum is the same on every host."""
    keys = np.concatenate([np.zeros(0, dtype=np.int64)] + keys)
    prods = np.concatenate([np.zeros(0)] + prods)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(prods[order], starts) if starts.size else prods
    kept = sums != 0
    rows, cols = np.divmod(keys[starts[kept]], width)
    return rows, cols, sums[kept]


def _product_level(terms: list, mono: _Monomials, prev, n_levels: int):
    """Level j from level j - 1: row x_i w holds p_i times row w.

    `prev` holds level j - 1's entries (row, column, value) by ascending
    key.  A row w with first letter >= i meets each term of p_i of degree
    l in its columns of degree <= N - l, so only stored entries are ever
    multiplied.
    """
    rows, cols, vals = prev
    d, width = mono.times.shape[0], mono.first.size
    keys, prods = [], []
    for ell, i, words, _, q in terms:
        keep = cols <= delta_dim(d, n_levels - ell)
        sub_rows, sub_cols, sub_vals = rows[keep], cols[keep], vals[keep]
        # rows come sorted, so their first letters ascend
        lo = np.searchsorted(mono.first[sub_rows], i)
        count = sub_rows.size - lo
        e = np.repeat(np.arange(i.size), count)
        f = np.arange(e.size) + np.repeat(lo - np.cumsum(count) + count, count)
        col = sub_cols[f]
        for t in range(ell):
            col = mono.times[words[e, t], col]
        keys.append(mono.times[i[e], sub_rows[f]] * width + col)
        prods.append(q[e] * sub_vals[f])
    return _summed(keys, prods, width)


def build_lifted_step(coeffs, n_levels: int) -> LiftedStep:
    """Lift `coeffs` to the truncated recurrence y+ = B y + c.

    Row alpha of [c | B] holds the coefficients of prod_{i in alpha} p_i up
    to total degree N, the one at monomial gamma scaled by
    sqrt(m_alpha / m_gamma), so that B lift_state(v) + c is the lift of
    the map's image of v up to the discarded degrees.  Each level is built
    from the one below (`_product_level`) by one stable sort and one
    `np.add.reduceat` over its stored products: no kron, no d^j array and
    no dense product, so an unstored zero is never multiplied and no sum
    depends on the BLAS threads.  A product entry that sums to exactly
    zero is not stored.  B is written with int32 indices while they fit.
    Before anything is allocated, a lift whose closed-form count of
    stored entries passes MAX_STACKED_NNZ is refused with LiftSizeError.
    """
    d = coeffs.d
    dim = checked_dim(d, n_levels)
    _check_lift_nnz(coeffs, n_levels, dim)
    mono = _monomials(d, n_levels)
    terms = _map_terms(coeffs, mono, n_levels)
    # level one: row 1 + i is p_i itself
    level = _summed([(1 + i) * (dim + 1) + cols for _, i, _, cols, _ in terms],
                    [q for *_, q in terms], dim + 1)
    levels = [level]
    for _ in range(1, n_levels):
        level = _product_level(terms, mono, level, n_levels)
        levels.append(level)
    rows, cols, vals = (np.concatenate(part) for part in zip(*levels))
    vals = vals * (mono.sqrt_mult[rows] / mono.sqrt_mult[cols])
    const = cols == 0
    c_vector = np.zeros(dim)
    c_vector[rows[const] - 1] = vals[const]
    rows, cols, vals = rows[~const] - 1, cols[~const] - 1, vals[~const]
    index_dtype = (np.int32 if max(vals.size, dim) <= np.iinfo(np.int32).max
                   else np.int64)
    indptr = np.zeros(dim + 1, dtype=index_dtype)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    b_matrix = sparse.csr_matrix((vals, cols.astype(index_dtype), indptr),
                                 shape=(dim, dim))
    b_matrix.has_canonical_format = True  # each row's columns are ascending and distinct
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

