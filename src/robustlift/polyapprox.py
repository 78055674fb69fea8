"""Certified odd polynomial surrogates for sign and saturation.

Two building blocks are produced here:

* a gapped sign approximant: an odd polynomial P_s with |P_s| <= 1 on
  [-L, L] and |P_s(x) - sign(x)| <= delta for tau <= |x| <= L;
* a saturation (hard clip to [-1, 1]) approximant P_c assembled from a
  sign approximant S on the widened interval via the exact identity
  sat(x) = ((x+1) sign(x+1) - (x-1) sign(x-1)) / 2.

Construction is Chebyshev interpolation of an erf-mollified sign whose
width is tied to the gap, followed by an incremental degree search until
an explicit verifier certifies the requested bounds.  Each candidate's
coefficients come from its samples at the Chebyshev points of the first
kind by one FFT (a DCT-II), in O(n log n) time and O(n) memory, not from
a dense Chebyshev-Vandermonde product; so grid-mode design makes no BLAS
call and no bit of it depends on the BLAS thread count.  An OddPolynomial
stores only odd-degree coefficients, so P(-x) = -P(x) exactly, and the
sign and clip clauses are certified on the half-line x >= 0 alone: each
negative-side clause is the mirror image of a positive one.  The grid
verifier reads each clause's grid in fixed-size chunks and evaluates
them with an in-place Clenshaw kernel, which gives numpy's chebval
magnitudes bit for bit without allocating per step, and folds each zero
coefficient of an odd series into the step after it.  A final
certificate reads every chunk.  A search candidate, of which only pass
or fail is kept, first reads a window around the point where the
previous candidate failed and stops at its first failing chunk.
Polynomials are kept in the odd Chebyshev basis of their interval:
near-minimax approximants of the degrees needed here have astronomically
large monomial coefficients.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as C

__all__ = [
    "OddPolynomial",
    "SignSpec",
    "ClipSpec",
    "DegreeBudget",
    "BudgetDegrees",
    "PolyCheck",
    "CheckResult",
    "CertificateFragment",
    "PolyDesignError",
    "design_sign_poly",
    "design_clip_poly",
    "degrees_from_budget",
    "verify_poly_spec",
]

# Constants of the degree bounds; unspecified upstream, so they are
# configuration inputs here, not claims.
DEFAULT_C_S = 4.0
DEFAULT_C_LITTLE_S = 2.0

# the sign search's degree cap, and the grid density a design starts from
_MAX_DESIGN_DEGREE = 4000
_DESIGN_DENSITY = 1e4

# grid points per kernel call when a clause is scanned: the per-call cost
# of a Clenshaw pass stays small beside a full certificate, and a failing
# search candidate, which reads its hinted window first, seldom needs more
_GRID_CHUNK = 16384
# points read first around where the previous search candidate failed;
# at most _GRID_CHUNK, the length of the kernel's buffers
_HINT_WINDOW = 1024


class PolyDesignError(RuntimeError):
    """Raised when no certifiable polynomial exists within the degree cap."""


@dataclass(frozen=True)
class SignSpec:
    """Target for the gapped sign approximant on [-halfwidth, halfwidth]."""

    halfwidth: float
    tau: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.halfwidth > 0.0):
            raise ValueError("halfwidth must be positive")
        if not (0.0 < self.tau < self.halfwidth):
            raise ValueError("need 0 < tau < halfwidth")
        if not (0.0 < self.delta < 0.5):
            raise ValueError("need 0 < delta < 1/2")


@dataclass(frozen=True)
class ClipSpec:
    """Target for the saturation approximant.

    Certified on [-L_c, L_c]: within delta_c of the identity on
    |x| <= 1 - tau_c, within delta_c of sign(x) on 1 + tau_c <= |x| <= L_c,
    and |P_c| <= 1 on [-1, 1].
    """

    big_l: float
    tau: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.big_l > 1.0):
            raise ValueError("need L_c > 1")
        if not (0.0 < self.tau <= self.big_l - 1.0):
            raise ValueError("need 0 < tau_c <= L_c - 1")
        if not (0.0 < self.delta / self.big_l < 0.5):
            raise ValueError("need delta_c / L_c in (0, 1/2)")

    @property
    def widened(self) -> float:
        """Half-width R_c = L_c + 1 of the inner sign problem."""
        return self.big_l + 1.0


@dataclass(frozen=True)
class DegreeBudget:
    """Inputs of the two-sided error budget split.

    eps_nl is the per-step nonlinearity budget; admissible regime is
    0 < eps_nl < min(eta_delta*sqrt(m), eps*L_c*sqrt(m)).
    """

    eps_nl: float
    eta_delta: float
    eps_ball: float
    m: int
    tau_s: float
    tau_c: float
    big_l: float


@dataclass(frozen=True)
class BudgetDegrees:
    delta_s: float
    delta_c: float
    k_s_bound: float
    k_c_bound: float
    k_s_formula: str
    k_c_formula: str
    feasible: bool


@dataclass(frozen=True)
class PolyCheck:
    """One certification clause: sup over `intervals` of |P - target| <= bound.

    target is one of "zero" (plain magnitude bound), "plus_one",
    "minus_one", or "identity".
    """

    intervals: tuple[tuple[float, float], ...]
    target: str
    bound: float
    label: str = ""

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("a clause needs at least one interval")


@dataclass(frozen=True)
class CheckResult:
    label: str
    target: str
    bound: float
    observed_sup: float
    inflation: float
    certified_sup: float
    passed: bool


@dataclass(frozen=True)
class CertificateFragment:
    mode: str
    grid_density: float
    checks: tuple[CheckResult, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "grid_density": self.grid_density,
            "passed": self.passed,
            "checks": [vars(c) for c in self.checks],
        }


@dataclass(frozen=True)
class OddPolynomial:
    """Odd polynomial as odd-degree Chebyshev coefficients on [-halfwidth, halfwidth].

    odd_coeffs[k] multiplies T_{2k+1}(x / halfwidth).  Only odd-degree
    coefficients are stored, so evaluation at 0 is exactly 0.
    """

    odd_coeffs: np.ndarray
    halfwidth: float = 1.0
    certificate: CertificateFragment | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        co = np.atleast_1d(np.asarray(self.odd_coeffs, dtype=float))
        if co.ndim != 1 or co.size == 0:
            raise ValueError("odd_coeffs must be a nonempty 1-d array")
        if not self.halfwidth > 0.0:
            raise ValueError("halfwidth must be positive")
        nz = np.nonzero(co)[0]
        co = co[: nz[-1] + 1] if nz.size else co[:1]
        object.__setattr__(self, "odd_coeffs", co)

    @property
    def degree(self) -> int:
        return 2 * (len(self.odd_coeffs) - 1) + 1

    def full_coeffs(self) -> np.ndarray:
        full = np.zeros(self.degree + 1)
        full[1::2] = self.odd_coeffs
        return full

    def __call__(self, x):
        t = np.asarray(x) / self.halfwidth
        return C.chebval(t, self.full_coeffs())

    def derivative_values(self, x):
        t = np.asarray(x) / self.halfwidth
        return C.chebval(t, C.chebder(self.full_coeffs())) / self.halfwidth

    def derivative_sup_bound(self) -> float:
        """Sound sup of |P'| on the whole interval: sum|chebder| / halfwidth,
        computed once per polynomial."""
        return self._derivative_sup

    @cached_property
    def _derivative_sup(self) -> float:
        return float(np.sum(np.abs(C.chebder(self.full_coeffs())))) / self.halfwidth

    def save_text(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# odd chebyshev coefficients, ascending degree; halfwidth={float(self.halfwidth)!r}\n")
            for c in self.odd_coeffs:
                fh.write(f"{float(c)!r}\n")


# ----------------------------------------------------------------------
# verification

def _target_series(poly: OddPolynomial, target: str) -> np.ndarray:
    """Chebyshev series (in t = x/halfwidth) of P - target."""
    full = poly.full_coeffs().astype(float).copy()
    if target == "zero":
        pass
    elif target == "plus_one":
        full[0] -= 1.0
    elif target == "minus_one":
        full[0] += 1.0
    elif target == "identity":
        full[1] -= poly.halfwidth
    else:
        raise ValueError(f"unknown target {target!r}")
    return full


def _grid_points(a: float, b: float, n: int, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi-1 of np.linspace(a, b, n), bit for bit.

    Repeats numpy's own arithmetic: index * step + a, the subnormal-step
    branch, and the exact endpoint.
    """
    delta = b - a
    step = delta / (n - 1)
    xs = np.arange(lo, hi, dtype=float)
    if step == 0:
        xs /= n - 1
        xs *= delta
    else:
        xs *= step
    xs += a
    if hi == n:
        xs[-1] = b
    return xs


def _grid_chunks(grids, window=None) -> Iterator[np.ndarray]:
    """The points of np.linspace(a, b, n) for each (a, b, n), _GRID_CHUNK at a time.

    The chunks of a grid concatenate to its np.linspace bit for bit.  A
    window (g, lo, hi) is read first, as points lo..hi-1 of grids[g];
    that grid then goes on from hi to its end and wraps round to lo, so
    every point is still read once.
    """
    if window is not None:
        g, w_lo, w_hi = window
        yield _grid_points(*grids[g], w_lo, w_hi)
    for i, (a, b, n) in enumerate(grids):
        rotated = window is not None and i == g
        spans = ((w_hi, n), (0, w_lo)) if rotated else ((0, n),)
        for lo, hi in spans:
            for start in range(lo, hi, _GRID_CHUNK):
                yield _grid_points(a, b, n, start, min(start + _GRID_CHUNK, hi))


def _abs_chebval(t: np.ndarray, series: np.ndarray, work: np.ndarray) -> np.ndarray:
    """|C.chebval(t, series)| for a 1-d float series, bit for bit, into work.

    numpy's Clenshaw recurrence, operation for operation and in its
    order, written into the four rows of work (each at least len(t)
    long) instead of fresh arrays; the result is a view into work.  A
    step whose coefficient is exactly 0 is deferred into the step after
    it, which then forms c1*x2 - c1_prev in place of numpy's
    (0 - c1_prev) + c1*x2: one subtraction fewer per zero coefficient,
    as in every odd series.  The two forms round the same real number
    and differ only in the sign of a zero result, which the absolute
    value removes.
    """
    x2, c0, c1, spare = work[:, :len(t)]
    if len(series) < 3:
        # numpy's c0 + c1*x, with c1 = 0 for a constant series
        np.multiply(series[1] if len(series) == 2 else 0.0, t, out=spare)
        np.add(series[0], spare, out=spare)
        return np.abs(spare, out=spare)
    np.multiply(2.0, t, out=x2)
    c0.fill(series[-2])
    c1.fill(series[-1])
    deferred = False  # c0 holds c1_prev, standing for 0 - c1_prev
    for k in series[-3::-1]:
        np.multiply(c1, x2, out=spare)
        if deferred:
            np.subtract(spare, c0, out=spare)
        else:
            np.add(c0, spare, out=spare)
        deferred = k == 0.0
        if deferred:
            c0, c1, spare = c1, spare, c0
        else:
            np.subtract(k, c1, out=c0)
            c1, spare = spare, c1
    np.multiply(c1, t, out=spare)
    if deferred:
        np.subtract(spare, c0, out=spare)
    else:
        np.add(c0, spare, out=spare)
    return np.abs(spare, out=spare)


def _aligned_rows(rows: int, width: int) -> np.ndarray:
    """An empty rows x width float array whose rows start on 64-byte lines.

    A buffer from malloc may sit 16 bytes past a line, and then every
    other vector load of the kernel splits a cache line; which case a
    process gets depends on its heap history.  Aligning the rows makes
    the kernel's speed independent of it.
    """
    stride = -(-width // 8) * 8  # whole lines per row
    buf = np.empty(rows * stride + 8)
    skip = (-buf.ctypes.data % 64) // 8
    return buf[skip:skip + rows * stride].reshape(rows, stride)[:, :width]


@dataclass
class _FailHint:
    """Where the last failing search candidate failed: the x of the worst
    point in its failing chunk, or None before any candidate failed."""

    x: float | None = None


def _hint_window(grids, x: float):
    """(g, lo, hi): the _HINT_WINDOW points of the first grid around x, if any."""
    for g, (a, b, n) in enumerate(grids):
        if a <= x <= b:
            mid = round((x - a) / (b - a) * (n - 1)) if b > a else 0
            lo = min(max(mid - _HINT_WINDOW // 2, 0), max(n - _HINT_WINDOW, 0))
            return g, lo, min(lo + _HINT_WINDOW, n)
    return None


def _grid_check(poly: OddPolynomial, check: PolyCheck, density: float,
                stop_at_fail: bool = False,
                hint: _FailHint | None = None) -> CheckResult:
    """Grid sup of |P - target| on the clause, inflated to a sound bound.

    The grid is read chunk by chunk.  With stop_at_fail the scan returns
    a failed result at the first chunk whose running sup plus the
    inflation exceeds the bound; its observed_sup then covers only the
    chunks read.  That early fail is final: the sup can only grow, and
    a NaN value or inflation fails the clause.  A search passes its hint
    as well: the scan then reads the points around hint.x first, where
    the previous candidate failed, and on a fail leaves there the x of
    the worst point of its failing chunk.  The sup is a max, so the
    order changes what a failing scan reads, never pass or fail.
    """
    series = _target_series(poly, check.target)
    if check.target == "identity":
        deriv_sup = float(np.sum(np.abs(C.chebder(series)))) / poly.halfwidth
    else:
        # the other targets move only the constant term, which chebder never reads
        deriv_sup = poly.derivative_sup_bound()
    grids = []
    inflation = 0.0
    for a, b in check.intervals:
        if b < a:
            raise ValueError("interval endpoints out of order")
        n = max(2, int(math.ceil((b - a) * density)) + 1)
        grids.append((float(a), float(b), n))
        h = (b - a) / (n - 1)
        # np.maximum, not max(): max(x, nan) is x, and a NaN must fail
        inflation = float(np.maximum(inflation, 0.5 * h * deriv_sup))
    limit = check.bound + 1e-12 * max(1.0, check.bound)
    window = None
    if stop_at_fail and hint is not None and hint.x is not None:
        window = _hint_window(grids, hint.x)
    # the kernel's four rows, and a fifth for the chunk in t = x/halfwidth
    work = _aligned_rows(5, min(_GRID_CHUNK, max(n for _, _, n in grids)))
    sup = 0.0
    for xs in _grid_chunks(grids, window):
        t = np.divide(xs, poly.halfwidth, out=work[4, :len(xs)])
        vals = _abs_chebval(t, series, work[:4])
        sup = float(np.maximum(sup, vals.max()))
        if stop_at_fail and not sup + inflation <= limit:
            if hint is not None:
                hint.x = float(xs[np.argmax(vals)])
            break
    certified = sup + inflation
    return CheckResult(check.label, check.target, check.bound, sup, inflation,
                       certified, certified <= limit)


def _critical_check(poly: OddPolynomial, check: PolyCheck,
                    roots_by_der: dict[bytes, np.ndarray] | None = None
                    ) -> CheckResult:
    """Enumerate extrema of P - target; sound up to root-finding accuracy.

    A derivative that overflowed has no extrema to enumerate, so the
    clause fails with NaN sups, as a NaN on the grid does in grid mode.
    The real roots of each derivative are kept in roots_by_der, keyed by
    its bytes: targets that differ only in the constant term ("zero",
    "plus_one", "minus_one") share one derivative and one eigensolve.
    """
    series = _target_series(poly, check.target)
    der = C.chebder(series)
    if not np.isfinite(der).all():
        return CheckResult(check.label, check.target, check.bound, math.nan,
                           math.nan, math.nan, False)
    if roots_by_der is None:
        roots_by_der = {}
    key = der.tobytes()
    if key not in roots_by_der:
        # for the roots only: a negligible top term throws chebroots off
        trimmed = C.chebtrim(der, np.finfo(float).eps * np.abs(der).max(initial=0.0))
        roots = C.chebroots(trimmed) if len(trimmed) > 1 else np.array([])
        if np.iscomplexobj(roots):
            roots = roots[np.abs(roots.imag) < 1e-9].real
        roots_by_der[key] = roots
    roots = roots_by_der[key]
    sup = 0.0
    for a, b in check.intervals:
        ta, tb = a / poly.halfwidth, b / poly.halfwidth
        cand = roots[(roots >= ta) & (roots <= tb)]
        cand = np.concatenate([cand, [ta, tb]])
        # coarse guard grid in case a root was missed numerically
        cand = np.concatenate([cand, np.linspace(ta, tb, 257)])
        # np.maximum, not max(): max(x, nan) is x, and a NaN must fail
        sup = float(np.maximum(sup, np.abs(C.chebval(cand, series)).max()))
    inflation = 1e-13 * float(np.maximum(1.0, sup))
    certified = sup + inflation
    tol = 1e-12 * max(1.0, check.bound)
    return CheckResult(check.label, check.target, check.bound, sup, inflation,
                       certified, certified <= check.bound + tol)


def _clause_results(
    poly: OddPolynomial,
    checks: list[PolyCheck] | tuple[PolyCheck, ...],
    grid_density: float,
    mode: str,
    hint: _FailHint | None = None,
) -> tuple[str, Iterator[CheckResult]]:
    """Resolved mode and a lazy iterator of one CheckResult per clause.

    A clause is evaluated only when the iterator reaches it, so a caller
    that stops at the first failed clause skips the rest.  Given a search
    hint, a grid clause also reads around it first and stops at its
    first failing chunk, for callers that need only pass or fail.
    """
    if not checks:
        raise ValueError("need at least one clause to certify")
    if mode == "auto":
        tightest = min(c.bound for c in checks)
        mode = "critical" if tightest < 1e-5 else "grid"
    if mode == "grid" and not math.isfinite(grid_density):
        raise ValueError(f"grid_density must be finite, got {grid_density!r}")
    if mode == "grid" and grid_density < 1e4:
        raise ValueError("grid_density must be at least 1e4 per unit length")
    if mode == "grid":
        return mode, (_grid_check(poly, c, grid_density, hint is not None, hint)
                      for c in checks)
    if mode == "critical":
        roots_by_der: dict[bytes, np.ndarray] = {}
        return mode, (_critical_check(poly, c, roots_by_der) for c in checks)
    raise ValueError(f"unknown mode {mode!r}")


def verify_poly_spec(
    poly: OddPolynomial,
    checks: list[PolyCheck] | tuple[PolyCheck, ...],
    grid_density: float = 1e4,
    mode: str = "auto",
) -> CertificateFragment:
    """Certify sup bounds of P minus a target over interval unions.

    Grid mode evaluates on a grid of the given density (points per unit
    length, finite and >= 1e4), read in chunks, and inflates by
    h * sup|P'| / 2, which is a sound covering bound; a NaN on the grid
    fails its clause.  Critical mode enumerates the extrema instead and is
    selected automatically when a requested bound is too small for any
    practical grid.  An empty clause list is refused.
    """
    mode, results = _clause_results(poly, checks, grid_density, mode)
    results = tuple(results)
    return CertificateFragment(mode, grid_density, results, all(r.passed for r in results))


# ----------------------------------------------------------------------
# sign design

def sign_checks(spec: SignSpec) -> list[PolyCheck]:
    """The sign clauses on the half-line: |P| <= 1 on [0, L] and
    |P - 1| <= delta on [tau, L].

    Sound for the whole of [-L, L] because an OddPolynomial stores only
    odd-degree coefficients: P(-x) = -P(x) exactly, so |P| on [-L, 0] and
    |P + 1| on [-L, -tau] are the mirror images of the two clauses.
    """
    L, tau, delta = spec.halfwidth, spec.tau, spec.delta
    return [
        PolyCheck(((0.0, L),), "zero", 1.0, "bounded"),
        PolyCheck(((tau, L),), "plus_one", delta, "gap_plus"),
    ]


# the clauses of sign_checks that carry the accuracy delta
_SIGN_ACC_LABELS = ("gap_plus",)


def _mollified_sign(tau_t: float, delta: float):
    """Smoothed sign target on [-1, 1] with headroom for interpolation wiggle.

    amp * erf(x / w) with amp = 1 - 0.45 delta and amp * erf(tau_t / w) = 1 - delta/2,
    leaving 0.45 delta of headroom below 1 and delta/2 of slack at the gap edge.
    """
    from scipy import special  # only the designer needs it; keeps the import light

    amp = 1.0 - 0.45 * delta
    ratio = (1.0 - 0.5 * delta) / amp
    w = tau_t / float(special.erfinv(ratio))
    return (lambda x: amp * special.erf(x / w)), w


def _chebinterpolate(func, deg: int) -> np.ndarray:
    """numpy's chebinterpolate(func, deg) by one FFT: O(n log n) time, O(n) memory.

    Samples func at the n = deg + 1 nodes C.chebpts1(n); read in
    descending order they are cos(pi (2j + 1) / 2n), so
    c_k = (2 / n) sum_j f_j cos(pi k (2j + 1) / 2n), halved at k = 0, is a
    DCT-II of the samples.  The DCT is one complex FFT of the samples
    reordered evens up, odds down, times the phase exp(-i pi k / 2n)
    (Makhoul 1980).  No BLAS call, so no bit depends on the BLAS threads.
    """
    n = deg + 1
    f = np.asarray(func(C.chebpts1(n)), dtype=float)[::-1]
    v = np.concatenate([f[0::2], f[1::2][::-1]])
    twiddle = np.exp(-0.5j * np.pi / n * np.arange(n))
    coeffs = (np.fft.fft(v) * twiddle).real * (2.0 / n)
    coeffs[0] *= 0.5
    return coeffs


_DENSITY_CAP = 2e7


def _design_density(poly: OddPolynomial, user_density: float, slack_scale: float) -> float:
    """Grid density making the Lipschitz inflation ~12% of the available slack."""
    deriv = poly.derivative_sup_bound()
    needed = deriv / max(2.0 * 0.12 * slack_scale, 1e-300)
    return float(min(max(user_density, needed), _DENSITY_CAP))


def _search_sign(spec: SignSpec) -> tuple[OddPolynomial, float]:
    """First certified unit-interval candidate of the degree walk, and its density.

    Each candidate's clauses run only up to the first that fails, and a
    grid clause only up to its first failing chunk: the search keeps
    pass or fail, never the partial certificate.  A hint carries the x
    where one candidate failed to the next, whose grid clauses read
    there first.
    """
    tau_t = spec.tau / spec.halfwidth
    target, w = _mollified_sign(tau_t, spec.delta)
    checks_unit = sign_checks(SignSpec(1.0, tau_t, spec.delta))

    deg = max(3, int(math.ceil(1.2 / w)) | 1)
    hint = _FailHint()
    while deg <= _MAX_DESIGN_DEGREE:
        full = _chebinterpolate(target, deg)
        full[0::2] = 0.0  # odd target: even coefficients are rounding noise
        cand = OddPolynomial(full[1::2], 1.0)
        density = _design_density(cand, _DESIGN_DENSITY, spec.delta)
        _, results = _clause_results(cand, checks_unit, density, "auto", hint)
        if all(r.passed for r in results):
            return cand, density
        step = max(2, int(0.08 * deg) & ~1)
        deg += step
    raise PolyDesignError(
        f"no certified sign polynomial up to degree {_MAX_DESIGN_DEGREE} "
        f"for {spec}"
    )


def design_sign_poly(spec: SignSpec) -> OddPolynomial:
    """Smallest-degree certified gapped sign approximant found by search.

    Interpolates the mollified target at Chebyshev points, keeps the odd
    part, and walks the degree up until the two half-line clauses of
    sign_checks hold on the unit interval; a candidate's clauses stop at
    the first that fails, and a grid clause at its first failing chunk.
    The returned polynomial carries a full certificate of both clauses,
    every chunk read, on the requested interval, at the search's point
    count per unit of x / halfwidth or more.  Raises PolyDesignError past
    degree `_MAX_DESIGN_DEGREE` or when that certificate fails.
    """
    cand, density = _search_sign(spec)
    # rescale the certified base solution to the requested interval;
    # coefficients are shared bit-for-bit with the unit design
    final = OddPolynomial(cand.odd_coeffs, spec.halfwidth)
    cert = verify_poly_spec(final, sign_checks(spec),
                            max(density, density / spec.halfwidth))
    if not cert.passed:
        raise PolyDesignError(f"sign certification failed for {spec}: {cert}")
    return replace(final, certificate=cert)


# ----------------------------------------------------------------------
# clip design

def clip_checks(spec: ClipSpec) -> list[PolyCheck]:
    """The clip clauses on the half-line: |P - x| <= delta on [0, 1 - tau],
    |P - 1| <= delta on [1 + tau, L] and |P| <= 1 on [0, 1].

    P - x, P - 1 and P are the mirror images of P - x, P + 1 and P on the
    negative side, since an OddPolynomial is odd by construction; see
    sign_checks.
    """
    L, tau, delta = spec.big_l, spec.tau, spec.delta
    return [
        PolyCheck(((0.0, 1.0 - tau),), "identity", delta, "inner"),
        PolyCheck(((1.0 + tau, L),), "plus_one", delta, "outer_plus"),
        PolyCheck(((0.0, 1.0),), "zero", 1.0, "bounded"),
    ]


# the clauses of clip_checks that carry the accuracy delta
_CLIP_ACC_LABELS = ("inner", "outer_plus")


def design_clip_poly(spec: ClipSpec) -> OddPolynomial:
    """Saturation approximant via the shifted-sign identity.

    S approximates sign on the widened interval [-R_c, R_c] with gap tau_c
    and error delta_c / L_c; then
    P_c(x) = ((x+1) S(x+1) - (x-1) S(x-1)) / 2
    is odd, has degree <= deg S + 1, tracks the identity inside, sign
    outside, and stays within [-1, 1] on the unit interval.  S is the
    sign search's unit candidate rescaled to R_c, with no certificate of
    its own; P_c's certificate runs all three half-line clip clauses.
    """
    unit, _ = _search_sign(
        SignSpec(spec.widened, spec.tau, spec.delta / spec.big_l))
    inner = OddPolynomial(unit.odd_coeffs, spec.widened)

    def combo(x):
        return 0.5 * ((x + 1.0) * inner(x + 1.0) - (x - 1.0) * inner(x - 1.0))

    # exact interpolation: combo is a polynomial of degree <= deg S + 1
    deg = inner.degree + 1
    full = _chebinterpolate(lambda t: combo(spec.big_l * t), deg)
    full[0::2] = 0.0  # combo is odd; even part is rounding noise
    cand = OddPolynomial(full[1::2], spec.big_l)
    density = _design_density(cand, _DESIGN_DENSITY, spec.delta / spec.big_l)
    cert = verify_poly_spec(cand, clip_checks(spec), density)
    if not cert.passed:
        raise PolyDesignError(f"clip certification failed for {spec}: {cert}")
    return replace(cand, certificate=cert)


def achieved_delta(poly: OddPolynomial | None) -> float | None:
    """Certified sup over a surrogate's accuracy clauses, if it carries any.

    A sign design certifies the gap clause and a clip design the inner
    and outer ones; the "bounded" clause caps |P| and is no accuracy.
    """
    if poly is None or poly.certificate is None:
        return None
    labels = _SIGN_ACC_LABELS + _CLIP_ACC_LABELS
    sups = [c.certified_sup for c in poly.certificate.checks if c.label in labels]
    return max(sups) if sups else None


# ----------------------------------------------------------------------
# budget split

def degrees_from_budget(budget: DegreeBudget) -> BudgetDegrees:
    """Split a per-step nonlinearity budget into sign/clip error targets.

    delta_s = eps_nl / (2 eta_delta sqrt(m)), delta_c = eps_nl / (2 eps sqrt(m)),
    which makes the one-step bound sqrt(m)(eta_delta delta_s + eps delta_c)
    equal eps_nl.  Degree bounds are reported with the explicit constants
    DEFAULT_C_S and DEFAULT_C_LITTLE_S, which are configuration, not
    derived values.
    """
    c_s, c_little_s = DEFAULT_C_S, DEFAULT_C_LITTLE_S
    m_root = math.sqrt(budget.m)
    limit = min(budget.eta_delta * m_root, budget.eps_ball * budget.big_l * m_root)
    feasible = 0.0 < budget.eps_nl < limit
    delta_s = budget.eps_nl / (2.0 * budget.eta_delta * m_root)
    delta_c = budget.eps_nl / (2.0 * budget.eps_ball * m_root)
    k_s = c_s / budget.tau_s * math.log(
        2.0 * c_little_s * budget.eta_delta * m_root / budget.eps_nl
    )
    k_c = 1.0 + c_s * (budget.big_l + 1.0) / budget.tau_c * math.log(
        4.0 * c_little_s * budget.big_l * budget.eps_ball * m_root / budget.eps_nl
    )
    return BudgetDegrees(
        delta_s=delta_s,
        delta_c=delta_c,
        k_s_bound=k_s,
        k_c_bound=k_c,
        k_s_formula="C_s/tau_s * log(2*c_s*eta_delta*sqrt(m)/eps_nl)",
        k_c_formula="1 + C_s*(L_c+1)/tau_c * log(4*c_s*L_c*eps*sqrt(m)/eps_nl)",
        feasible=feasible,
    )
