"""Certified odd polynomial surrogates for sign and saturation.

Two building blocks are produced here:

* a gapped sign approximant: an odd polynomial P_s with |P_s| <= 1 on
  [-L, L] and |P_s(x) - sign(x)| <= delta for tau <= |x| <= L;
* a saturation (hard clip to [-1, 1]) approximant P_c assembled from a
  sign approximant S on the widened interval via the exact identity
  sat(x) = ((x+1) sign(x+1) - (x-1) sign(x-1)) / 2.

Construction is Chebyshev interpolation of an erf-mollified sign whose
width is tied to the gap, followed by an incremental degree search until
an explicit verifier certifies the requested bounds.  Polynomials are
kept in the odd Chebyshev basis of their interval; near-minimax
approximants of the degrees needed here have astronomically large
monomial coefficients, so a monomial form only exists as a low-degree
export convenience.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy import special

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

# Default constants of the degree bounds; unspecified upstream, so they are
# configuration inputs here, not claims.
DEFAULT_C_S = 4.0
DEFAULT_C_LITTLE_S = 2.0

_MONOMIAL_EXPORT_MAX_DEGREE = 60


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
        """Sound sup of |P'| on the whole interval: sum|chebder| / halfwidth."""
        return float(np.sum(np.abs(C.chebder(self.full_coeffs())))) / self.halfwidth

    def to_monomial(self) -> np.ndarray:
        """Ascending odd monomial coefficients of x (not x/halfwidth).

        Refuses degrees where the conversion is float noise.
        """
        if self.degree > _MONOMIAL_EXPORT_MAX_DEGREE:
            raise ValueError(
                f"monomial conversion is numerically meaningless at degree "
                f"{self.degree} (> {_MONOMIAL_EXPORT_MAX_DEGREE})"
            )
        mono = C.cheb2poly(self.full_coeffs())
        scale = self.halfwidth ** (-np.arange(len(mono), dtype=float))
        return (mono * scale)[1::2]

    def save_text(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# odd chebyshev coefficients, ascending degree; halfwidth={float(self.halfwidth)!r}\n")
            for c in self.odd_coeffs:
                fh.write(f"{float(c)!r}\n")

    @classmethod
    def load_text(cls, path) -> "OddPolynomial":
        halfwidth = 1.0
        coeffs: list[float] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if "halfwidth=" in line:
                        halfwidth = float(line.split("halfwidth=")[1])
                    continue
                coeffs.append(float(line))
        return cls(np.array(coeffs), halfwidth)


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


def _grid_check(poly: OddPolynomial, check: PolyCheck, density: float) -> CheckResult:
    series = _target_series(poly, check.target)
    deriv_sup = float(np.sum(np.abs(C.chebder(series)))) / poly.halfwidth
    sup = 0.0
    inflation = 0.0
    for a, b in check.intervals:
        if b < a:
            raise ValueError("interval endpoints out of order")
        n = max(2, int(math.ceil((b - a) * density)) + 1)
        xs = np.linspace(a, b, n)
        vals = np.abs(C.chebval(xs / poly.halfwidth, series))
        sup = max(sup, float(vals.max()))
        h = (b - a) / (n - 1)
        inflation = max(inflation, 0.5 * h * deriv_sup)
    certified = sup + inflation
    tol = 1e-12 * max(1.0, check.bound)
    return CheckResult(check.label, check.target, check.bound, sup, inflation,
                       certified, certified <= check.bound + tol)


def _critical_check(poly: OddPolynomial, check: PolyCheck) -> CheckResult:
    """Enumerate extrema of P - target; sound up to root-finding accuracy."""
    series = _target_series(poly, check.target)
    der = C.chebder(series)
    roots = C.chebroots(der) if len(der) > 1 else np.array([])
    roots = roots[np.abs(roots.imag) < 1e-9].real if np.iscomplexobj(roots) else roots
    sup = 0.0
    for a, b in check.intervals:
        ta, tb = a / poly.halfwidth, b / poly.halfwidth
        cand = roots[(roots >= ta) & (roots <= tb)]
        cand = np.concatenate([cand, [ta, tb]])
        # coarse guard grid in case a root was missed numerically
        cand = np.concatenate([cand, np.linspace(ta, tb, 257)])
        sup = max(sup, float(np.abs(C.chebval(cand, series)).max()))
    inflation = 1e-13 * max(1.0, sup)
    certified = sup + inflation
    tol = 1e-12 * max(1.0, check.bound)
    return CheckResult(check.label, check.target, check.bound, sup, inflation,
                       certified, certified <= check.bound + tol)


def _clause_results(
    poly: OddPolynomial,
    checks: list[PolyCheck] | tuple[PolyCheck, ...],
    grid_density: float,
    mode: str,
) -> tuple[str, Iterator[CheckResult]]:
    """Resolved mode and a lazy iterator of one CheckResult per clause.

    A clause is evaluated only when the iterator reaches it, so a caller
    that stops at the first failed clause skips the rest.
    """
    if not checks:
        raise ValueError("need at least one clause to certify")
    if mode == "auto":
        tightest = min(c.bound for c in checks)
        mode = "critical" if tightest < 1e-5 else "grid"
    if mode == "grid" and grid_density < 1e4:
        raise ValueError("grid_density must be at least 1e4 per unit length")
    if mode == "grid":
        return mode, (_grid_check(poly, c, grid_density) for c in checks)
    if mode == "critical":
        return mode, (_critical_check(poly, c) for c in checks)
    raise ValueError(f"unknown mode {mode!r}")


def verify_poly_spec(
    poly: OddPolynomial,
    checks: list[PolyCheck] | tuple[PolyCheck, ...],
    grid_density: float = 1e4,
    mode: str = "auto",
) -> CertificateFragment:
    """Certify sup bounds of P minus a target over interval unions.

    Grid mode evaluates on a grid of the given density (points per unit
    length, >= 1e4) and inflates by h * sup|P'| / 2, which is a sound
    covering bound.  Critical mode enumerates the extrema instead and is
    selected automatically when a requested bound is too small for any
    practical grid.  An empty clause list is refused.
    """
    mode, results = _clause_results(poly, checks, grid_density, mode)
    results = tuple(results)
    return CertificateFragment(mode, grid_density, results, all(r.passed for r in results))


# ----------------------------------------------------------------------
# sign design

def sign_checks(spec: SignSpec) -> list[PolyCheck]:
    L, tau, delta = spec.halfwidth, spec.tau, spec.delta
    return [
        PolyCheck((( -L, L),), "zero", 1.0, "bounded"),
        PolyCheck(((tau, L),), "plus_one", delta, "gap_plus"),
        PolyCheck(((-L, -tau),), "minus_one", delta, "gap_minus"),
    ]


# the clauses of sign_checks that carry the accuracy delta
_SIGN_ACC_LABELS = ("gap_plus", "gap_minus")


def _mollified_sign(tau_t: float, delta: float):
    """Smoothed sign target on [-1, 1] with headroom for interpolation wiggle.

    amp * erf(x / w) with amp = 1 - 0.45 delta and amp * erf(tau_t / w) = 1 - delta/2,
    leaving 0.45 delta of headroom below 1 and delta/2 of slack at the gap edge.
    """
    amp = 1.0 - 0.45 * delta
    ratio = (1.0 - 0.5 * delta) / amp
    w = tau_t / float(special.erfinv(ratio))
    return (lambda x: amp * special.erf(x / w)), w


_DENSITY_CAP = 2e7


def _design_density(poly: OddPolynomial, user_density: float, slack_scale: float) -> float:
    """Grid density making the Lipschitz inflation ~12% of the available slack."""
    deriv = poly.derivative_sup_bound()
    needed = deriv / max(2.0 * 0.12 * slack_scale, 1e-300)
    return float(min(max(user_density, needed), _DENSITY_CAP))


def _search_sign(
    spec: SignSpec, max_degree: int, grid_density: float, mode: str,
) -> tuple[OddPolynomial, float]:
    """First certified unit-interval candidate of the degree walk, and its density.

    Each candidate's clauses run only up to the first that fails.
    """
    tau_t = spec.tau / spec.halfwidth
    target, w = _mollified_sign(tau_t, spec.delta)
    checks_unit = sign_checks(SignSpec(1.0, tau_t, spec.delta))

    deg = max(3, int(math.ceil(1.2 / w)) | 1)
    while deg <= max_degree:
        full = C.chebinterpolate(target, deg)
        full[0::2] = 0.0  # odd target: even coefficients are rounding noise
        cand = OddPolynomial(full[1::2], 1.0)
        density = _design_density(cand, grid_density, spec.delta)
        _, results = _clause_results(cand, checks_unit, density, mode)
        if all(r.passed for r in results):
            return cand, density
        step = max(2, int(0.08 * deg) & ~1)
        deg += step
    raise PolyDesignError(
        f"no certified sign polynomial up to degree {max_degree} for {spec}"
    )


def design_sign_poly(
    spec: SignSpec,
    max_degree: int = 4000,
    grid_density: float = 1e4,
    mode: str = "auto",
) -> OddPolynomial:
    """Smallest-degree certified gapped sign approximant found by search.

    Interpolates the mollified target at Chebyshev points, keeps the odd
    part, and walks the degree up until the three clauses hold on the unit
    interval; a candidate's clauses stop at the first that fails.  The
    returned polynomial carries a full certificate of all three clauses on
    the requested interval.  Raises PolyDesignError past max_degree.
    """
    cand, density = _search_sign(spec, max_degree, grid_density, mode)
    # rescale the certified base solution to the requested interval;
    # coefficients are shared bit-for-bit with the unit design
    final = OddPolynomial(cand.odd_coeffs, spec.halfwidth)
    cert_final = verify_poly_spec(final, sign_checks(spec), density, mode)
    return replace(final, certificate=cert_final)


# ----------------------------------------------------------------------
# clip design

def clip_checks(spec: ClipSpec) -> list[PolyCheck]:
    L, tau, delta = spec.big_l, spec.tau, spec.delta
    return [
        PolyCheck(((-(1.0 - tau), 1.0 - tau),), "identity", delta, "inner"),
        PolyCheck(((1.0 + tau, L),), "plus_one", delta, "outer_plus"),
        PolyCheck(((-L, -(1.0 + tau)),), "minus_one", delta, "outer_minus"),
        PolyCheck(((-1.0, 1.0),), "zero", 1.0, "bounded"),
    ]


# the clauses of clip_checks that carry the accuracy delta
_CLIP_ACC_LABELS = ("inner", "outer_plus", "outer_minus")


def design_clip_poly(
    spec: ClipSpec,
    max_degree: int = 4000,
    grid_density: float = 1e4,
    mode: str = "auto",
) -> OddPolynomial:
    """Saturation approximant via the shifted-sign identity.

    S approximates sign on the widened interval [-R_c, R_c] with gap tau_c
    and error delta_c / L_c; then
    P_c(x) = ((x+1) S(x+1) - (x-1) S(x-1)) / 2
    is odd, has degree <= deg S + 1, tracks the identity inside, sign
    outside, and stays within [-1, 1] on the unit interval.  S is the
    sign search's unit candidate rescaled to R_c, with no certificate of
    its own; P_c's certificate runs all four clip clauses.
    """
    unit, _ = _search_sign(
        SignSpec(spec.widened, spec.tau, spec.delta / spec.big_l),
        max_degree, grid_density, mode,
    )
    inner = OddPolynomial(unit.odd_coeffs, spec.widened)

    def combo(x):
        return 0.5 * ((x + 1.0) * inner(x + 1.0) - (x - 1.0) * inner(x - 1.0))

    # exact interpolation: combo is a polynomial of degree <= deg S + 1
    deg = inner.degree + 1
    full = C.chebinterpolate(lambda t: combo(spec.big_l * t), deg)
    full[0::2] = 0.0  # combo is odd; even part is rounding noise
    cand = OddPolynomial(full[1::2], spec.big_l)
    density = _design_density(cand, grid_density, spec.delta / spec.big_l)
    cert = verify_poly_spec(cand, clip_checks(spec), density, mode)
    if not cert.passed:
        raise PolyDesignError(f"clip certification failed for {spec}: {cert}")
    return replace(cand, certificate=cert)


def achieved_delta(poly: OddPolynomial | None) -> float | None:
    """Certified sup over a surrogate's accuracy clauses, if it carries any.

    A sign design certifies the gap clauses and a clip design the inner
    and outer ones; the "bounded" clause caps |P| and is no accuracy.
    """
    if poly is None or poly.certificate is None:
        return None
    labels = _SIGN_ACC_LABELS + _CLIP_ACC_LABELS
    sups = [c.certified_sup for c in poly.certificate.checks if c.label in labels]
    return max(sups) if sups else None


# ----------------------------------------------------------------------
# budget split

def degrees_from_budget(
    budget: DegreeBudget,
    c_s: float = DEFAULT_C_S,
    c_little_s: float = DEFAULT_C_LITTLE_S,
) -> BudgetDegrees:
    """Split a per-step nonlinearity budget into sign/clip error targets.

    delta_s = eps_nl / (2 eta_delta sqrt(m)), delta_c = eps_nl / (2 eps sqrt(m)),
    which makes the one-step bound sqrt(m)(eta_delta delta_s + eps delta_c)
    equal eps_nl.  Degree bounds are reported with explicit constants
    (c_s, c_little_s), which are configuration, not derived values.
    """
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
