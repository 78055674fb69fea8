"""Multivariate polynomial arithmetic.

``MultiPoly`` holds dense exponent-grid coefficients for a handful of
variables: exact ring operations, substitution and (complex-capable)
evaluation.  It carries the symbolic composition of update maps at
moderate degree.

``ring_chebval`` evaluates a Chebyshev series where the argument lives
in any commutative ring (scalars or ``MultiPoly``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MultiPoly",
    "ring_chebval",
]

_MAX_GRID = 1 << 24  # coefficient-grid size guard


class MultiPoly:
    """Polynomial in d variables on a dense exponent grid.

    coeffs[e1, ..., ed] multiplies v1^e1 * ... * vd^ed.
    """

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.size > _MAX_GRID:
            raise MemoryError(f"coefficient grid of {coeffs.size} entries exceeds cap")
        self.coeffs = coeffs
        self.d = coeffs.ndim

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, d: int) -> "MultiPoly":
        return cls(np.zeros((1,) * d))

    @classmethod
    def constant(cls, d: int, value: float) -> "MultiPoly":
        c = np.zeros((1,) * d)
        c[(0,) * d] = value
        return cls(c)

    @classmethod
    def variable(cls, d: int, i: int) -> "MultiPoly":
        shape = tuple(2 if j == i else 1 for j in range(d))
        c = np.zeros(shape)
        c[tuple(1 if j == i else 0 for j in range(d))] = 1.0
        return cls(c)

    @classmethod
    def affine(cls, d: int, linear: np.ndarray, const: float) -> "MultiPoly":
        p = cls.constant(d, const)
        for i, a in enumerate(np.asarray(linear, dtype=float)):
            if a != 0.0:
                p = p + cls.variable(d, i) * a
        return p

    # -- ring ops ------------------------------------------------------
    def _promote(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(self.d, float(other))

    def __add__(self, other):
        other = self._promote(other)
        shape = tuple(max(a, b) for a, b in zip(self.coeffs.shape, other.coeffs.shape))
        out = np.zeros(shape)
        out[tuple(slice(0, s) for s in self.coeffs.shape)] += self.coeffs
        out[tuple(slice(0, s) for s in other.coeffs.shape)] += other.coeffs
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(-self.coeffs)

    def __sub__(self, other):
        return self + (-self._promote(other))

    def __rsub__(self, other):
        return self._promote(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return MultiPoly(self.coeffs * float(other))
        shape = tuple(a + b - 1 for a, b in zip(self.coeffs.shape, other.coeffs.shape))
        if math.prod(shape) > _MAX_GRID:
            raise MemoryError("product grid exceeds cap")
        out = np.zeros(shape)
        # direct convolution keeps exact float semantics on small grids
        it = np.ndindex(other.coeffs.shape)
        for idx in it:
            c = other.coeffs[idx]
            if c == 0.0:
                continue
            sl = tuple(slice(i, i + s) for i, s in zip(idx, self.coeffs.shape))
            out[sl] += c * self.coeffs
        return MultiPoly(out)

    __rmul__ = __mul__

    # -- queries -------------------------------------------------------
    def total_degree(self, tol: float = 0.0) -> int:
        mask = np.abs(self.coeffs) > tol
        if not mask.any():
            return 0
        degs = np.indices(self.coeffs.shape).sum(axis=0)
        return int(degs[mask].max())

    def degree_slice(self, ell: int) -> dict[tuple[int, ...], float]:
        """Nonzero coefficients of total degree ell, keyed by exponent."""
        out = {}
        degs = np.indices(self.coeffs.shape).sum(axis=0)
        for idx in zip(*np.nonzero((degs == ell) & (self.coeffs != 0.0))):
            out[tuple(int(i) for i in idx)] = float(self.coeffs[idx])
        return out

    # -- evaluation and substitution ------------------------------------
    def __call__(self, pts):
        """Evaluate at points of shape (..., d); real or complex."""
        pts = np.asarray(pts)
        scalar = pts.ndim == 1
        if scalar:
            pts = pts[None, :]
        batch = pts.shape[:-1]
        vals = np.array(
            np.broadcast_to(self.coeffs, batch + self.coeffs.shape),
            dtype=np.result_type(self.coeffs, pts),
        )
        for var in range(self.d - 1, -1, -1):
            grid_axes = vals.ndim - len(batch)
            x = pts[..., var].reshape(batch + (1,) * (grid_axes - 1))
            acc = vals[..., -1]
            for j in range(vals.shape[-1] - 2, -1, -1):
                acc = acc * x + vals[..., j]
            vals = acc
        return vals[0] if scalar else vals

    def substitute(self, args: list["MultiPoly"]) -> "MultiPoly":
        """Compose: substitute args[i] for variable i (polynomial composition).

        Each nonzero monomial c * v^e becomes c times the product of the
        powers args[i]**e[i].  The first nonzero power is scaled by c in
        one pass, zeros skipped; the later ones are multiplied on with
        ``*``.  The terms are summed in place, in C order of the
        monomials, into one grid of +0.0 that reaches on each axis as far
        as the longest term.  That is the same arithmetic, in the same
        order, as adding the terms one by one with ``+``, so the result
        has the same bits and grid shape.  All args must have the same
        number of variables.
        """
        if len(args) != self.d:
            raise ValueError("need one substitution polynomial per variable")
        if len({a.d for a in args}) > 1:
            raise ValueError("substitution polynomials must share one variable count")
        d_out = args[0].d
        nonzero = np.argwhere(self.coeffs != 0.0)  # C order
        if not len(nonzero):
            return MultiPoly.zero(d_out)
        powers: list[list[MultiPoly]] = []
        growth = np.zeros(d_out, dtype=np.int64)
        for i, top in enumerate(nonzero.max(axis=0)):
            chain = [MultiPoly.constant(d_out, 1.0)]
            while len(chain) <= top:
                chain.append(chain[-1] * args[i])
            powers.append(chain)
            # a product grid grows by each factor's shape minus one
            extra = np.array([p.coeffs.shape for p in chain]) - 1
            growth = growth + extra[nonzero[:, i]]
        shape = tuple(int(s) for s in growth.max(axis=0) + 1)
        if math.prod(shape) > _MAX_GRID:
            raise MemoryError("composition grid exceeds cap")
        out = np.zeros(shape)
        for idx in map(tuple, nonzero):
            c = self.coeffs[idx]
            term = None
            for i, e in enumerate(idx):
                if not e:
                    continue
                power = powers[i][e]
                if term is None:
                    term = MultiPoly(np.multiply(
                        power.coeffs, c, out=np.zeros(power.coeffs.shape),
                        where=power.coeffs != 0.0))
                else:
                    term = term * power
            if term is None:
                out[(0,) * d_out] += c
            else:
                out[tuple(slice(0, s) for s in term.coeffs.shape)] += term.coeffs
        return MultiPoly(out)


# ----------------------------------------------------------------------
# ring-generic Chebyshev evaluation (mirrors numpy's Clenshaw)

def ring_chebval(x, coeffs: np.ndarray):
    """Clenshaw evaluation of a Chebyshev series where x lives in any
    commutative ring with +, -, * and scalar mixing (MultiPoly)."""
    c = np.asarray(coeffs, dtype=float)
    if len(c) == 1:
        return x * 0.0 + c[0]
    if len(c) == 2:
        return x * c[1] + c[0]
    x2 = x * 2.0
    c0 = x * 0.0 + c[-2]
    c1 = x * 0.0 + c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        c0 = c[-i] - c1
        c1 = tmp + c1 * x2
    return c0 + c1 * x
