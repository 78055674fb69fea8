"""Multivariate polynomial arithmetic.

``MultiPoly`` holds dense exponent-grid coefficients for a handful of
variables: exact ring operations, scalar division and (complex-capable)
evaluation.  An object array of ``MultiPoly`` coordinates goes through
the numeric step code unchanged (numpy's ``chebval`` on it is a ring
Clenshaw, ``@`` a ring matrix product), which is how the folded step's
coordinate polynomials are composed at moderate degree.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MultiPoly",
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

    # -- ring ops ------------------------------------------------------
    def _promote(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(self.d, float(other))

    def __add__(self, other):
        other = self._promote(other)
        shape = tuple(max(a, b) for a, b in zip(self.coeffs.shape, other.coeffs.shape))
        if math.prod(shape) > _MAX_GRID:
            raise MemoryError("sum grid exceeds cap")
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
            factor = float(other)
            if factor == 0.0:
                # a zero factor (a zero weight of a matrix row, a zero
                # coefficient in a Horner step) spans no variable, so the
                # grids it is summed into keep only the axes they use
                return MultiPoly.constant(self.d, 0.0)
            return MultiPoly(self.coeffs * factor)
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

    def __truediv__(self, other):
        return MultiPoly(self.coeffs / float(other))

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

    # -- evaluation ------------------------------------------------------
    def __call__(self, pts):
        """Evaluate at points of shape (..., d): real, complex or MultiPoly."""
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
