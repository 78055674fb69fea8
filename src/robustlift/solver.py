"""Solving the stacked system and costing its oracle-model counterpart.

Two classical routes produce the same stacked trajectory: the forward
recursion y(t+1) = B(t) y(t) + c(t) on the raw system, and block
forward substitution on the normalized system, whose matrix is block
lower bidiagonal with diagonal blocks I / (1 + rho) and so needs no
factorization.  Both read only the step blocks, and both report
residuals taken from `HorizonSystem.matvec`, so disagreement is loud.

The resource model prices a quantum linear-system call with explicit
constants; every log is clamped at one so estimates stay monotone in
each argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .carleman import run_truncated_recurrence
from .horizon import HorizonSystem

__all__ = [
    "ForwardResult",
    "solve_forward",
    "SolveResult",
    "solve_linear_system",
    "ResourceModel",
    "ResourceEstimate",
    "qlsa_estimate",
]

UNIT_NORM_TOL = 1e-14


def _relative_residual(applied: np.ndarray, rhs: np.ndarray) -> float:
    resid = np.linalg.norm(applied - rhs)
    return float(resid / max(np.linalg.norm(rhs), 1e-300))


@dataclass(frozen=True)
class ForwardResult:
    y_blocks: np.ndarray
    stacked: np.ndarray
    residual: float


def solve_forward(system: HorizonSystem) -> ForwardResult:
    """Forward substitution through the recurrence, then a residual check."""
    run = run_truncated_recurrence(system.steps, system.rhs[:system.block_dim],
                                   system.t_window)
    return ForwardResult(run.y, run.stacked,
                         _relative_residual(system.matvec(run.stacked), system.rhs))


@dataclass(frozen=True)
class SolveResult:
    stacked: np.ndarray
    normalized_state: np.ndarray
    norm: float
    residual: float
    y_blocks: np.ndarray

    def block(self, t: int) -> np.ndarray:
        return self.y_blocks[t]


def solve_linear_system(system: HorizonSystem) -> SolveResult:
    """Block forward substitution on the normalized system.

    With inv = 1 / (1 + rho) and r the normalized right hand side, block
    row 0 gives y(0) = r(0) / inv and block row t+1 gives
    y(t+1) = (r(t+1) + inv B(t) y(t)) / inv, which solves the system
    exactly without building or factorizing the stacked matrix.  Returns
    the stacked solution and its unit-norm copy; the first block always
    equals the supplied initial lift up to rounding.
    """
    inv = system.inv_scale
    rhs = system.rhs_normalized
    y = np.empty((system.t_window + 1, system.block_dim))
    r = rhs.reshape(y.shape)
    y[0] = r[0] / inv
    for t, step in enumerate(system.steps):
        y[t + 1] = (r[t + 1] + inv * (step.b_matrix @ y[t])) / inv
    stacked = y.reshape(-1)
    residual = _relative_residual(inv * system.matvec(stacked), rhs)
    norm = float(np.linalg.norm(stacked))
    if norm <= 0.0:
        raise ArithmeticError("stacked solution vanished; nothing to normalize")
    unit = stacked / norm
    drift = abs(np.linalg.norm(unit) - 1.0)
    if drift > UNIT_NORM_TOL:
        unit = unit / np.linalg.norm(unit)
    return SolveResult(
        stacked=stacked,
        normalized_state=unit,
        norm=norm,
        residual=residual,
        y_blocks=y,
    )


# ----------------------------------------------------------------------
# resource model


@dataclass(frozen=True)
class ResourceModel:
    """Inputs of the oracle-cost model; constants are configuration."""

    s_row: float
    kappa: float
    dim: float
    eps_ls: float
    c_query: float = 1.0
    c_gate: float = 1.0
    c_sparse_access: float = 1.0
    a_ancilla: int = 10
    polylog_power: float = 1.0
    qram: bool = False

    def __post_init__(self) -> None:
        if min(self.s_row, self.kappa, self.dim) <= 0 or not (0 < self.eps_ls < 1):
            raise ValueError("need positive s_row, kappa, dim and eps_ls in (0,1)")


@dataclass(frozen=True)
class ResourceEstimate:
    queries: float
    gates: float
    prep_gates: float
    qubits: int
    model: ResourceModel
    formulas: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "gates": self.gates,
            "prep_gates": self.prep_gates,
            "qubits": self.qubits,
            "formulas": self.formulas,
            "inputs": {
                "s_row": self.model.s_row,
                "kappa": self.model.kappa,
                "dim": self.model.dim,
                "eps_ls": self.model.eps_ls,
                "qram": self.model.qram,
            },
        }


def _clamped_log2(x: float) -> float:
    return max(1.0, math.log2(max(x, 1.0)))


def qlsa_estimate(model: ResourceModel) -> ResourceEstimate:
    """Query/gate/qubit counts for one linear-system call.

    queries = c_q * s * kappa * log2(dim/eps)^p, gates add the sparse
    access cost per query plus one state preparation, qubits count the
    address register plus clamped logs of kappa and 1/eps plus ancillas.
    Without qRAM the preparation is a linear pass over the right hand
    side (dim gates); with qRAM it is polylogarithmic (log2(dim)^p).
    """
    p = model.polylog_power
    polylog = _clamped_log2(model.dim / model.eps_ls) ** p
    queries = model.c_query * model.s_row * model.kappa * polylog
    prep = _clamped_log2(model.dim) ** p if model.qram else float(model.dim)
    gates = model.c_gate * (prep + model.s_row * model.kappa
                            * model.c_sparse_access * polylog)
    qubits = (math.ceil(math.log2(max(model.dim, 2.0)))
              + math.ceil(_clamped_log2(model.kappa))
              + math.ceil(_clamped_log2(1.0 / model.eps_ls))
              + model.a_ancilla)
    formulas = {
        "queries": "c_query * s_row * kappa * log2(dim/eps_ls)^p",
        "gates": "c_gate * (prep + s_row * kappa * c_sparse_access"
                 " * log2(dim/eps_ls)^p)",
        "prep": "log2(dim)^p (qram)" if model.qram else "dim",
        "qubits": "ceil(log2 dim) + ceil(log2 kappa) + ceil(log2 1/eps_ls)"
                  " + a_ancilla",
    }
    return ResourceEstimate(
        queries=float(queries),
        gates=float(gates),
        prep_gates=float(prep),
        qubits=int(qubits),
        model=model,
        formulas=formulas,
    )
