"""Robust-training windows as certified sparse linear systems.

The package turns a projected-gradient robust-training window into (1) a
polynomial surrogate of the nonsmooth update, (2) a truncated symmetric
tensor-power lifting of that surrogate with certified contraction and tail
bounds, (3) a block-bidiagonal horizon system with conditioning and
sparsity certificates, and (4) terminal readout with an end-to-end error
budget plus an abstract quantum-linear-solver cost model.  A small
benchmark harness reproduces the reduced image-classification task used
to sanity-check the reduction.
"""

__version__ = "0.1.0"

from .polyapprox import (  # noqa: F401
    OddPolynomial,
    SignSpec,
    ClipSpec,
    DegreeBudget,
    design_sign_poly,
    design_clip_poly,
    degrees_from_budget,
    verify_poly_spec,
)
from .dynamics import (  # noqa: F401
    CoupledState,
    StepSchedule,
    AffineGradient,
    PolynomialGradient,
    StepMonitor,
    PolynomialMapCoeffs,
    exact_outer_step,
    folded_poly_step,
    expand_polynomial_map,
    one_step_delta_bound,
    scaled_base_step_error_bound,
)
from .carleman import (  # noqa: F401
    LiftedStep,
    build_lifted_step,
    lift_state,
    run_truncated_recurrence,
    majorant_and_contractivity,
    tail_constant_and_cutoff,
    design_cutoff,
    lift_lipschitz,
)
from .horizon import (  # noqa: F401
    HorizonSystem,
    assemble_horizon,
    lift_window,
    row_access,
    condition_bounds,
    sparsity_bounds,
    hockey_stick_total,
)
from .solver import (  # noqa: F401
    SolveResult,
    solve_linear_system,
    ResourceModel,
    ResourceEstimate,
    qlsa_estimate,
)
from .readout import (  # noqa: F401
    TerminalReadout,
    extract_terminal,
    terminal_error_bound,
    plan_budgets,
    PlanInputs,
    ErrorBudget,
    Certificate,
    InfeasibleBudgetError,
    run_pipeline_certificate,
)
from .instances import (  # noqa: F401
    CertifyInstance,
    FoldedInstance,
    certify_instance,
    folded_demo_instance,
    random_contractive,
)
