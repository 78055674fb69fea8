"""Package surface: each module's `__all__` names what the module holds.

Callers that walk `__all__` with `getattr` (the layer tracer of the
benchmark does, once per traced run) break on a stale entry.  A name
with a leading underscore (dunders aside) stays inside its module.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import robustlift

MODULES = sorted(m.name for m in pkgutil.iter_modules(robustlift.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_repeats(name):
    module = importlib.import_module(f"robustlift.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported)
    for attr in exported:
        getattr(module, attr)


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_imported_from_siblings(name):
    module = importlib.import_module(f"robustlift.{name}")
    tree = ast.parse(inspect.getsource(module))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("robustlift"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


# settings no caller set, now module constants (named in the comments);
# none of them may come back as a parameter of the callable it left
_REMOVED_PARAMETERS = {
    ("readout", "run_pipeline_certificate"): (
        "max_stacked_nnz",   # horizon.MAX_STACKED_NNZ
        "p_star_fraction"),  # _P_STAR_FRACTION
    ("readout", "_row_access_spot_check"): ("samples",),  # _SPOT_CHECK_ROWS
    ("polyapprox", "design_sign_poly"): (
        "max_degree",    # _MAX_DESIGN_DEGREE
        "grid_density",  # _DESIGN_DENSITY
        "mode"),         # always "auto"
    ("polyapprox", "design_clip_poly"): (
        "max_degree", "grid_density", "mode"),
    ("polyapprox", "degrees_from_budget"): (
        "c_s", "c_little_s"),  # DEFAULT_C_S, DEFAULT_C_LITTLE_S
    ("dynamics", "expand_polynomial_map"): (
        "tol",           # _EXPAND_TOL
        "check_points",  # _EXPAND_CHECK_POINTS
        "rng",           # a generator seeded with 0
        "max_grid"),     # _MAX_EXPAND_GRID
    ("carleman", "lift_state"): ("dim_cap",),  # DEFAULT_DIM_CAP
    ("carleman", "build_lifted_step"): ("dim_cap",),
    ("carleman", "run_truncated_recurrence"): ("dim_cap",),
    ("horizon", "condition_bounds"): ("dense_limit",),  # gate of the removed dense SVD
    ("horizon", "save_matrix_market"): ("normalized",),
    ("bench", "ReducedTask"): (
        "feature_dim",     # unread
        "projected_dim",   # PROJECTED_DIM
        "n_classes",       # N_CLASSES
        "hidden_dim"),     # HIDDEN_DIM
    ("bench", "ReducedModel.init"): ("task",),  # unread
    ("bench", "load_mnist_reduced"): (
        "digits",          # DIGITS
        "out_side",        # POOLED_SIDE
        "projected_dim"),
    ("bench", "synthetic_blob_images"): (
        "per_class",       # _BLOBS_PER_CLASS
        "classes",         # N_CLASSES
        "side"),           # POOLED_SIDE
    ("bench", "random_projection"): (
        "in_dim", "out_dim",
        "scale"),          # PROJECTION_SCALE
    ("bench", "pgd_evaluate"): ("max_samples",),  # the whole set
    ("bench", "plateau_ratio"): ("tail_frac",),   # _PLATEAU_TAIL
    ("instances", "random_coeff_map"): (
        "lin_norm", "const_norm", "high_norm"),   # _LIN_NORM, ...
    ("instances", "random_contractive"): (
        "d_max", "degree_max", "n_levels_max", "t_max"),  # _D_MAX, ...
    ("solver", "ResourceModel"): (
        "c_prep",          # prep is dim
        "c_prep_qram"),    # prep is log2(dim)^p with qRAM
}
# constructor fields of the instance classes that became class variables
# (uses_fold), module constants or a non-init cache
_REMOVED_FIELDS = ("uses_fold", "max_expand_degree", "declared_delta_s",
                   "declared_delta_c", "_cache")


@pytest.mark.parametrize("where", sorted(_REMOVED_PARAMETERS),
                         ids=".".join)
def test_removed_settings_stay_removed(where):
    target = importlib.import_module(f"robustlift.{where[0]}")
    for attr in where[1].split("."):
        target = getattr(target, attr)
    params = set(inspect.signature(target).parameters)
    assert params.isdisjoint(_REMOVED_PARAMETERS[where])


def test_reduced_task_holds_what_the_cli_sets():
    # every ReducedTask field is a keyword of the CLI's one construction
    from robustlift import bench, cli

    tree = ast.parse(inspect.getsource(cli))
    set_by_cli = {kw.arg for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "ReducedTask"
                  for kw in node.keywords}
    fields = {f.name for f in dataclasses.fields(bench.ReducedTask)}
    assert fields == set_by_cli and len(fields) == 8


# methods no pipeline called, deleted with the tests that were their only
# callers, a route replaced by its closed form, the symbolic twin of the
# surrogate step (the step now runs on MultiPoly coordinates), and the
# Kronecker lift's assembly (the lift now builds symmetric levels)
_REMOVED_NAMES = {
    "polyapprox": ("OddPolynomial.to_monomial", "OddPolynomial.load_text",
                   "_MONOMIAL_EXPORT_MAX_DEGREE"),
    "dynamics": ("PolynomialMapCoeffs.from_json", "structural_step_polys",
                 "recentre_polys", "AffineGradient.delta_polys",
                 "AffineGradient.u_polys", "PolynomialGradient.delta_polys",
                 "PolynomialGradient.u_polys", "PolynomialMapCoeffs.as_matrix",
                 "PolynomialMapCoeffs._place", "_content_index",
                 "_content_column", "_MAX_MATRIX_ENTRIES"),
    "carleman": ("_Level", "_dense_level", "_merged_level", "_next_level"),
    "instances": ("CertifyInstance.realized_affine_polys",),
    "multipoly": ("MultiPoly.__pow__", "ring_chebval", "MultiPoly.substitute",
                  "MultiPoly.affine", "MultiPoly.zero"),
    "readout": ("_MAX_STACKED_NNZ",),  # horizon.MAX_STACKED_NNZ
}


@pytest.mark.parametrize("name", sorted(_REMOVED_NAMES))
def test_removed_names_stay_removed(name):
    module = importlib.import_module(f"robustlift.{name}")
    for path in _REMOVED_NAMES[name]:
        owner, _, attr = path.rpartition(".")
        assert not hasattr(getattr(module, owner) if owner else module, attr)


@pytest.mark.parametrize("cls", ["CertifyInstance", "FoldedInstance"])
def test_instance_fields_stay_removed(cls):
    params = inspect.signature(
        getattr(importlib.import_module("robustlift.instances"), cls)).parameters
    assert set(params).isdisjoint(_REMOVED_FIELDS)
    assert not [name for name in params if name.startswith("_")]


# the window chain: lifting a step and stacking a window happen in one
# function, so a change to how windows are built has one place to go
_WINDOW_CHAIN = ("build_lifted_step", "assemble_horizon")


def _calls(node, where=()):
    """(enclosing function path, called name) for each call under node."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = where + (child.name,)
        if isinstance(child, ast.Call):
            func = child.func
            yield where, (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
        yield from _calls(child, inner)


def test_window_chain_is_composed_once():
    callers = set()
    for name in MODULES:
        module = importlib.import_module(f"robustlift.{name}")
        tree = ast.parse(inspect.getsource(module))
        callers |= {(name, ".".join(where)) for where, called in _calls(tree)
                    if called in _WINDOW_CHAIN}
    assert callers == {("horizon", "lift_window")}


def test_surrogate_step_is_defined_once():
    # the surrogates are applied in one place, which trajectories, the
    # FFT expansion and the MultiPoly composition all run through
    callers = set()
    for name in MODULES:
        module = importlib.import_module(f"robustlift.{name}")
        tree = ast.parse(inspect.getsource(module))
        callers |= {(name, ".".join(where)) for where, called in _calls(tree)
                    if called in ("p_s", "p_c")}
    assert callers == {("dynamics", "_attack_substep")}


def test_import_leaves_optional_scipy_modules_unloaded(pinned_child):
    # scipy.special serves only the sign designer and scipy.io only the
    # Matrix Market export; each is imported where it is used
    out = pinned_child("import sys, robustlift; "
                       "print(sorted({'scipy.special', 'scipy.io'} & set(sys.modules)))")
    assert out.strip() == "[]"


_SHIPPED_CERTIFICATES = """
import sys
from robustlift import instances
from robustlift.readout import run_pipeline_certificate
run_pipeline_certificate(instances.certify_instance(50), 0.05)
run_pipeline_certificate(instances.folded_demo_instance(6), 0.3, mode="state")
print(sorted({"scipy.linalg", "scipy.sparse.linalg"} & set(sys.modules)))
"""


def test_certificates_leave_scipy_linalg_unloaded(pinned_child):
    # either module costs over 0.1 s of import time, which the measured
    # kappa (a Lanczos run in numpy) does not need
    assert pinned_child(_SHIPPED_CERTIFICATES).strip() == "[]"
