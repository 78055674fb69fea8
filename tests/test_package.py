"""Package surface: each module's `__all__` names what the module holds.

Callers that walk `__all__` with `getattr` (the layer tracer of the
benchmark does, once per traced run) break on a stale entry.  A name
with a leading underscore (dunders aside) stays inside its module.
"""

import ast
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
