"""Package surface: each module's `__all__` names what the module holds.

Callers that walk `__all__` with `getattr` (the layer tracer of the
benchmark does, once per traced run) break on a stale entry.
"""

import importlib
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
