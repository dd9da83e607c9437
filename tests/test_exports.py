"""Every declared public name resolves, and the package exports stay declared."""

import importlib
import inspect

import pytest

import wicknlw

MODULES = ("fields", "free_field", "wick", "engine", "dynamics", "gibbs",
           "experiments", "reporting", "cli")


@pytest.mark.parametrize("mod", MODULES)
def test_module_all_resolves(mod):
    module = importlib.import_module(f"wicknlw.{mod}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_star_import_and_package_exports_are_declared():
    namespace = {}
    exec("from wicknlw import *", namespace)
    declared = set().union(*(importlib.import_module(f"wicknlw.{m}").__all__
                             for m in MODULES))
    exported = {name for name, obj in vars(wicknlw).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported <= set(namespace)
    assert sorted(exported - declared) == []
