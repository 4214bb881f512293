"""The public surface: every exported name resolves, and none repeats."""

import importlib
import pkgutil

import pytest

import cfcontrol

MODULES = ["cfcontrol"] + sorted(
    f"cfcontrol.{info.name}" for info in pkgutil.iter_modules(cfcontrol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_and_do_not_repeat(name):
    # a name deleted from a module but left in an __all__ fails here
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
