"""Every name a tsmamba module exports in `__all__` exists, so a star import
works and a deleted name cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import tsmamba

MODULES = sorted(f"tsmamba.{m.name}" for m in pkgutil.iter_modules(tsmamba.__path__))


def test_modules_found():
    assert {"tsmamba.discontinuity", "tsmamba.scanorder", "tsmamba.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
