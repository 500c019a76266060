"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import diffpos

MODULES = sorted(f"diffpos.{m.name}" for m in pkgutil.iter_modules(diffpos.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
