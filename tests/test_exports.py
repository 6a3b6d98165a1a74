"""Every name a module exports exists: a public name removed from a module
must leave its ``__all__`` too."""

import importlib
import pkgutil

import pytest

import mddkit

MODULES = ["mddkit"] + [f"mddkit.{info.name}" for info in pkgutil.iter_modules(mddkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
