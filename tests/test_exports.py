"""Every name a gsblab module exports in __all__ resolves to an attribute."""

import importlib
import pkgutil

import pytest

import gsblab

MODULES = ["gsblab"] + [f"gsblab.{m.name}" for m in pkgutil.iter_modules(gsblab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry would break `from <module> import *` and nothing else
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
