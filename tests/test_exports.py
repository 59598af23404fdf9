"""Every name a gsblab module exports in __all__ resolves to an attribute, and no
module reads another one's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gsblab

MODULES = ["gsblab"] + [f"gsblab.{m.name}" for m in pkgutil.iter_modules(gsblab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry would break `from <module> import *` and nothing else
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_name_of_another_module(name):
    # a module's underscore names are its own; another module's use of one
    # is a rule that belongs in that module's public interface
    def private(attr):
        return attr.startswith("_") and not attr.endswith("__")

    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
    siblings = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                for alias in node.names}
    reads = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in siblings and private(node.attr)]
    reads += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1
              for alias in node.names if private(alias.name)]
    assert not reads, f"{name} reads private names of other gsblab modules: {reads}"
