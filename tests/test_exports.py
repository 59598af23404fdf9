"""Every name a gsblab module exports in __all__ resolves to an attribute, the
package exports exactly its layers' lists, no module reads another one's
private names, no function takes a parameter it never reads, and importing
the package pins one BLAS thread unless a count is set."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gsblab

# the numeric layers the package re-exports, in order
LAYERS = ["modes", "fock", "model", "spectral", "regularity"]
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


@pytest.mark.parametrize("name", MODULES)
def test_every_parameter_is_read(name):
    # a parameter the body never reads does nothing but widen the signature;
    # self and cls are bound by the call, not chosen by the caller
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        reads = {node.id for stmt in body for node in ast.walk(stmt)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        args = fn.args
        params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if p is not None]
        unread += [f"{getattr(fn, 'name', '<lambda>')}.{p}" for p in params
                   if p not in reads and p not in ("self", "cls")]
    assert not unread, f"{name} has parameters that are never read: {unread}"


def test_package_exports_each_layer_all():
    # the package keeps no list of its own: each name is listed once, in the
    # layer that defines it, and the package holds that very object
    layers = [importlib.import_module(f"gsblab.{layer}") for layer in LAYERS]
    names = [attr for module in layers for attr in module.__all__]
    assert gsblab.__all__ == names
    assert len(set(names)) == len(names)
    for module in layers:
        for attr in module.__all__:
            obj = getattr(module, attr)
            assert getattr(gsblab, attr) is obj
            assert obj.__module__ == module.__name__, f"{module.__name__}.{attr}"


def test_readme_python_api_snippet_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    energy, w_top, pull_err, dgamma = capsys.readouterr().out.split()
    assert abs(float(energy) + 0.85658) < 1e-4
    assert float(w_top) < 1e-8
    assert float(pull_err) < 1e-4
    assert float(dgamma) > 0


BLAS_THREADS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]


def fresh_python(code: str, preset=None) -> list:
    """The words code prints in a fresh interpreter that imports gsblab from this
    tree, with no BLAS thread count set but those in preset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(gsblab.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **(preset or {})},
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


@pytest.mark.parametrize("preset, want", [({}, ["1", "1", "1"]),
                                          ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])])
def test_import_pins_one_blas_thread_unless_set(preset, want):
    # a fresh interpreter: BLAS reads these once, when numpy is first imported
    code = f"import os, gsblab; print(*(os.environ[n] for n in {BLAS_THREADS}))"
    assert fresh_python(code, preset) == want


def test_cli_import_loads_no_unused_scipy_subpackage():
    # every run pays the CLI's import (the benchmark's setup_s); importing
    # scipy.sparse.csgraph alone takes tens of milliseconds
    unused = ["scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.stats", "scipy.io"]
    assert fresh_python(f"import sys, gsblab.cli; print(*(m for m in {unused} "
                        "if m in sys.modules))") == []
