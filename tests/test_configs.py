"""Every bundled example and every benchmark workload config loads as a RunConfig.

The benchmark builds its configs in `benchmark/workloads.py` and runs them
through the CLI; a schema change that refuses one of them would break the
benchmark with no tier-1 test failing.  This module reads `benchmark/` and
changes nothing there.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gsblab import cli

ROOT = Path(__file__).parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  ROOT / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("path", sorted((ROOT / "examples").glob("*.json")), ids=lambda p: p.name)
def test_example_config_validates(path):
    cli.RunConfig.model_validate(json.loads(path.read_text()))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_benchmark_workload_configs_validate(name, seed):
    invocations = workloads.workload(name, seed)
    assert invocations
    for inv in invocations:
        # the config as the benchmark writes it: through JSON
        cfg = cli.RunConfig.model_validate(json.loads(json.dumps(inv.config)))
        assert cfg.solver.seed == seed
