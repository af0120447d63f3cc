"""The benchmark's use of the steerkit API, run on a few of its own inputs.

perfbench/workloads.py calls steerkit's functions by name and reads the
fields of their results; a refactor that renames one breaks the benchmark
before any timing starts.  This test imports the workloads module from its
file, unchanged, and runs each workload's operation and output check on
the first inputs of seed 1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1
OPERATIONS = 8


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module by name while the class body runs
    sys.modules[spec.name] = module
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file in the benchmark's directory
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["reproduce", "predict", "lhs"])
def test_workload_operates_and_checks(workloads, name):
    workload = workloads.WORKLOADS[name]
    for x in workload.inputs(SEED)[:OPERATIONS]:
        workload.check(x, workload.operate(x))
