"""The benchmark's child process (perfbench/child.py) binds package names by
string.  These tests load it read-only and check that every name it wraps
still resolves, that its kernel table runs, and that a traced run of each
workload's smoke operation exits cleanly and reaches the layers it times, so
a rename that would break the benchmark fails here."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(module)  # child.py puts the checkout's src/ on sys.path
    finally:
        sys.path[:] = saved_path
    return module


@pytest.fixture(scope="module")
def child():
    return _load("perfbench_child", CHILD)


def test_trace_targets_resolve(child):
    for name, (module_name, path) in child.TRACE_TARGETS.items():
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr)
        assert callable(target), name


def test_kernel_table_runs(child):
    table = child.kernel_table(1e-3)
    assert table and all(math.isfinite(us) and us > 0 for us in table.values())


_WORKLOADS = _load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.mark.parametrize("workload", _WORKLOADS.WORKLOADS)
def test_traced_smoke_operation_reaches_its_layers(tmp_path, workload):
    spec = {"argvs": _WORKLOADS.operation(workload, 0, smoke=True)}
    result = subprocess.run(
        [sys.executable, str(CHILD), "trace", json.dumps(spec)], cwd=tmp_path,
        env={**os.environ, "FASTSIGNAL_OUTPUT_ROOT": str(tmp_path)},
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout.strip().splitlines()[-1])
    assert traced["exit_code"] == 0
    calls = {name: stat[0] for name, stat in traced["stats"].items()}
    if workload == "ode_sweep":
        assert calls["ode.integrate"] > 0
    else:
        for name in ("sim_eps.step", "sim_eps.stable_dt", "sim_eps.advance_chemicals",
                     "linsolve.exp_factors"):
            assert calls[name] > 0, name
        # every step's dt is checked against, or set by, a traced bound
        assert calls["sim_eps.stable_dt"] >= calls["sim_eps.step"]
