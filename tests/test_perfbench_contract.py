"""The benchmark's child process (perfbench/child.py) binds package names by
string.  These tests load it read-only and check that every name it wraps
still resolves and that its kernel table runs, so a rename that would break
the benchmark fails here."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(module)  # puts the checkout's src/ on sys.path
    finally:
        sys.path[:] = saved_path
    return module


def test_trace_targets_resolve(child):
    for name, (module_name, path) in child.TRACE_TARGETS.items():
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr)
        assert callable(target), name


def test_kernel_table_runs(child):
    table = child.kernel_table(1e-3)
    assert table and all(math.isfinite(us) and us > 0 for us in table.values())
