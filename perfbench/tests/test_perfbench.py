"""Tests of the benchmark itself.

A smoke-sized run of every workload must emit exactly the metrics that
BENCHMARK.json names, and the output check must reject a perturbed reference.

usage: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


@pytest.fixture(scope="module")
def smoke_summaries(tmp_path_factory):
    """Output summary of one smoke-sized operation per workload."""
    summaries = {}
    for workload in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        r = run.Runner(workload, 5, True, workdir)
        res = r.spawn("run", {"argvs": r.argvs}, workdir)
        assert res["code"] == 0, res["stderr_tail"]
        summaries[workload] = check.summarize(workload, workdir / "out", res["stdout"])
    return summaries


def _perturbed(workload: str, s: dict) -> list[dict]:
    """Copies of a summary, each with one result moved just past its tolerance."""
    out = []
    if workload == "rate_study":
        slope = copy.deepcopy(s)
        slope["slopes"]["err_u1"] = f"{float(s['slopes']['err_u1']) + 0.001:.3f}"
        value = copy.deepcopy(s)
        value["table"][-1][1] *= 1.0 + 2 * check.RATE_REPORT_RTOL
        out += [slope, value]
    elif workload == "simulate_eps":
        snap = copy.deepcopy(s)
        col = snap["final_snapshot"]["v3"]
        col[len(col) // 2] += 2 * check.SNAPSHOT_RTOL * max(abs(x) for x in col)
        out.append(snap)
    elif workload == "ode_sweep":
        pp = copy.deepcopy(s)
        pp["pp"][-1][1] = "coexistence"
        pop3 = copy.deepcopy(s)
        pop3["3pop"][0][1] = not pop3["3pop"][0][1]
        out += [pp, pop3]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_accepts_matching_and_rejects_perturbed_reference(workload, smoke_summaries):
    for s in (smoke_summaries[workload], check.load_reference(workload)["summary"]):
        assert check.invariants(workload, s) == []
        assert check.compare(workload, s, s) == []
        for ref in _perturbed(workload, s):
            assert check.compare(workload, s, ref), ref


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_invariants_reject_broken_outputs(workload, smoke_summaries):
    s = copy.deepcopy(smoke_summaries[workload])
    if workload == "rate_study":
        s["slopes"]["err_u3"] = "1.200"
    elif workload == "simulate_eps":
        s["max_mass_balance_residual"] = 1e-6
        s["clipped_mass_fraction"][1] = 1e-12
    else:
        s["pp"][0][1] = "oscillation"
    assert check.invariants(workload, s)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_committed_reference_matches_workload(workload):
    ref = check.load_reference(workload)
    assert ref["seed"] == workloads.REFERENCE_SEED
    assert ref["argvs"] == workloads.operation(workload, workloads.REFERENCE_SEED)
    assert check.invariants(workload, ref["summary"]) == []


def test_setup_probe_stops_before_the_first_step(tmp_path):
    r = run.Runner("simulate_eps", 5, True, tmp_path)
    res = r.spawn("setup", {"argvs": r.argvs}, tmp_path)
    assert res["code"] == 0, res["stderr_tail"]
    reached = json.loads(res["stdout"].splitlines()[-1])["first_step_monotonic"]
    assert res["start"] < reached < res["start"] + res["wall_s"]
    assert not (tmp_path / "out").exists()  # no outputs: the run never finished
