"""Record the reference outputs that runs at the reference seed are compared with.

usage: python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one operation per workload (all by default) at workloads.REFERENCE_SEED
and writes perfbench/reference/<workload>.json.  Re-record only when the
workload definition changes, never to make a failing check pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def record(workload: str) -> None:
    run.TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.TMP_DIR))
    try:
        r = run.Runner(workload, workloads.REFERENCE_SEED, False, tmp)
        res = r.spawn("run", {"argvs": r.argvs}, tmp)
        if res["code"] != 0:
            raise SystemExit(f"{workload}: exit {res['code']}: {res['stderr_tail']}")
        summary = check.summarize(workload, tmp / "out", res["stdout"])
        problems = check.invariants(workload, summary)
        if problems:
            raise SystemExit(f"{workload}: invariants fail: {problems}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    path = check.REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": workloads.REFERENCE_SEED, "argvs": r.argvs,
                                "summary": summary}, indent=1) + "\n")
    print(f"recorded {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
