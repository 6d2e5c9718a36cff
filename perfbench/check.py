"""Output checks for one benchmark operation.

``summarize`` reads an operation's output directory into a small dict.  Every
run is checked with ``invariants``, which hold for any seed; a run at the
reference seed is also compared with the summary recorded in ``reference/``.
Step counts and timings are never checked, so a change that takes larger or
batched steps and keeps the results passes.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Stated tolerances for the reference comparison.
RATE_REPORT_RTOL = 1e-3  # per value of rate_report.csv
SNAPSHOT_RTOL = 1e-6  # per column, relative to the column's largest magnitude

# criterion-1 components and window of the on-manifold rate
RATE_COMPONENTS = ("err_u1", "err_u2", "err_u3", "err_v3_h1")
RATE_WINDOW = 0.15

MAX_BALANCE_RESIDUAL = 1e-8
SNAPSHOT_COUNT = 64  # the CLI's default output_count

# Regime edges of the m1 sweeps observed by acceptance criterion 9 on its
# 25-point grid; a value between two edges may fall in either neighbour.
PP_EXTINCTION_MAX = 0.23125
PP_COEXISTENCE = (0.2917, 0.4729)
PP_OSCILLATION_MIN = 0.5333
POP3_SURVIVAL_MAX = 0.5333
POP3_U2_EXTINCT_MIN = 0.59375


def summarize(workload: str, outdir: Path, stdout: str) -> dict:
    """The checked facts of one operation's outputs."""
    if workload == "rate_study":
        return _summarize_rate_study(outdir / "rate_study", stdout)
    if workload == "simulate_eps":
        return _summarize_simulate_eps(outdir / "simulate_eps")
    if workload == "ode_sweep":
        return {"pp": _pp_regimes(outdir / "ode_pp" / "branch.csv"),
                "3pop": _u2_extinct(outdir / "ode_3pop" / "branch.csv")}
    raise ValueError(f"unknown workload {workload!r}")


def _summarize_rate_study(out: Path, stdout: str) -> dict:
    match = re.search(r"status=ok cmd=rate-study (.*) outdir=", stdout)
    slopes = dict(tok.split("=", 1) for tok in match.group(1).split()) if match else {}
    with open(out / "rate_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    columns = [c for c in rows[0] if c != "eps_in"]
    table = [[float(r[i]) for i, c in enumerate(rows[0]) if c != "eps_in"] for r in rows[1:]]
    return {"slopes": slopes, "columns": columns, "table": table}


def _read_snapshot(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[j]) for r in rows[1:]] for j, name in enumerate(rows[0])}


def _summarize_simulate_eps(out: Path) -> dict:
    summary = dict(
        (k.strip(), v.strip())
        for k, v in (line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())
    )
    snapshots = sorted(out.glob("t*_*.csv"), key=lambda f: int(f.name[1:].split("_")[0]))
    species_min = math.inf
    finite = True
    for snap in snapshots:
        data = _read_snapshot(snap)
        finite = finite and all(math.isfinite(x) for col in data.values() for x in col)
        species_min = min(species_min, *(min(data[c]) for c in ("u1", "u2", "u3")))
    return {
        "max_mass_balance_residual": float(summary["max_mass_balance_residual"]),
        "clipped_mass_fraction": [float(f) for f in summary["clipped_mass_fraction"].split(",")],
        "snapshot_count": len(snapshots),
        "finite": finite,
        "species_min": species_min,
        "final_snapshot": _read_snapshot(snapshots[-1]) if snapshots else {},
    }


def _branch_rows(path: Path) -> dict[float, list[dict]]:
    by_value: dict[float, list[dict]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            row = {k: float(v) for k, v in row.items()}
            by_value.setdefault(row["param"], []).append(row)
    return by_value


def _pp_regimes(path: Path) -> list[list]:
    """[m1, regime] per swept value, classified as in acceptance criterion 9."""
    regimes = []
    for value, rows in sorted(_branch_rows(path).items()):
        stable = [r for r in rows if r["stable"]]
        if any(r["oscillating"] for r in rows):
            regime = "oscillation"
        elif any(min(r["u1"], r["u3"]) > 1e-6 for r in stable):
            regime = "coexistence"
        elif stable:
            regime = "extinction"
        else:
            regime = "none"
        regimes.append([value, regime])
    return regimes


def _u2_extinct(path: Path) -> list[list]:
    """[m1, whether a stable state with u2 extinct and u3 alive exists]."""
    return [
        [value, any(r["stable"] and r["u2"] <= 1e-6 and r["u3"] > 1e-6 for r in rows)]
        for value, rows in sorted(_branch_rows(path).items())
    ]


def invariants(workload: str, s: dict) -> list[str]:
    """Seed-independent properties of a correct operation; [] when all hold."""
    bad = []
    if workload == "rate_study":
        for name in RATE_COMPONENTS:
            if name not in s["slopes"]:
                bad.append(f"no fitted slope for {name}")
            elif abs(float(s["slopes"][name]) - 1.0) > RATE_WINDOW:
                bad.append(f"slope {name}={s['slopes'][name]} outside 1 +- {RATE_WINDOW}")
        for j, name in enumerate(s["columns"][1:], start=1):
            col = [row[j] for row in s["table"]]
            if not all(math.isfinite(x) and x > 0 for x in col):
                bad.append(f"{name} has non-positive or non-finite errors")
            elif any(b >= a for a, b in zip(col, col[1:])):
                bad.append(f"{name} does not decrease with eps")
    elif workload == "simulate_eps":
        if not s["max_mass_balance_residual"] <= MAX_BALANCE_RESIDUAL:
            bad.append(f"mass-balance residual {s['max_mass_balance_residual']:.3e} "
                       f"> {MAX_BALANCE_RESIDUAL:g}")
        if any(f != 0.0 for f in s["clipped_mass_fraction"]):
            bad.append(f"clipped mass {s['clipped_mass_fraction']}")
        if s["snapshot_count"] != SNAPSHOT_COUNT:
            bad.append(f"{s['snapshot_count']} snapshots, expected {SNAPSHOT_COUNT}")
        if not s["finite"]:
            bad.append("non-finite snapshot values")
        if not s["species_min"] >= 0.0:
            bad.append(f"negative species density {s['species_min']:.3e}")
    elif workload == "ode_sweep":
        for value, regime in s["pp"]:
            allowed = _pp_allowed(value)
            if regime not in allowed:
                bad.append(f"pp m1={value:.6g}: {regime}, expected one of {sorted(allowed)}")
        for value, extinct in s["3pop"]:
            if value <= POP3_SURVIVAL_MAX and extinct:
                bad.append(f"3pop m1={value:.6g}: u2 extinct below {POP3_SURVIVAL_MAX}")
            if value >= POP3_U2_EXTINCT_MIN and not extinct:
                bad.append(f"3pop m1={value:.6g}: u2 survives above {POP3_U2_EXTINCT_MIN}")
    return bad


def _pp_allowed(m1: float) -> set[str]:
    if m1 <= PP_EXTINCTION_MAX:
        return {"extinction"}
    if m1 < PP_COEXISTENCE[0]:
        return {"extinction", "coexistence"}
    if m1 <= PP_COEXISTENCE[1]:
        return {"coexistence"}
    if m1 < PP_OSCILLATION_MIN:
        return {"coexistence", "oscillation"}
    return {"oscillation"}


def compare(workload: str, s: dict, ref: dict) -> list[str]:
    """Differences from the reference summary beyond the stated tolerances."""
    bad = []
    if workload == "rate_study":
        if s["slopes"] != ref["slopes"]:
            bad.append(f"slopes {s['slopes']} differ from reference {ref['slopes']}")
        if s["columns"] != ref["columns"] or len(s["table"]) != len(ref["table"]):
            return bad + ["rate_report.csv layout differs from reference"]
        for row, ref_row in zip(s["table"], ref["table"]):
            for name, x, r in zip(s["columns"], row, ref_row):
                if abs(x - r) > RATE_REPORT_RTOL * abs(r):
                    bad.append(f"rate_report {name}: {x!r} vs reference {r!r}")
    elif workload == "simulate_eps":
        final, ref_final = s["final_snapshot"], ref["final_snapshot"]
        if final.keys() != ref_final.keys():
            return ["final snapshot columns differ from reference"]
        for name, ref_col in ref_final.items():
            col = final[name]
            scale = max(abs(x) for x in ref_col)
            if len(col) != len(ref_col) or any(
                abs(x - r) > SNAPSHOT_RTOL * scale for x, r in zip(col, ref_col)
            ):
                bad.append(f"final snapshot {name} differs from reference beyond "
                           f"{SNAPSHOT_RTOL:g} relative")
    elif workload == "ode_sweep":
        for part in ("pp", "3pop"):
            if s[part] != ref[part]:
                bad.append(f"{part} regimes differ from reference")
    return bad


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
