"""Workloads: one seed gives the fastsignal CLI argument lists of one operation.

Each workload is one user-visible CLI operation.  The seed draws only config
values that change the numbers, not the amount of work, so that runs with
different seeds time the same work and the output invariants in ``check.py``
hold for every seed:

* rate_study   -- the eps list of an on-manifold rate study.  The fixed step
  schedule comes from the initial data, which does not depend on eps.
* simulate_eps -- the relaxation parameter eps of one adaptive-dt run; the
  step bound is set by diffusion, not by eps.
* ode_sweep    -- small shifts of the sweep endpoints that keep the same
  swept values past the Hopf point, so the number of long DP54 integrations
  is fixed.
"""

from __future__ import annotations

import random

WORKLOADS = ("rate_study", "simulate_eps", "ode_sweep")

# The committed reference outputs in reference/ were recorded at this seed.
REFERENCE_SEED = 0


def operation(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """CLI argument lists run back to back, in one interpreter, as one operation.

    ``smoke`` shrinks the problem so the benchmark's own tests run in seconds.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rate_study":
        eps = [10.0 ** rng.uniform(-2.15, -1.85)]
        for _ in range(3):
            # ratios near 10 keep the smallest eps error above the fit floor
            eps.append(eps[-1] / 10.0 ** rng.uniform(0.9, 1.1))
        n, T = ("16", "0.1") if smoke else ("64", "0.5")
        return [["rate-study", "--gamma", "on_manifold", "--n", n, "--T", T,
                 "--eps_list", ",".join(f"{e:.4g}" for e in eps),
                 "--outdir", "rate_study"]]
    if workload == "simulate_eps":
        eps = 10.0 ** rng.uniform(-4.0, -2.0)
        size = ["--n", "32", "--T", "0.01"] if smoke else ["--T", "0.2"]
        return [["simulate-eps", "--eps", f"{eps:.4g}", *size,
                 "--outdir", "simulate_eps"]]
    if workload == "ode_sweep":
        # pp values sit 0.125 apart from 0.05 + shift: two extinction, two
        # coexistence (or the gap below it) and, past m1 = 0.5333, oscillating
        # values that each need one long integration
        shift = rng.uniform(-0.015, 0.02)
        pp_max, pp_count = (0.55, 3) if smoke else (0.675, 6)
        shift3 = rng.uniform(-0.02, 0.02)
        count3 = 4 if smoke else 24
        return [
            ["ode-bifurcation", "--ode_model", "pp", "--eta1", "0.2", "--eta2", "0.2",
             "--sweep_min", f"{0.05 + shift:.6f}", "--sweep_max", f"{pp_max + shift:.6f}",
             "--sweep_count", str(pp_count), "--outdir", "ode_pp"],
            ["ode-bifurcation", "--ode_model", "3pop", "--eta2", "0.05",
             "--sweep_min", f"{0.05 + shift3:.6f}", "--sweep_max", f"{1.5 + shift3:.6f}",
             "--sweep_count", str(count3), "--outdir", "ode_3pop"],
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
