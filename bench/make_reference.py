#!/usr/bin/env python3
"""Rewrite reference.npz, the ladder solutions every ladder op is checked
against.

    python3 bench/make_reference.py

The acceptance smooth problem is linear in its data, so three solves per
rung give the solution for any seeded phi amplitude and forcing scale:
S0 (amplitude 0, no forcing), S1 (amplitude 1, no forcing) and S2
(amplitude 0, forcing scale 1).  Each is stored on the 33 x 33 nodes that
every rung shares.  The solution of the demo CLI config is stored whole.
Only rewrite the file when a change to the solver is meant to move its
numbers, and say so where the change is described.
"""

from __future__ import annotations

import numpy as np

import workloads
from prabtel import cli
from prabtel.fracops import QuadPolicy

CASES = {"S0": (0.0, None), "S1": (1.0, None), "S2": (0.0, 1.0)}


def main() -> None:
    arrays = {}
    for n, q in workloads.UNFORCED_RUNGS:
        for name, (amp, scale) in CASES.items():
            if scale is not None and (n, q) not in workloads.FORCED_RUNGS:
                continue
            problem, _ = workloads.smooth_problem(amp, scale)
            sol = workloads.problem_mod.solve(problem, n_t=n, n_x=n,
                                              quad=QuadPolicy(n_points=q))
            k = n // 32
            arrays[f"n{n}.{name}"] = sol.u[::k, ::k]
    cfg = cli.load_config(str(workloads.DEMO_CONFIG))
    sol = workloads.problem_mod.solve(cfg["problem"], n_t=cfg["n_t"], n_x=cfg["n_x"],
                                      quad=cfg["quad"], series=cfg["series"],
                                      strict=cfg["strict"])
    arrays["cli.u"] = sol.u
    np.savez(workloads.REFERENCE, **arrays)
    print(f"wrote {workloads.REFERENCE.name}: {sorted(arrays)}")


if __name__ == "__main__":
    main()
