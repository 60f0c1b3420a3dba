#!/usr/bin/env python3
"""Print the solve-ladder table of ROADMAP.md ("State") from one command.

    python3 bench/state_table.py

Runs the unforced-ladder and forced-ladder workloads untraced (seed 1,
15 seconds each) and prints, per rung, the median solve and verify times
with their sample counts, then the accuracy figures of each ladder's top
rung beside them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUNGS = (("n32", "32/128"), ("n64", "64/256"), ("n128", "128/512"))
SEED = 1
SECONDS = 15


def detail(workload: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    if not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{workload}: ops failed their checks\n{out.stdout}")
    return json.loads(next(line for line in lines if line.startswith("# detail "))[9:])


def main() -> int:
    ladders = {"no forcing": detail("unforced-ladder"),
               "with forcing": detail("forced-ladder")}
    print("| n_t = n_x / quad points | " + " | ".join(label for _, label in RUNGS) + " |")
    print("|---" * (len(RUNGS) + 1) + "|")
    for stage in ("solve_s", "verify_s"):
        for name, d in ladders.items():
            cells = []
            for kind, _ in RUNGS:
                rung = d["rungs"].get(kind)
                cells.append(f"{rung[stage]:.3g} s (n={rung['n']})" if rung else "—")
            print(f"| `{stage[:-2]}`, {name} | " + " | ".join(cells) + " |")
    for name, d in ladders.items():
        acc = d["accuracy"]
        print(f"- {name}, top rung: max |u_top - u_prev| = {acc['u_selfdiff']:.2e}, "
              f"verify pde = {acc['pde_residual']:.2e}, "
              f"nonlocal = {acc['nonlocal_defect']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
