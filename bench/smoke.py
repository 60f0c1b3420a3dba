#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

For each workload BENCHMARK.json names, it runs one op at the smallest
rung (one solve + verify pair on cli-demo) once untraced and twice
traced.  It asserts that each run prints a well-formed last line with no
failed op, that every metric BENCHMARK.json names appears with its unit,
and that every count of the trace (calls, points, columns, cells, caps)
repeats exactly across the two traced runs.  Exits non-zero on the first
failure; takes about a minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}: "
                             f"{out.stderr.strip()[-400:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        failures = [line for line in out.stdout.splitlines() if line.startswith("# failed")]
        raise AssertionError(f"{workload} trace={trace}: {result['failed']} of "
                             f"{result['attempted']} ops failed {failures}")
    return result["metrics"]


def check_names(workload: str, metrics: dict, spec: list) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        raise AssertionError(f"{workload}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number: {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in (w["name"] for w in spec["workloads"]):
        check_names(workload, run(workload, 0), spec["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        check_names(workload, first, spec["per_layer"])
        differ = {name: (first[name]["value"], second[name]["value"]) for name in counts
                  if first[name]["value"] != second[name]["value"]}
        if differ:
            raise AssertionError(f"{workload}: counts differ between traced runs {differ}")
        shown = {name.split(".", 1)[1]: first[name]["value"] for name in
                 ("data.f_calls", "goursat.cvec_calls", "specfun.rescue_calls")}
        print(f"ok  {workload:16s} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
