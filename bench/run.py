#!/usr/bin/env python3
"""Benchmark of prabtel: the solve ladder, the series core and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed loop: a single caller issues one op at a time (CLI ops run as
one child process at a time).  Ops run in passes, each pass runs every op
of the workload once in an order shuffled by the seed, and passes repeat
until S seconds have gone by and at least three passes are done.  Every
op's output is checked before its time counts.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
lines before it start with '#' and carry the detail (sample counts,
per-rung times, environment).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, reports the per-layer metrics derived from the spans of
the traced passes and writes those spans to .bench_out/ in the checkout.
--smoke runs one op per workload at the smallest rung (see smoke.py).

See README.md in this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

# One BLAS thread for this process and every child: on the small matrices
# of the series core a second thread only adds contention (on a 2-CPU
# machine it made the unforced 128/512 solve about 20% slower).
# PRABHAKAR_THREADS is dropped so the package default of one row worker holds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PRABHAKAR_THREADS", None)

import workloads  # noqa: E402  (reads the environment set above)
from tracer import OP_PREFIX, Tracer  # noqa: E402
from workloads import BENCH_DIR, ROOT, kind_medians, median  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
# so a per-op median never rests on two samples, one of which may be the
# pass that filled mpmath's caches
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "large_op_s": "s",
    "small_op_s": "s",
    "accuracy_err": "rel",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span, field).  A count or time is the field
# summed over the traced passes and divided by their number; "share" is the
# span's inclusive time over the time of the workload's large op (of the
# whole pass when the workload has no large op kind); an integer picks one
# of the series caps (m, j, k) of the engine builds.  Metrics without a
# span are derived in per_layer().
PER_LAYER = {
    "goursat.cvec_calls": ("count", "goursat.cvec", "calls"),
    "goursat.cvec_cols": ("count", "goursat.cvec", "work"),
    "goursat.cvec_s": ("s", "goursat.cvec", "self_s"),
    "goursat.cvec_share": ("fraction", "goursat.cvec", "share"),
    "goursat.grid_s": ("s", "goursat.grid", "self_s"),
    "goursat.engine_builds": ("count", "goursat.engine", "calls"),
    "goursat.engine_s": ("s", "goursat.engine", "self_s"),
    "goursat.m_cap": ("count", "goursat.engine", 0),
    "goursat.j_cap": ("count", "goursat.engine", 1),
    "goursat.k_cap": ("count", "goursat.engine", 2),
    "goursat.forcing_row_calls": ("count", "goursat.forcing_row", "calls"),
    "goursat.forcing_row_s.assemble": ("s", "goursat.forcing_row.assemble", "self_s"),
    "goursat.forcing_row_s.grid": ("s", "goursat.forcing_row.grid", "self_s"),
    "goursat.forcing_row_share": ("fraction", "goursat.forcing_row", "share"),
    "volterra.assemble_s": ("s", "volterra.assemble", "self_s"),
    "volterra.solve_tau_s": ("s", "volterra.solve_tau", "self_s"),
    "quadrature.build_rule_calls": ("count", "quadrature.build_rule", "calls"),
    "quadrature.build_rule_cells": ("count", "quadrature.build_rule", "work"),
    "quadrature.build_rule_s": ("s", "quadrature.build_rule", "self_s"),
    "fracops.kernel_moments_calls": ("count", "fracops.kernel_moments", "calls"),
    "fracops.kernel_moments_s": ("s", "fracops.kernel_moments", "self_s"),
    "problem.solve_s": ("s", "problem.solve", "self_s"),
    "problem.verify_s": ("s", "problem.verify", "self_s"),
    "problem.compat_calls": ("count", "problem.compat", "calls"),
    "problem.compat_s": ("s", "problem.compat", "self_s"),
    "data.f_calls": ("count", "data.f", "calls"),
    "data.f_points": ("count", "data.f", "work"),
    "data.phi_calls": ("count", "data.phi", "calls"),
    "data.phi_points": ("count", "data.phi", "work"),
    "data.M_calls": ("count", "data.M", "calls"),
    "data.M_points": ("count", "data.M", "work"),
    "specfun.ml2_calls": ("count", "specfun.ml2", "calls"),
    "specfun.ml3_calls": ("count", "specfun.ml3", "calls"),
    "specfun.ml2_s": ("s", "specfun.ml2", "self_s"),
    "specfun.ml3_s": ("s", "specfun.ml3", "self_s"),
    "specfun.rescue_calls": ("count", "specfun.rescue", "calls"),
    "specfun.rescue_s": ("s", "specfun.rescue", "self_s"),
    "specfun.rescue_share": ("fraction", "specfun.rescue", "share"),
    "cli.import_s": ("s", None, None),
    "cli.import_share": ("fraction", None, None),
    "cli.load_config_s": ("s", "cli.load_config", "self_s"),
    "cli.write_s": ("s", "cli.write", "self_s"),
    "cli.read_csv_s": ("s", "cli.read_csv", "self_s"),
    "expr.calls": ("count", "expr.eval", "calls"),
    "expr.points": ("count", "expr.eval", "work"),
    "expr.eval_s": ("s", "expr.eval", "self_s"),
    "trace.overhead_s": ("s", None, None),
}

_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
          "workloads.make(sys.argv[2], int(sys.argv[3])).setup()")


@dataclass
class Pass:
    traced: bool
    ops: list


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload at the smallest rung, one set-up probe")
    return parser.parse_args(argv)


def time_setup(name, seed, count):
    """Wall clock of fresh interpreters doing the workload's set-up."""
    if name == "cli-demo":
        cmd = [sys.executable, "-c", "import prabtel"]
    else:
        cmd = [sys.executable, "-c", _PROBE, str(BENCH_DIR), name, str(seed)]
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(),
                             capture_output=True, text=True,
                             timeout=workloads.CHILD_TIMEOUT_S)
        samples.append(perf_counter() - t0)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-400:]}")
    return samples


def run_passes(wl, seconds, seed, tracer):
    rng = random.Random(f"{seed}:order")
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(wl.ops)
        if wl.shuffle:
            rng.shuffle(order)
        ops = []
        if traced:
            tracer.install(wl.data_fns)
        try:
            for kind in order:
                with tracer.op(kind) if traced else contextlib.nullcontext():
                    ops.append(wl.run_op(kind, tracer is not None))
        finally:
            if traced:
                tracer.uninstall()
        passes.append(Pass(traced, ops))
        if perf_counter() - start >= seconds and len(passes) >= MIN_PASSES:
            return passes


def environment():
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        head = out.stdout.strip() or head
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "git_head": head,
            "PRABHAKAR_THREADS": os.environ.get("PRABHAKAR_THREADS", "unset")}


def end_to_end(wl, name, setup, passes, ops):
    large, small, counts = wl.op_seconds([op for op in ops if op.ok])
    acc, acc_detail = wl.accuracy()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli-demo"
                               else resource.RUSAGE_SELF)
    values = {"setup_s": (median(setup), len(setup)),
              "pass_s": (sum(kind_medians(ops).values()), len(passes)),
              "large_op_s": (large, counts[0]),
              "small_op_s": (small, counts[1]),
              "accuracy_err": (acc, 1),
              "peak_rss_mb": (usage.ru_maxrss / 1024.0, 1)}
    return values, acc_detail


def per_layer(wl, name, tracer, setup, passes):
    n = max(1, sum(p.traced for p in passes))
    totals = tracer.totals()
    scoped = tracer.totals({i for i, kind in enumerate(tracer.op_kinds)
                            if wl.large is None or kind == wl.large})
    op_time = sum(v["incl_s"] for k, v in scoped.items() if k.startswith(OP_PREFIX))
    values = {}
    for metric, (_, span, field) in PER_LAYER.items():
        if field == "share":
            values[metric] = scoped[span]["incl_s"] / op_time if op_time else 0.0
        elif isinstance(field, int):
            values[metric] = totals[span]["caps"][field]
        elif span is not None:
            values[metric] = totals[span][field] / n
    values["cli.import_s"] = values["cli.import_share"] = 0.0
    if name == "cli-demo":
        # untraced passes of a trace run also call cli.main in-process, so
        # a child's solve costs the import plus one of these
        solves = [op.seconds for p in passes if not p.traced
                  for op in p.ops if op.kind == "solve" and op.ok]
        values["cli.import_s"] = median(setup)
        values["cli.import_share"] = median(setup) / (median(setup) + median(solves))
    # wrapped calls per traced pass times the cost of one, not traced minus
    # untraced pass time, which the host's drift swamps on long passes
    calls = sum(not s[0].startswith(OP_PREFIX) for s in tracer.spans) / n
    values["trace.overhead_s"] = calls * tracer.call_cost()
    return {k: (v, n) for k, v in values.items()}


def breakdown(tracer):
    """Per op kind: op count, median op time, calls per op and share of the
    op time of every span name."""
    groups = {}
    for i, kind in enumerate(tracer.op_kinds):
        groups.setdefault(kind.split(":")[0], set()).add(i)
    out = {}
    for group, ids in groups.items():
        totals = tracer.totals(ids)
        op_times = [s[2] - s[1] for s in tracer.spans
                    if s[3] == -1 and s[4] in ids]
        total = sum(op_times) or 1.0
        spans = {name: {"calls_per_op": v["calls"] / len(ids),
                        "self_share": v["self_s"] / total,
                        "share": v["incl_s"] / total}
                 for name, v in sorted(totals.items()) if not name.startswith(OP_PREFIX)}
        out[group] = {"ops": len(ids), "median_op_s": median(op_times), "spans": spans}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.make(args.workload, args.seed, args.smoke)
    setup = time_setup(args.workload, args.seed,
                       1 if args.smoke else SETUP_PROBES)
    tracer = Tracer() if args.trace else None
    wl.setup()
    try:
        warm = wl.warmup()
        passes = run_passes(wl, args.seconds, args.seed, tracer)
    finally:
        wl.close()
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in warm + ops if not op.ok]

    print("# env " + json.dumps(environment()))
    for op in failed[:10]:
        print(f"# failed {op.kind}: {op.note}")
    if args.trace:
        values = per_layer(wl, args.workload, tracer, setup, passes)
        units = {metric: unit for metric, (unit, _, _) in PER_LAYER.items()}
        detail = {"absent": tracer.absent, "breakdown": breakdown(tracer)}
        OUT_DIR.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, **detail, **tracer.dump()}
        (OUT_DIR / f"{args.workload}.trace.json").write_text(json.dumps(dump))
    else:
        values, acc_detail = end_to_end(wl, args.workload, setup, passes, ops)
        units = END_TO_END
        detail = {"accuracy": acc_detail, **wl.detail(ops)}
    print("# detail " + json.dumps(detail))
    for metric, (value, count) in values.items():
        print(f"# {metric} = {value:.6g} {units[metric]} (n={count})")
    result = {"correct": not failed, "attempted": len(warm) + len(ops),
              "failed": len(failed),
              "metrics": {m: {"value": values[m][0], "unit": u} for m, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
