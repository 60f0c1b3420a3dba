"""The four benchmark workloads: their inputs, one op each, and the check
every op must pass before its time counts.

A workload is built from the seed alone.  ``setup()`` does the work that
``setup_s`` times in fresh interpreters; ``warmup()`` runs one untimed but
checked op per op kind; ``run_op(kind, trace_run)`` runs one op and
returns an ``Op`` whose ``note`` is empty exactly when the output passed
its check.  ``op_seconds(ops)`` gives the large and small op times with
their sample counts, ``accuracy()`` the relative error with the raw
figures, ``detail(ops)`` whatever else the report line carries.

This module locates ``src/`` relative to its own file, so the benchmark
runs from any working directory without installing the package.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEMO_CONFIG = ROOT / "demos" / "run_config.json"
WORK_ROOT = ROOT / ".bench_work"

if not (SRC / "prabtel" / "__init__.py").is_file():
    raise SystemExit(f"error: no src/prabtel package under {ROOT}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from prabtel import problem as problem_mod  # noqa: E402
from prabtel import specfun  # noqa: E402
from prabtel.fracops import PrabhakarParams, QuadPolicy  # noqa: E402
from prabtel.goursat import Domain2D, TelegraphCoeffs  # noqa: E402
from prabtel.oracle import load_fixtures  # noqa: E402

# ladder solutions, stored by make_reference.py
REFERENCE = BENCH_DIR / "reference.npz"
# a ladder solution may differ from the stored one by at most this much on
# the shared nodes: about 6x the 32/128 rung's own distance from 64/256
# (8e-5), while a 5% error in the forcing term moves u by 2e-3
REFERENCE_TOL = 5e-4
# stored oracle values carry 36 digits; the acceptance gate is 1e-9
FIXTURE_TOL = 1e-9
# float64 cannot resolve a smaller relative error than this
MIN_ERROR = 1e-16
# data of the ladder problem the warm-up solves and the accuracy figure
# reads, fixed so that figure does not move with the seed
ACCURACY_AMP = 0.2
ACCURACY_SCALE = 1.0
CHILD_TIMEOUT_S = 170
# int_0^1 (0.5 + 0.5 t) sin(t) dt, so psi(0) meets the compatibility identity
_M_SIN_MOMENT = 0.5 * (1.0 - 2.0 * math.cos(1.0) + math.sin(1.0))


@dataclass
class Op:
    """Outcome of one op: wall time, the failed check (empty when the
    output passed) and any sub-timings."""

    kind: str
    seconds: float
    note: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.note


def child_env() -> dict:
    """Environment of every child process: ``src/`` first on the path and
    no ``PRABHAKAR_THREADS`` override."""
    env = dict(os.environ)
    env.pop("PRABHAKAR_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _failure(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {Path(last[0].filename).name}:{last[0].lineno}" if last else ""
    return f"raised {type(exc).__name__}: {exc}{where}"


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def kind_medians(ops) -> dict:
    """Median seconds of each op kind over its checked samples."""
    by_kind = {}
    for op in ops:
        if op.ok:
            by_kind.setdefault(op.kind, []).append(op.seconds)
    return {kind: median(times) for kind, times in by_kind.items()}


def _medians_by_kind(ops, large: str, small: str) -> tuple:
    big = [op.seconds for op in ops if op.kind == large]
    little = [op.seconds for op in ops if op.kind == small]
    return median(big), median(little), (len(big), len(little))


class Workload:
    """Defaults of the interface described in the module docstring."""

    shuffle = True  # shuffle the op order inside each pass
    large = None  # op kind the per-layer shares divide by; None: whole pass
    data_fns = ()  # the benchmark's own data callables a tracer attaches to

    def close(self):
        pass

    def detail(self, ops) -> dict:
        return {}


# ---------------------------------------------------------------------------
# Solve ladders
# ---------------------------------------------------------------------------

class DataFn:
    """Problem data callable that reports each call to an active tracer.

    With no tracer attached it only forwards, so untraced runs pay one
    attribute test per call.
    """

    def __init__(self, layer: str, fn):
        self.layer, self.fn, self.tracer = layer, fn, None

    def __call__(self, *args):
        if self.tracer is None:
            return self.fn(*args)
        return self.tracer.call(self.layer, self.fn, args, {},
                                max(np.size(a) for a in args))


def smooth_problem(amp: float, scale):
    """The acceptance smooth problem with phi = 0.6 + amp sin(t) and
    forcing scale * t x / 10 (none when scale is None).  psi(0) comes from
    the exact compatibility integral, so strict mode accepts the data."""
    c = 0.6
    psi0 = c - (0.75 * c + amp * _M_SIN_MOMENT)
    phi = DataFn("data.phi", lambda t: c + amp * np.sin(np.asarray(t, dtype=float)))
    psi = DataFn("data.psi",
                 lambda x: psi0 + 0.1 * np.asarray(x) * (1.0 - np.asarray(x)))
    weight = DataFn("data.M", lambda t: 0.5 + 0.5 * np.asarray(t, dtype=float))
    fns = [phi, psi, weight]
    f = None
    if scale is not None:
        f = DataFn("data.f", lambda t, x: scale * np.asarray(t) * np.asarray(x) / 10.0)
        fns.append(f)
    problem = problem_mod.ProblemN(
        PrabhakarParams(1.0, 0.5, 0.5, -0.5), TelegraphCoeffs(-0.25, -0.5),
        Domain2D(1.0, 1.0), phi=phi, psi=psi, M=weight, f_smooth=f)
    return problem, fns


def shared_node_diff(u_a: np.ndarray, u_b: np.ndarray) -> float:
    """max |u_fine - u_coarse| on the nodes both uniform grids share."""
    fine, coarse = (u_a, u_b) if u_a.shape[0] >= u_b.shape[0] else (u_b, u_a)
    k = (fine.shape[0] - 1) // (coarse.shape[0] - 1)
    return float(np.abs(fine[::k, ::k] - coarse).max())


def reference_solution(rung: str, amp: float, scale) -> np.ndarray:
    """Stored solution of the smooth problem at one rung, on the 33 x 33
    nodes all rungs share.  The problem is linear in its data, so three
    stored solves give every seeded one: S0 (amp 0, no forcing), S1 (amp 1,
    no forcing) and S2 (amp 0, forcing scale 1)."""
    with np.load(REFERENCE) as ref:
        s0 = ref[f"{rung}.S0"]
        u = s0 + amp * (ref[f"{rung}.S1"] - s0)
        if scale is not None:
            u = u + scale * (ref[f"{rung}.S2"] - s0)
    return u


class Ladder(Workload):
    """solve + verify of the acceptance smooth problem, one op per rung.

    Timed ops solve the seeded problem.  The warm-up solves the problem
    with the fixed data ACCURACY_AMP and ACCURACY_SCALE at every rung, and
    the accuracy figure comes from those solutions, so it is the same for
    every seed."""

    def __init__(self, rungs, forced: bool, seed: int, smoke: bool):
        rng = random.Random(f"{seed}:data")
        self.amp = rng.uniform(0.1, 0.3)
        self.scale = rng.uniform(0.8, 1.2) if forced else None
        self.fixed_scale = ACCURACY_SCALE if forced else None
        self.rungs = {f"n{n}": (n, q) for n, q in rungs}
        kinds = list(self.rungs)
        self.large, self.prev, self.small = kinds[-1], kinds[-2], kinds[0]
        self.ops = kinds[:1] if smoke else kinds
        self.solutions = {}

    def setup(self):
        self.problem, self.data_fns = smooth_problem(self.amp, self.scale)
        self.expected = {kind: reference_solution(kind, self.amp, self.scale)
                         for kind in self.rungs}
        self.fixed_problem, _ = smooth_problem(ACCURACY_AMP, self.fixed_scale)
        self.fixed_expected = {kind: reference_solution(kind, ACCURACY_AMP, self.fixed_scale)
                               for kind in self.rungs}

    def warmup(self) -> list:
        ops = []
        for kind in self.rungs:
            op, sol, report = self._op(kind, self.fixed_problem, self.fixed_expected)
            ops.append(op)
            if op.ok:
                self.solutions[kind] = (sol, report)
        return ops

    def run_op(self, kind: str, trace_run: bool) -> Op:
        return self._op(kind, self.problem, self.expected)[0]

    def _op(self, kind: str, problem, expected) -> tuple:
        n, q = self.rungs[kind]
        try:
            t0 = perf_counter()
            sol = problem_mod.solve(problem, n_t=n, n_x=n, quad=QuadPolicy(n_points=q))
            t1 = perf_counter()
            report = problem_mod.verify(problem, sol)
            t2 = perf_counter()
        except Exception as exc:  # a failed op is counted, not fatal
            return Op(kind, 0.0, _failure(exc)), None, None
        op = Op(kind, t2 - t0, self._check(sol, report, expected[kind]),
                {"solve_s": t1 - t0, "verify_s": t2 - t1})
        return op, sol, report

    @staticmethod
    def _check(sol, report, expected) -> str:
        if not np.all(np.isfinite(sol.u)):
            return "u is not finite"
        if not report.passes():
            return f"verify thresholds missed: {report.as_dict()}"
        diff = shared_node_diff(sol.u, expected)
        if not diff <= REFERENCE_TOL:
            return f"differs from the stored reference solution by {diff:.3g}"
        return ""

    def op_seconds(self, ops) -> tuple:
        return _medians_by_kind(ops, self.large, self.small)

    def accuracy(self) -> tuple:
        """Self-convergence error of the fixed problem's top rung against
        the rung below, relative to max |u|, plus the figures printed
        beside it."""
        if self.large not in self.solutions or self.prev not in self.solutions:
            return 1.0, {}
        top, top_report = self.solutions[self.large]
        diff = shared_node_diff(top.u, self.solutions[self.prev][0].u)
        scale = float(np.abs(top.u).max())
        detail = {"u_selfdiff": diff, "pde_residual": top_report.pde,
                  "nonlocal_defect": top_report.nonlocal_defect,
                  "phi_amplitude": ACCURACY_AMP, "forcing_scale": self.fixed_scale}
        return max(diff / scale, MIN_ERROR), detail

    def detail(self, ops) -> dict:
        rungs = {}
        for kind in self.rungs:
            done = [op for op in ops if op.kind == kind and op.ok]
            rungs[kind] = {
                "n": len(done),
                "solve_verify_s": median([op.seconds for op in done]),
                "solve_s": median([op.extra["solve_s"] for op in done]),
                "verify_s": median([op.extra["verify_s"] for op in done]),
            }
        return {"rungs": rungs, "seeded_data": {"phi_amplitude": self.amp,
                                                "forcing_scale": self.scale}}


# ---------------------------------------------------------------------------
# Series fixtures
# ---------------------------------------------------------------------------

class Fixtures(Workload):
    """One ml2 or ml3 evaluation per stored oracle point."""

    policy = specfun.SeriesPolicy(rel_tol=1e-14)
    # takes the mpmath rescue at the seed commit, so a smoke run covers it
    smoke_op = "ml3:1"

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.ops = []
        self.worst = 0.0

    def setup(self):
        fx = load_fixtures()
        self.points = {}
        for i, e in enumerate(fx["ml2"]):
            self.points[f"ml2:{i}"] = (specfun.ML2Params(**e["params"]),
                                       (e["x"], e["y"]), float(e["value"]))
        for i, e in enumerate(fx["ml3"]):
            self.points[f"ml3:{i}"] = (specfun.ML3Params(**e["params"]),
                                       (e["x"], e["y"], e["z"]), float(e["value"]))
        self.ops = [self.smoke_op] if self.smoke else list(self.points)

    def warmup(self) -> list:
        return [self.run_op(kind, False) for kind in ("ml2:0", "ml3:0")]

    def run_op(self, kind: str, trace_run: bool) -> Op:
        params, args, ref = self.points[kind]
        fn = specfun.ml2 if kind.startswith("ml2") else specfun.ml3
        try:
            t0 = perf_counter()
            got = fn(params, *args, self.policy)
            elapsed = perf_counter() - t0
        except Exception as exc:
            return Op(kind, 0.0, _failure(exc))
        err = abs(got - ref) / max(abs(ref), 1e-300)
        if not err <= FIXTURE_TOL:
            return Op(kind, elapsed, f"off the oracle by {err:.3g} (tol {FIXTURE_TOL})")
        self.worst = max(self.worst, err)
        return Op(kind, elapsed)

    def op_seconds(self, ops) -> tuple:
        # per point, the median over the passes, so a pass that paid for
        # cold mpmath caches or a slow spell of the host does not count.
        # Means over a band of points, not percentiles: at the seed commit
        # p95 falls in a 20% gap between the 12th (0.37 s) and 11th (0.44 s)
        # slowest points, and around p50 the time rises by a third within
        # six ranks, so noise that swapped two points moved the percentile.
        # large: the slowest 10%; small: the middle half
        times = sorted(kind_medians(ops).values())
        if not times:
            return 0.0, 0.0, (0, 0)
        tail = times[len(times) - max(1, len(times) // 10):]
        mid = times[len(times) // 4:len(times) - len(times) // 4] or times
        return float(np.mean(tail)), float(np.mean(mid)), (len(tail), len(mid))

    def accuracy(self) -> tuple:
        return max(self.worst, MIN_ERROR), {"ml_max_rel_err": self.worst}


# ---------------------------------------------------------------------------
# CLI demo
# ---------------------------------------------------------------------------

_REPORT_KEYS = ("boundary", "nonlocal", "pde", "compatibility")


def _report_block(text: str) -> dict:
    block = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.strip() in _REPORT_KEYS:
            block[key.strip()] = value.strip()
    return block


def _csv_reference_diff(data: bytes) -> float:
    with np.load(REFERENCE) as ref:
        expected = ref["cli.u"]
    u = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1)[:, 2]
    if u.size != expected.size:
        return math.inf
    return float(np.abs(u.reshape(expected.shape) - expected).max())


class CliDemo(Workload):
    """``prabtel solve`` on the demo config, then ``prabtel verify`` on the
    written u.csv, each in a fresh interpreter.  A trace run calls
    ``cli.main`` in-process instead, so the wrappers see the calls and its
    untraced passes do the same work as its traced ones."""

    shuffle = False  # verify reads what solve wrote

    def __init__(self):
        self.ops = ["solve", "verify"]
        self.large, self.small = "solve", "verify"
        self.ref_bytes = None
        self.last_report = None
        self.worst_pde = 0.0

    def setup(self):
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_ROOT))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    def _argv(self, kind):
        if kind == "solve":
            return ["solve", str(DEMO_CONFIG)]
        return ["verify", str(DEMO_CONFIG), "u.csv"]

    def _child(self, kind):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-m", "prabtel", *self._argv(kind)],
                             cwd=self.work, env=child_env(), capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S)
        return perf_counter() - t0, out.returncode, out.stdout, out.stderr

    def _in_process(self, kind):
        from prabtel import cli
        buf, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.work)
        try:
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(self._argv(kind))
            elapsed = perf_counter() - t0
        finally:
            os.chdir(here)
        return elapsed, rc, buf.getvalue(), err.getvalue()

    def run_op(self, kind: str, trace_run: bool) -> Op:
        try:
            elapsed, rc, out, err = (self._in_process if trace_run else self._child)(kind)
        except Exception as exc:
            return Op(kind, 0.0, _failure(exc))
        if rc != 0:
            return Op(kind, elapsed, f"exit code {rc}: {err.strip()[-200:]}")
        report = _report_block(out)
        if set(report) != set(_REPORT_KEYS):
            return Op(kind, elapsed, f"report incomplete: {report}")
        if kind == "solve":
            self.last_report = report
            data = (self.work / "u.csv").read_bytes()
            if self.ref_bytes is None:
                # the first solve is checked against the stored solution,
                # every later one against the first one's bytes
                diff = _csv_reference_diff(data)
                if not diff <= REFERENCE_TOL:
                    return Op(kind, elapsed, f"u.csv differs from the stored "
                                             f"reference solution by {diff:.3g}")
                self.ref_bytes = data
            if data != self.ref_bytes:
                return Op(kind, elapsed, "u.csv bytes differ from the first solve")
            return Op(kind, elapsed)
        if report != self.last_report:
            return Op(kind, elapsed, f"verify report {report} differs from "
                                     f"solve report {self.last_report}")
        self.worst_pde = max(self.worst_pde, float(report["pde"]))
        return Op(kind, elapsed)

    def warmup(self) -> list:
        return [self.run_op(kind, False) for kind in self.ops]

    def op_seconds(self, ops) -> tuple:
        return _medians_by_kind(ops, self.large, self.small)

    def accuracy(self) -> tuple:
        return max(self.worst_pde, MIN_ERROR), {"pde_residual": self.worst_pde}


# ---------------------------------------------------------------------------

WORKLOADS = ("unforced-ladder", "forced-ladder", "series-fixtures", "cli-demo")


# (n_t = n_x, quadrature points) per rung
UNFORCED_RUNGS = ((32, 128), (64, 256), (128, 512))
FORCED_RUNGS = ((32, 128), (64, 256))


def make(name: str, seed: int, smoke: bool = False):
    if name == "unforced-ladder":
        return Ladder(UNFORCED_RUNGS, False, seed, smoke)
    if name == "forced-ladder":
        return Ladder(FORCED_RUNGS, True, seed, smoke)
    if name == "series-fixtures":
        return Fixtures(smoke)
    if name == "cli-demo":
        return CliDemo()
    raise ValueError(f"unknown workload {name!r}")
