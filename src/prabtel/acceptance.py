"""Self-contained acceptance checks for the whole library.

Each check exercises one end-to-end guarantee at desk scale and returns
(passed, detail) with the measured numbers, so the CLI selftest and the
test suite share a single source of truth.  The checks only use public
surfaces plus the slow reference oracles; nothing here is needed on the
solver hot path.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from .fracops import PrabhakarParams, QuadPolicy, caputo_prabhakar_deriv, prabhakar_integral
from .goursat import Domain2D, ForcingTerm, TelegraphCoeffs, TeleEngine
from .problem import ProblemN, solve, verify
from .specfun import ML2Params, ML3Params, SeriesPolicy, ml2, ml3, ml_prabhakar
from .volterra import VolterraSystem, assemble_system, picard_solve, solve_tau

__all__ = ["CHECKS", "cli_env", "run_checks", "format_results"]

_SEED = 20260814

# shared strict-regime smooth problem: compatible data with forcing
_SMOOTH_MASS = 0.5260866373071617


def _smooth_problem(params=None, coeffs=None, forcing=True) -> ProblemN:
    params = params or PrabhakarParams(1.0, 0.5, 0.5, -0.5)
    coeffs = coeffs or TelegraphCoeffs(-0.25, -0.5)
    phi = lambda t: 0.6 + 0.2 * np.sin(np.asarray(t, dtype=float))
    psi = lambda x: (0.6 - _SMOOTH_MASS) + 0.1 * np.asarray(x) * (1.0 - np.asarray(x))
    f = (lambda t, x: np.asarray(t) * np.asarray(x) / 10.0) if forcing else None
    return ProblemN(params, coeffs, Domain2D(1.0, 1.0), phi=phi, psi=psi,
                    M=lambda t: 0.5 + 0.5 * np.asarray(t, dtype=float),
                    f_smooth=f)


def _constant_problem() -> ProblemN:
    one = lambda s: 1.0 + 0.0 * np.asarray(s, dtype=float)
    zero_ps = lambda x: 0.0 * np.asarray(x, dtype=float)
    return ProblemN(PrabhakarParams(1.0, 0.5, 0.5, -1.0),
                    TelegraphCoeffs(-1.0, -1.0), Domain2D(1.0, 1.0),
                    phi=one, psi=zero_ps, M=one)


def check_special_function_reductions():
    """exp and cosh reductions of the three-parameter function, and the
    normalization E(0) Gamma(beta) = 1."""
    zs = np.linspace(-20.0, 5.0, 50)
    worst = 0.0
    for z in zs:
        got = ml_prabhakar(1.0, 1.0, 1.0, float(z))
        worst = max(worst, abs(got - math.exp(z)) / abs(math.exp(z)))
        ref = math.cosh(math.sqrt(z)) if z >= 0 else math.cos(math.sqrt(-z))
        got = ml_prabhakar(2.0, 1.0, 1.0, float(z))
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
    rng = np.random.default_rng(_SEED)
    worst0 = 0.0
    for _ in range(100):
        al = rng.uniform(0.1, 2.5)
        be = rng.uniform(0.05, 3.0)
        ga = rng.uniform(-2.0, 3.0)
        got = ml_prabhakar(al, be, ga, 0.0) * math.gamma(be)
        worst0 = max(worst0, abs(got - 1.0))
    ok = worst <= 1e-10 and worst0 <= 1e-12
    return ok, (f"exp/cosh reduction max rel {worst:.2e} (tol 1e-10), "
                f"normalization max defect {worst0:.2e} (tol 1e-12)")


def check_oracle_equivalence():
    """Production double and triple series against the stored
    high-precision oracle values."""
    from .oracle import load_fixtures
    fx = load_fixtures()
    tight = SeriesPolicy(rel_tol=1e-14)
    worst, count = 0.0, 0
    for entry in fx["ml2"]:
        got = ml2(ML2Params(**entry["params"]), entry["x"], entry["y"], tight)
        ref = float(entry["value"])
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
        count += 1
    for entry in fx["ml3"]:
        got = ml3(ML3Params(**entry["params"]), entry["x"], entry["y"],
                  entry["z"], tight)
        ref = float(entry["value"])
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
        count += 1
    ok = count >= 200 and worst <= 1e-9
    return ok, f"{count} fixture points, max rel diff {worst:.2e} (tol 1e-9)"


def check_prabhakar_integral_identity():
    """Quadrature of the kernel against the closed form for y = 1, plus
    the derivative of a constant."""
    from .oracle import load_fixtures
    fx = load_fixtures()
    worst = 0.0
    for entry in fx["prabhakar"]:
        p = PrabhakarParams(entry["alpha"], entry["beta"], entry["gamma"],
                            entry["delta"])
        got = prabhakar_integral(p, lambda s: np.ones_like(s), entry["t"])
        worst = max(worst, abs(got - float(entry["integral_of_one"])))
    rng = np.random.default_rng(_SEED + 1)
    n_extra = 8
    for _ in range(n_extra):
        p = PrabhakarParams(rng.uniform(0.4, 1.5), rng.uniform(0.3, 1.8),
                            rng.uniform(-1.0, 1.5), rng.uniform(-2.0, 0.5))
        t = rng.uniform(0.3, 1.4)
        ref = t ** p.beta * ml_prabhakar(p.alpha, p.beta + 1.0, p.gamma,
                                         p.delta * t ** p.alpha)
        got = prabhakar_integral(p, lambda s: np.ones_like(s), t)
        worst = max(worst, abs(got - ref))
    worst_const = 0.0
    for _ in range(5):
        p = PrabhakarParams(rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.9),
                            rng.uniform(-1.0, 1.5), rng.uniform(-1.5, 0.5))
        got = caputo_prabhakar_deriv(p, lambda s: 3.0 * np.ones_like(s),
                                     rng.uniform(0.3, 1.2))
        worst_const = max(worst_const, abs(got))
    ok = worst <= 1e-7 and worst_const <= 1e-10
    return ok, (f"{12 + n_extra} integrals of one, max defect {worst:.2e} "
                f"(tol 1e-7); derivative of constant {worst_const:.2e} "
                f"(tol 1e-10)")


def _manufactured_error(n: int) -> float:
    # tau(x) = 1 + x^2 solves tau - int_0^x e^(xi - x) tau dxi = g
    x = np.linspace(0.0, 1.0, n + 1)
    tau_true = 1.0 + x ** 2
    m2 = np.tril(np.exp(x[None, :] - x[:, None]))
    rhs = 2.0 * x - 2.0 + 3.0 * np.exp(-x)
    system = VolterraSystem(A=1.0, x_grid=x, m2=m2, rhs=rhs, coupling=1.0,
                            diagnostics={})
    got = solve_tau(system)
    return float(np.abs(got.tau - tau_true).max())


def check_quadrature_order():
    """Second-order convergence of the Nystrom trace solver on a
    manufactured equation with known solution."""
    errs = {n: _manufactured_error(n) for n in (64, 128, 256)}
    r1 = errs[64] / errs[128]
    r2 = errs[128] / errs[256]
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5 and errs[256] <= 1e-5
    return ok, (f"errors {errs[64]:.2e} / {errs[128]:.2e} / {errs[256]:.2e}, "
                f"ratios {r1:.2f}, {r2:.2f} (window [3.5, 4.5]), "
                f"finest {errs[256]:.2e} (tol 1e-5)")


def check_constant_solution():
    """Constant data through the whole pipeline on a 65 x 65 grid."""
    start = time.perf_counter()
    sol = solve(_constant_problem(), n_t=64, n_x=64,
                quad=QuadPolicy(n_points=256))
    err = float(np.abs(sol.u - 1.0).max())
    elapsed = time.perf_counter() - start
    ok = err <= 1e-3 and elapsed < 180.0
    return ok, f"max |u - 1| = {err:.2e} (tol 1e-3) in {elapsed:.1f}s (cap 180s)"


def check_residual_thresholds():
    """Boundary, nonlocal, and equation defects of the constant and one
    smooth strict-regime problem."""
    worst = {"boundary": 0.0, "nonlocal": 0.0, "pde": 0.0}
    for prob in (_constant_problem(), _smooth_problem()):
        sol = solve(prob, n_t=32, n_x=32, quad=QuadPolicy(n_points=128))
        r = verify(prob, sol)
        worst["boundary"] = max(worst["boundary"], r.boundary)
        worst["nonlocal"] = max(worst["nonlocal"], r.nonlocal_defect)
        worst["pde"] = max(worst["pde"], r.pde)
    ok = (worst["boundary"] <= 1e-3 and worst["nonlocal"] <= 1e-3
          and worst["pde"] <= 5e-2)
    return ok, (f"boundary {worst['boundary']:.2e} (tol 1e-3), nonlocal "
                f"{worst['nonlocal']:.2e} (tol 1e-3), equation "
                f"{worst['pde']:.2e} (tol 5e-2)")


def check_positivity_and_a_bound():
    """Positivity of the bivariate kernel instance and the lower bound on
    the nonlocal constant for nonnegative weights."""
    coeffs = TelegraphCoeffs(-1.0, -1.0)
    t = np.linspace(0.02, 1.0, 50)
    min_val = math.inf
    for beta in np.arange(0.1, 0.95, 0.1):
        params = PrabhakarParams(1.0, float(beta), float(beta), -1.0)
        eng = TeleEngine(params, coeffs, 1.0, 1.0)
        # G(gamma) E2(a t^beta, delta t^alpha) sums the shifted coefficients
        min_val = min(min_val, float(eng.cvec(t, True).sum(axis=0).min()))
    weights = (
        ("1", lambda s: np.ones_like(np.asarray(s, dtype=float)), 1.0),
        ("t", lambda s: np.asarray(s, dtype=float), 0.5),
        ("0.5+0.5t", lambda s: 0.5 + 0.5 * np.asarray(s, dtype=float), 0.75),
    )
    params, domain = PrabhakarParams(1.0, 0.5, 0.5, -1.0), Domain2D(1.0, 1.0)
    eng, one = TeleEngine(params, coeffs, 1.0, 1.0), weights[0][1]
    worst_gap = math.inf
    for _, M, mass in weights:
        system = assemble_system(eng, domain, M, one, one, None,
                                 np.linspace(0.0, 1.0, 257))
        worst_gap = min(worst_gap, system.diagnostics["a_display"] - mass)
    ok = min_val > 0.0 and worst_gap > -1e-8
    return ok, (f"kernel instance min {min_val:.3e} (> 0), smallest "
                f"A - int M gap {worst_gap:.3e} (> -1e-8)")


def check_classical_limit():
    """Near-classical orders against the box-scheme reference."""
    from .oracle import classical_telegraph_fd
    params = PrabhakarParams(1.0, 0.999, 0.999, 0.0)
    prob = _smooth_problem(params=params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solve(prob, n_t=64, n_x=64, quad=QuadPolicy(n_points=256),
                    strict=False)
    fd = classical_telegraph_fd(prob.coeffs, prob.domain, prob.phi,
                                sol.tau, lambda t, x: t * x / 10.0, 256)
    diff = np.abs(sol.u - fd[::4, ::4]).max() / np.abs(fd).max()
    ok = diff <= 2e-2
    return ok, f"max rel difference vs box scheme {diff:.2e} (tol 2e-2)"


def check_solver_cross_check():
    """Direct substitution against Picard iteration on every assembled
    trace system."""
    worst, x = 0.0, np.linspace(0.0, 1.0, 129)
    for prob in (_constant_problem(), _smooth_problem()):
        eng = TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        forcing = (None if prob.f_smooth is None else
                   ForcingTerm(eng, prob.f_smooth, 0.0, 0.0, x))
        system = assemble_system(eng, prob.domain, prob.M, prob.phi, prob.psi,
                                 forcing, x)
        direct = solve_tau(system)
        picard = picard_solve(system)
        worst = max(worst, float(np.abs(direct.tau - picard.tau).max()))
    system = VolterraSystem(A=1.0, x_grid=x,
                            m2=np.tril(np.exp(x[None, :] - x[:, None])),
                            rhs=2.0 * x - 2.0 + 3.0 * np.exp(-x),
                            coupling=1.0, diagnostics={})
    worst = max(worst, float(np.abs(solve_tau(system).tau
                                    - picard_solve(system).tau).max()))
    ok = worst <= 1e-8
    return ok, f"max |direct - picard| = {worst:.2e} (tol 1e-8)"


_CLI_CONFIG = {
    "params": {"alpha": 1.0, "beta": 0.5, "gamma": 0.5, "delta": -1.0},
    "coeffs": {"a": -1.0, "b": -1.0},
    "domain": {"q": 1.0, "p": 1.0},
    "data": {"phi": "1", "psi": "0.25", "M": "0.5+0.5*t"},
    "grid": {"n_t": 8, "n_x": 8},
    "policies": {"quad": {"n_points": 32}},
    "mode": "strict",
}


def cli_env() -> dict:
    """Environment for a ``python -m prabtel`` child process.

    PYTHONPATH starts with the absolute directory that holds this prabtel
    package, so the child imports the same package from any working
    directory, whether or not it is installed.
    """
    env = dict(os.environ)
    root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH", "")) if p)
    return env


def _run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "prabtel", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env(), timeout=300)


def _report_block(text: str) -> list:
    keys = ("boundary", "nonlocal", "pde", "compatibility")
    return [line for line in text.splitlines()
            if line.split("=")[0].strip() in keys]


def check_cli_contract():
    """Deterministic CSV bytes, solve/verify report round trip, and the
    documented exit codes on crafted bad inputs."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.json"
        cfg.write_text(json.dumps(_CLI_CONFIG))

        out1 = _run_cli(["solve", str(cfg), "--u-csv", "u1.csv",
                         "--tau-csv", "tau1.csv"], tmp)
        out2 = _run_cli(["solve", str(cfg), "--u-csv", "u2.csv",
                         "--tau-csv", "tau2.csv"], tmp)
        if out1.returncode != 0:
            failures.append(f"solve exited {out1.returncode}: {out1.stderr.strip()}")
        elif (tmp / "u1.csv").read_bytes() != (tmp / "u2.csv").read_bytes():
            failures.append("u.csv bytes differ between identical runs")

        ver = _run_cli(["verify", str(cfg), "u1.csv"], tmp)
        if ver.returncode != 0:
            failures.append(f"verify exited {ver.returncode}")
        elif _report_block(ver.stdout) != _report_block(out1.stdout):
            failures.append("verify report differs from solve report")

        corrupted = (tmp / "u1.csv").read_text().splitlines()
        t0, x0, v0 = corrupted[40].split(",")
        corrupted[40] = f"{t0},{x0},{float(v0) + 0.1:.17g}"
        (tmp / "bad.csv").write_text("\n".join(corrupted) + "\n")
        bad = _run_cli(["verify", str(cfg), "bad.csv"], tmp)
        if bad.returncode != 1:
            failures.append(f"corrupted csv gave exit {bad.returncode}, want 1")

        headless = "\n".join((tmp / "u1.csv").read_text().splitlines()[1:])
        (tmp / "nohdr.csv").write_text(headless + "\n")
        nohdr = _run_cli(["verify", str(cfg), "nohdr.csv"], tmp)
        if nohdr.returncode != 2:
            failures.append(f"missing header gave exit {nohdr.returncode}, want 2")

        unknown = dict(_CLI_CONFIG)
        unknown["surplus"] = 1
        (tmp / "unknown.json").write_text(json.dumps(unknown))
        rc = _run_cli(["solve", "unknown.json"], tmp).returncode
        if rc != 2:
            failures.append(f"unknown config key gave exit {rc}, want 2")

        regime = json.loads(json.dumps(_CLI_CONFIG))
        regime["coeffs"]["a"] = 1.0
        (tmp / "regime.json").write_text(json.dumps(regime))
        rc = _run_cli(["solve", "regime.json"], tmp).returncode
        if rc != 4:
            failures.append(f"positive a in strict mode gave exit {rc}, want 4")

        degen = json.loads(json.dumps(_CLI_CONFIG))
        degen["coeffs"]["a"] = 0.0
        degen["data"]["M"] = "1"
        degen["data"]["psi"] = "0"
        degen["mode"] = "relaxed"
        (tmp / "degen.json").write_text(json.dumps(degen))
        rc = _run_cli(["solve", "degen.json"], tmp).returncode
        if rc != 5:
            failures.append(f"degenerate nonlocal constant gave exit {rc}, want 5")

        mlrun = _run_cli(["ml", "--alpha", "1", "--beta", "1", "--gamma", "1",
                          "--z", "1"], tmp)
        first = mlrun.stdout.splitlines()[0] if mlrun.stdout else ""
        if first != "2.71828182845905":
            failures.append(f"ml printed {first!r}")

        rc = _run_cli(["ml2", "--a1", "3", "--b1", "1", "--g1", "1",
                       "--a2", "0", "--g2", "1", "--a3", "1", "--b2", "1",
                       "--d1", "1", "--a4", "1", "--d2", "1", "--b3", "1",
                       "--d3", "1", "--x", "0.5", "--y", "0.5"], tmp).returncode
        if rc != 2:
            failures.append(f"non-positive discriminant gave exit {rc}, want 2")

    ok = not failures
    return ok, "all exit codes and round trips as documented" if ok \
        else "; ".join(failures)


CHECKS = (
    ("special-function-reductions", check_special_function_reductions),
    ("oracle-equivalence", check_oracle_equivalence),
    ("prabhakar-integral-identity", check_prabhakar_integral_identity),
    ("quadrature-order", check_quadrature_order),
    ("constant-solution-end-to-end", check_constant_solution),
    ("boundary-nonlocal-residuals", check_residual_thresholds),
    ("positivity-and-a-bound", check_positivity_and_a_bound),
    ("classical-limit", check_classical_limit),
    ("solver-cross-check", check_solver_cross_check),
    ("cli-contract", check_cli_contract),
)


def run_checks(name_filter: str = "") -> list:
    """Run the checks whose name contains name_filter.

    Returns a list of (name, passed, detail, seconds) tuples in registry
    order; unknown filters simply select nothing.
    """
    results = []
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failed check, not a crash of the runner
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail, time.perf_counter() - start))
    return results


def format_results(results) -> str:
    width = max((len(name) for name, *_ in results), default=4)
    lines = []
    for name, passed, detail, seconds in results:
        tag = "PASS" if passed else "FAIL"
        lines.append(f"{tag}  {name:<{width}}  {seconds:6.1f}s  {detail}")
    n_pass = sum(1 for _, passed, *_ in results if passed)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
