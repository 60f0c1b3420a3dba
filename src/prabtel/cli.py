"""Command-line surface: special-function evaluation, the end-to-end
solver driven by a JSON config, residual verification of stored solutions,
and the acceptance selftest.

Exit codes are a stable contract: 0 success, 1 failed check (selftest or
verify thresholds), 2 input error (bad flags, config, expressions, or
files), 3 series or iteration non-convergence, 4 regime violation in
strict mode, 5 degenerate nonlocal constant or singular elimination step.
Output files are written atomically (temp file then rename) with LF line
endings and dot decimal separators, so identical configs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    DegenerateNonlocal,
    DomainError,
    EvalError,
    InvalidData,
    InvalidParams,
    MaxIterExceeded,
    NonConvergence,
    ParseError,
    QuadratureFailure,
    RegimeViolation,
    SingularStep,
)
from .expr import ExprFunction
from .fracops import PrabhakarParams, QuadPolicy
from .goursat import Domain2D, TelegraphCoeffs, TraceSolution, ml3_tele_variant
from .problem import GridSolution, ProblemN, solve, verify
from .specfun import (
    ML2Params,
    SeriesPolicy,
    discriminants2,
    discriminants3,
    ml2,
    ml3,
    ml_prabhakar,
)
from .svgplot import line_chart

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_INPUT = 2
_EXIT_NONCONVERGENCE = 3
_EXIT_REGIME = 4
_EXIT_DEGENERATE = 5

# the errors main() reports, with their exit codes
_EXIT_CODES = (
    ((InvalidParams, InvalidData, DomainError, ArgumentOutOfRange, ParseError,
      EvalError, OSError), _EXIT_INPUT),
    ((NonConvergence, QuadratureFailure, MaxIterExceeded), _EXIT_NONCONVERGENCE),
    ((RegimeViolation,), _EXIT_REGIME),
    ((DegenerateNonlocal, SingularStep), _EXIT_DEGENERATE),
)

_ML2_FIELDS = ("a1", "b1", "g1", "a2", "g2", "a3", "b2", "d1", "a4", "d2",
               "b3", "d3")


def _fmt(value: float) -> str:
    return f"{float(value):.15g}"


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _section(raw: dict, where: str, required: tuple, optional: tuple) -> dict:
    if not isinstance(raw, dict):
        raise InvalidData(f"config: {where} must be an object")
    unknown = sorted(set(raw) - set(required) - set(optional))
    if unknown:
        raise InvalidData(f"config: unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(raw))
    if missing:
        raise InvalidData(f"config: missing key(s) {missing} in {where}")
    return raw


def _number(raw: dict, where: str, key: str, default=None) -> float:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidData(f"config: {where}.{key} must be a number")
    return float(value)


def _integer(raw: dict, where: str, key: str, default=None) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidData(f"config: {where}.{key} must be an integer")
    return value


class _XFunction:
    """Adapter calling an expression of x with the x slot bound.

    Expression callables bind their first positional argument to t, but
    psi is a function of x alone.
    """

    def __init__(self, fn: ExprFunction):
        self.fn = fn

    def __call__(self, x):
        return self.fn(x=x)


def load_config(path: str) -> dict:
    """Parse and validate the declarative run config.

    Returns a flat dict of constructed objects and plain values; every
    unknown key anywhere in the document is rejected.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidData(f"config: not valid JSON ({exc})") from exc
    top = _section(raw, "top level",
                   ("params", "coeffs", "domain", "data", "grid"),
                   ("policies", "mode", "outputs"))

    p = _section(top["params"], "params",
                 ("alpha", "beta", "gamma", "delta"), ())
    params = PrabhakarParams(*(_number(p, "params", k)
                               for k in ("alpha", "beta", "gamma", "delta")))
    c = _section(top["coeffs"], "coeffs", ("a", "b"), ())
    coeffs = TelegraphCoeffs(_number(c, "coeffs", "a"), _number(c, "coeffs", "b"))
    d = _section(top["domain"], "domain", ("q", "p"), ())
    domain = Domain2D(_number(d, "domain", "q"), _number(d, "domain", "p"))

    data = _section(top["data"], "data", ("phi", "psi", "M"),
                    ("f_smooth", "eps1", "eps2"))
    for key in ("phi", "psi", "M"):
        if not isinstance(data[key], str):
            raise InvalidData(f"config: data.{key} must be an expression string")
    phi = ExprFunction(data["phi"])
    psi = _XFunction(ExprFunction(data["psi"]))
    weight = ExprFunction(data["M"])
    f_text = data.get("f_smooth")
    if f_text is not None and not isinstance(f_text, str):
        raise InvalidData("config: data.f_smooth must be an expression string or null")
    f_smooth = ExprFunction(f_text) if f_text is not None else None

    g = _section(top["grid"], "grid", ("n_t", "n_x"), ())
    n_t = _integer(g, "grid", "n_t")
    n_x = _integer(g, "grid", "n_x")

    pol = _section(top.get("policies", {}), "policies", (), ("series", "quad"))
    ser = _section(pol.get("series", {}), "policies.series", (),
                   ("rel_tol", "max_terms_per_index"))
    series = SeriesPolicy(
        rel_tol=_number(ser, "policies.series", "rel_tol", 1e-12),
        max_terms_per_index=_integer(ser, "policies.series",
                                     "max_terms_per_index", 2000))
    qd = _section(pol.get("quad", {}), "policies.quad", (), ("n_points",))
    quad = QuadPolicy(n_points=_integer(qd, "policies.quad", "n_points", 256))

    mode = top.get("mode", "strict")
    if mode not in ("strict", "relaxed"):
        raise InvalidData(f"config: mode must be 'strict' or 'relaxed', got {mode!r}")

    outputs = _section(top.get("outputs", {}), "outputs", (),
                       ("u_csv", "tau_csv", "svg"))
    for key in ("u_csv", "tau_csv", "svg"):
        value = outputs.get(key)
        if value is not None and not isinstance(value, str):
            raise InvalidData(f"config: outputs.{key} must be a path string")

    problem = ProblemN(params, coeffs, domain, phi=phi, psi=psi, M=weight,
                       f_smooth=f_smooth,
                       eps1=_number(data, "data", "eps1", 0.0),
                       eps2=_number(data, "data", "eps2", 0.0))
    return {
        "problem": problem,
        "n_t": n_t,
        "n_x": n_x,
        "series": series,
        "quad": quad,
        "strict": mode == "strict",
        "u_csv": outputs.get("u_csv", "u.csv"),
        "tau_csv": outputs.get("tau_csv", "tau.csv"),
        "svg": outputs.get("svg"),
    }


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _u_csv_text(t_grid: np.ndarray, x_grid: np.ndarray, u: np.ndarray) -> str:
    lines = ["t,x,u"]
    for i, t in enumerate(t_grid):
        for j, x in enumerate(x_grid):
            lines.append(f"{t:.17g},{x:.17g},{u[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def _tau_csv_text(x_grid: np.ndarray, tau: np.ndarray) -> str:
    lines = ["x,tau"]
    for x, v in zip(x_grid, tau):
        lines.append(f"{x:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def _solution_svg(sol) -> str:
    n_t = sol.t_grid.size - 1
    picks = dict.fromkeys((0, n_t // 4, n_t // 2, (3 * n_t) // 4, n_t))
    series = [("tau", sol.x_grid, sol.tau.tau)]
    for i in picks:
        series.append((f"u(t={sol.t_grid[i]:.3g})", sol.x_grid, sol.u[i, :]))
    return line_chart(series, title="trace and solution sections",
                      x_label="x", y_label="u")


def _report_lines(report) -> list:
    return [f"{key:<14} = {_fmt(value)}"
            for key, value in report.as_dict().items()]


def _read_u_csv(path: str, n_t: int, n_x: int):
    """Parse a row-major t,x,u file and rebuild the three grids.

    Shape and header problems raise InvalidData (exit code 2): the stored
    solution must match the config grid exactly.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "t,x,u":
        raise InvalidData(f"{path}: missing 't,x,u' header")
    body = lines[1:]
    want = (n_t + 1) * (n_x + 1)
    if len(body) != want:
        raise InvalidData(
            f"{path}: {len(body)} rows do not match the config grid "
            f"({n_t + 1} x {n_x + 1} = {want})")
    try:
        cells = np.array([[float(v) for v in line.split(",")]
                          for line in body])
    except ValueError as exc:
        raise InvalidData(f"{path}: malformed row ({exc})") from exc
    if cells.shape[1] != 3:
        raise InvalidData(f"{path}: expected 3 columns")
    t_grid = cells[:: n_x + 1, 0]
    x_grid = cells[: n_x + 1, 1]
    u = cells[:, 2].reshape(n_t + 1, n_x + 1)
    if not (np.array_equal(np.repeat(t_grid, n_x + 1), cells[:, 0])
            and np.array_equal(np.tile(x_grid, n_t + 1), cells[:, 1])):
        raise InvalidData(f"{path}: rows are not row-major over a grid")
    return t_grid, x_grid, u


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _series_from_flags(args) -> SeriesPolicy:
    return SeriesPolicy(rel_tol=args.rel_tol, max_terms_per_index=args.max_terms)


def cmd_ml(args) -> int:
    value = ml_prabhakar(args.alpha, args.beta, args.gamma, args.z,
                         _series_from_flags(args))
    print(_fmt(value))
    return _EXIT_OK


def cmd_ml2(args) -> int:
    params = ML2Params(*(getattr(args, name) for name in _ML2_FIELDS))
    value = ml2(params, args.x, args.y, _series_from_flags(args))
    d1, d2 = discriminants2(params)
    print(_fmt(value))
    print(f"discriminants = {_fmt(d1)} {_fmt(d2)}")
    return _EXIT_OK


def cmd_ml3(args) -> int:
    params = ml3_tele_variant(args.variant,
                              PrabhakarParams(args.alpha, args.beta,
                                              args.gamma, args.delta))
    value = ml3(params, args.x, args.y, args.z, _series_from_flags(args))
    d1, d2, d3 = discriminants3(params)
    print(_fmt(value))
    print(f"discriminants = {_fmt(d1)} {_fmt(d2)} {_fmt(d3)}")
    return _EXIT_OK


def _apply_overrides(cfg: dict, args) -> None:
    if args.n_t is not None:
        cfg["n_t"] = args.n_t
    if args.n_x is not None:
        cfg["n_x"] = args.n_x


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if args.mode is not None:
        cfg["strict"] = args.mode == "strict"
    if args.u_csv is not None:
        cfg["u_csv"] = args.u_csv
    if args.tau_csv is not None:
        cfg["tau_csv"] = args.tau_csv
    if args.plot is not None:
        cfg["svg"] = args.plot

    sol = solve(cfg["problem"], n_t=cfg["n_t"], n_x=cfg["n_x"],
                quad=cfg["quad"], series=cfg["series"], strict=cfg["strict"])
    report = verify(cfg["problem"], sol, cfg["quad"], cfg["series"])

    _atomic_write(cfg["u_csv"], _u_csv_text(sol.t_grid, sol.x_grid, sol.u))
    _atomic_write(cfg["tau_csv"], _tau_csv_text(sol.x_grid, sol.tau.tau))
    written = [cfg["u_csv"], cfg["tau_csv"]]
    if cfg["svg"]:
        _atomic_write(cfg["svg"], _solution_svg(sol))
        written.append(cfg["svg"])

    print(f"{'A':<14} = {_fmt(sol.A)}")
    print(f"{'divisor':<14} = {_fmt(sol.diagnostics['a_true'])}")
    for line in _report_lines(report):
        print(line)
    print("wrote " + " ".join(written))
    return _EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    problem = cfg["problem"]
    t_grid, x_grid, u = _read_u_csv(args.u_csv, cfg["n_t"], cfg["n_x"])
    want_t = np.linspace(0.0, problem.domain.q, cfg["n_t"] + 1)
    want_x = np.linspace(0.0, problem.domain.p, cfg["n_x"] + 1)
    if not (np.allclose(t_grid, want_t, rtol=0, atol=1e-12)
            and np.allclose(x_grid, want_x, rtol=0, atol=1e-12)):
        raise InvalidData(f"{args.u_csv}: grids do not match the config domain")
    sol = GridSolution(t_grid=t_grid, x_grid=x_grid, u=u,
                       tau=TraceSolution(x_grid, u[0, :]), A=float("nan"),
                       compatibility=float("nan"))
    report = verify(problem, sol, cfg["quad"], cfg["series"])
    for line in _report_lines(report):
        print(line)
    if report.passes():
        print("verify: all residual thresholds met")
        return _EXIT_OK
    print("verify: residual thresholds exceeded", file=sys.stderr)
    return _EXIT_CHECK_FAILED


def cmd_selftest(args) -> int:
    from .acceptance import format_results, run_checks
    if args.regen_fixtures:
        from .oracle import fixtures_path, generate_fixtures
        generate_fixtures()
        print(f"fixtures rewritten: {fixtures_path()}")
    results = run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return _EXIT_INPUT
    print(format_results(results))
    return _EXIT_OK if all(passed for _, passed, *_ in results) \
        else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _add_series_flags(sub) -> None:
    sub.add_argument("--rel-tol", type=float, default=1e-12,
                     help="series relative tolerance (default 1e-12)")
    sub.add_argument("--max-terms", type=int, default=2000,
                     help="cap per summation index (default 2000)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prabtel",
        description="Nonlocal telegraph problem solver with Prabhakar "
                    "fractional operators.",
        epilog="Expression grammar: +, -, *, /, ^ (right-associative, binds "
               "tighter than unary minus), exp, ln, sin, cos, sqrt, abs, pow, "
               "constants pi and e, variables t and x.")
    subs = parser.add_subparsers(dest="command", required=True)

    ml = subs.add_parser("ml", help="three-parameter Mittag-Leffler value")
    for name in ("alpha", "beta", "gamma", "z"):
        ml.add_argument(f"--{name}", type=float, required=True)
    _add_series_flags(ml)
    ml.set_defaults(func=cmd_ml)

    m2 = subs.add_parser("ml2", help="bivariate Mittag-Leffler type value")
    for name in _ML2_FIELDS:
        m2.add_argument(f"--{name}", type=float, required=True)
    m2.add_argument("--x", type=float, required=True)
    m2.add_argument("--y", type=float, required=True)
    _add_series_flags(m2)
    m2.set_defaults(func=cmd_ml2)

    m3 = subs.add_parser("ml3", help="trivariate value via the solution-"
                                     "formula variant packings")
    m3.add_argument("--variant", required=True, choices=("V1", "V2", "V3", "V4"))
    for name in ("alpha", "beta", "gamma", "delta", "x", "y", "z"):
        m3.add_argument(f"--{name}", type=float, required=True)
    _add_series_flags(m3)
    m3.set_defaults(func=cmd_ml3)

    def add_grid_overrides(sub):
        sub.add_argument("--n-t", type=int, default=None,
                         help="override grid.n_t from the config")
        sub.add_argument("--n-x", type=int, default=None,
                         help="override grid.n_x from the config")

    sv = subs.add_parser("solve", help="solve the problem from a JSON config")
    sv.add_argument("config", help="path to the run config")
    add_grid_overrides(sv)
    sv.add_argument("--mode", choices=("strict", "relaxed"), default=None,
                    help="override the config mode")
    sv.add_argument("--u-csv", default=None, help="solution table path")
    sv.add_argument("--tau-csv", default=None, help="trace table path")
    sv.add_argument("--plot", default=None, metavar="SVG",
                    help="also write an SVG chart of tau and u sections")
    sv.set_defaults(func=cmd_solve)

    vf = subs.add_parser("verify", help="recompute residuals of a stored solution")
    vf.add_argument("config", help="path to the run config")
    vf.add_argument("u_csv", help="solution table written by solve")
    add_grid_overrides(vf)
    vf.set_defaults(func=cmd_verify)

    st = subs.add_parser("selftest", help="run the acceptance checks")
    st.add_argument("--filter", default="",
                    help="run only checks whose name contains this text")
    st.add_argument("--regen-fixtures", action="store_true",
                    help="rewrite the high-precision oracle fixtures first")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES
                    if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
