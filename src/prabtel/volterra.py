"""Reduction of the nonlocal condition to a second-kind Volterra equation.

Substituting the closed-form solution into the nonlocal condition

    u(0,x) - int_0^q M(t) u(t,x) dt = psi(x)

collapses the problem to a convolution equation for the initial trace
tau(x) = u(0,x):

    tau(x) - (ab/A) int_0^x tau(xi) M1(x - xi) dxi = g(x)/A,

with the weighted-moment constant A, the kernel M1 built from the V2
series instance, and a right-hand side g assembled from psi, phi, M and
the forcing.  ``assemble_system`` produces the discrete system on a
uniform x-grid, ``solve_tau`` runs the lower-triangular Nystrom sweep,
and ``picard_solve`` cross-checks it by successive approximations.

A note on the constant.  Two closely related constants appear:

    A_display = int_0^q M(t) (1 - a G(gamma) t^beta E2(...)) dt
    A_reduce  = 1 - int_0^q M dt - a G(gamma) int_0^q M t^beta E2 dt

``compute_A`` returns the first (the quantity whose positivity bound
A > int M dt holds for a < 0, M >= 0).  The divisor of the reduced
equation is the second: it is what makes G(0) = phi(0) under the
compatibility condition, and constant data then solve the system with
tau identically constant.  ``VolterraSystem.A`` stores the divisor;
``diagnostics`` records both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateNonlocal,
    InvalidData,
    MaxIterExceeded,
    SingularStep,
)
from .fracops import PrabhakarParams, QuadPolicy
from .goursat import (
    _CONV_CHUNK,
    Domain2D,
    TeleEngine,
    TelegraphCoeffs,
    TraceSolution,
    _forcing_term,
)
from .quadrature import WeightedRule, _call_on, build_rule, graded_mesh
from .specfun import SeriesPolicy

A_TOL = 1e-10

# M is declared degenerate when it never exceeds this at the sample nodes
_M_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class VolterraSystem:
    """Discretized trace equation tau = rhs + coupling * int m2 tau.

    ``m2`` holds kernel samples M2(xi_j, x_i) = M1(x_i - xi_j)/A for
    xi_j <= x_i (entries above the diagonal are never read); ``rhs``
    holds G = g/A at the nodes; ``coupling`` is the product a*b.
    """

    A: float
    x_grid: np.ndarray
    m2: np.ndarray
    rhs: np.ndarray
    coupling: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        m2 = np.asarray(self.m2, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "rhs", rhs)
        if not abs(self.A) > A_TOL:
            raise DegenerateNonlocal(
                f"|A| = {abs(self.A):.3g} does not clear {A_TOL}")
        n = x.size
        if x.ndim != 1 or n < 2 or not np.all(np.diff(x) > 0.0):
            raise InvalidData("x_grid must be ascending with >= 2 nodes")
        if m2.shape != (n, n) or rhs.shape != (n,):
            raise InvalidData(
                f"shape mismatch: m2 {m2.shape}, rhs {rhs.shape}, grid {n}")


def _trapezoid_weights(x_grid: np.ndarray) -> np.ndarray:
    """Lower-triangular trapezoid weights: row i integrates over [0, x_i].

    Row i holds h_0/2 at node 0, (h_{k-1} + h_k)/2 at the inner nodes
    0 < k < i and h_{i-1}/2 on the diagonal, with h = diff(x_grid).
    """
    n = x_grid.size
    if n < 2:
        return np.zeros((n, n))
    h = np.diff(x_grid)
    col = np.empty(n)
    col[0] = 0.5 * h[0]
    col[1:-1] = 0.5 * (h[:-1] + h[1:])
    col[-1] = 0.0
    w = np.tril(np.broadcast_to(col, (n, n)), -1)
    idx = np.arange(1, n)
    w[idx, idx] = 0.5 * h
    return w


def _sample_m(M, nodes: np.ndarray) -> np.ndarray:
    vals = _call_on(M, nodes)
    if np.abs(vals).max() <= _M_ZERO_TOL:
        raise InvalidData("weight M vanishes at every sample node")
    return vals


@dataclass(frozen=True)
class _TRules:
    """The t-rules on [0, q] of one assembly level, with M sampled once.

    ``flat`` has unit weight and ``m_flat`` holds M at its nodes; ``beta``
    has the weight t^beta and ``mw`` holds its weights times M.
    """

    flat: WeightedRule
    m_flat: np.ndarray
    beta: WeightedRule
    mw: np.ndarray


def _t_rules(engine: TeleEngine, M, domain: Domain2D,
             quad: QuadPolicy) -> _TRules:
    """Unit-weight and t^beta-weight product rules, refined 4x.

    The 1-D t-integrals are cheap next to the grid evaluation, so they
    run on a finer mesh than quad.n_points to keep their error
    subdominant.
    """
    cells = 4 * quad.n_points
    flat = build_rule(0.0, graded_mesh(domain.q, cells, 1.0))
    m_flat = _sample_m(M, flat.nodes)
    beta = engine.params.beta
    grading = max(quad.grading, 1.0 / beta)
    rule = build_rule(beta, graded_mesh(domain.q, cells, grading))
    return _TRules(flat, m_flat, rule, rule.weights * _sample_m(M, rule.nodes))


def _a_integrals(engine: TeleEngine, rules: _TRules) -> tuple:
    """(int M dt, a G(gamma) int M t^beta E2 dt) on [0, q]."""
    i_m = float(rules.flat.weights @ rules.m_flat)
    ge2 = engine.gamma_e2(rules.beta.nodes)
    i_e = engine.coeffs.a * float(rules.mw @ ge2)
    return i_m, i_e


def compute_A(params: PrabhakarParams, coeffs: TelegraphCoeffs, M,
              domain: Domain2D, quad: QuadPolicy = QuadPolicy(),
              series: SeriesPolicy = SeriesPolicy()) -> float:
    """Weighted-moment constant int_0^q M(t)(1 - a G(g) t^b E2(...)) dt.

    Raises InvalidData when M vanishes at every sample node and
    DegenerateNonlocal when the result does not clear A_TOL.
    """
    engine = TeleEngine(params, coeffs, domain.q, domain.p, series=series)
    i_m, i_e = _a_integrals(engine, _t_rules(engine, M, domain, quad))
    value = i_m - i_e
    if not abs(value) > A_TOL:
        raise DegenerateNonlocal(
            f"|A| = {abs(value):.3g} does not clear {A_TOL}")
    return value


def _m1_at(engine: TeleEngine, rules: _TRules,
           diffs: np.ndarray) -> np.ndarray:
    """M1 at an array of displacements: int_0^q M t^beta F2(.., b s, ..) dt."""
    return engine.fbar("V2", rules.beta.nodes, diffs) @ rules.mw


def kernel_M1(params: PrabhakarParams, coeffs: TelegraphCoeffs, M,
              xi: float, x: float, domain: Domain2D,
              quad: QuadPolicy = QuadPolicy(),
              series: SeriesPolicy = SeriesPolicy()) -> float:
    """Convolution kernel M1(xi, x); depends on the pair through x - xi."""
    if not (0.0 <= xi <= x <= domain.p):
        raise InvalidData(
            f"kernel arguments must satisfy 0 <= xi <= x <= p, "
            f"got ({xi}, {x})")
    engine = TeleEngine(params, coeffs, domain.q, domain.p, series=series)
    rules = _t_rules(engine, M, domain, quad)
    return float(_m1_at(engine, rules, np.array([x - xi]))[0])


def _g_values(engine: TeleEngine, rules: _TRules, M, phi, psi, forcing,
              domain: Domain2D, quad: QuadPolicy,
              x_arr: np.ndarray) -> np.ndarray:
    """Right-hand side g on an array of x values (display normalization).

    ``rules`` are the t-rules of ``quad``; ``forcing`` is a ForcingTerm on
    x_arr with the eta rules of ``quad``, or None.
    """
    co, q = engine.coeffs, domain.q
    phi0 = float(phi(0.0))
    out = _call_on(psi, x_arr).copy()

    flat = rules.flat
    c_phi = float((flat.weights * rules.m_flat)
                  @ (_call_on(phi, flat.nodes) - phi0))
    out += np.exp(co.b * x_arr) * c_phi

    out -= co.a * phi0 * (engine.fbar("V1", rules.beta.nodes, x_arr)
                          @ rules.mw)

    # double integral of phi against V3: with v = q - eta the factor
    # (q-eta)^beta from the inner s = t - eta integral becomes the
    # product weight v^beta of the outer rule; the x-dependence of the
    # V3 instance factors through its y-power block, so the whole
    # double sum collapses into one coefficient vector.  The inner lags
    # are v times the unit inner nodes: one lag table serves every v,
    # and M is sampled on a block of (v, inner node) pairs at a time.
    beta = engine.params.beta
    grading = max(quad.grading, 1.0 / beta)
    outer = build_rule(beta, graded_mesh(q, quad.n_points, grading))
    inner = build_rule(beta - 1.0, graded_mesh(1.0, quad.n_points, grading))
    table = engine.lag_table(inner.nodes)
    keep = (outer.nodes > 0.0) & (outer.weights != 0.0)
    vs, ws = outer.nodes[keep], outer.weights[keep]
    cacc = np.zeros(engine.m_cap)
    step = max(1, _CONV_CHUNK // inner.nodes.size)
    for lo in range(0, vs.size, step):
        v = vs[lo:lo + step, None]
        eta = q - v
        mv = _call_on(M, (eta + v * inner.nodes).ravel()).reshape(v.size, -1)
        wphi = ws[lo:lo + step, None] * _call_on(phi, eta[:, 0])[:, None]
        cacc += engine.lag_conv(table, v[:, 0], wphi * inner.weights * mv,
                                shifted=False).sum(axis=0)
    j3 = engine.ypowers(x_arr) @ (engine.jw["V3"].T @ cacc)
    out += co.a * co.b * x_arr * j3

    if forcing is not None:
        f_outer = build_rule(0.0, graded_mesh(
            q, max(quad.n_points // 2, 16), grading))
        out += forcing.integral(f_outer.nodes,
                                f_outer.weights * _call_on(M, f_outer.nodes))
    return out


def rhs_g(params: PrabhakarParams, coeffs: TelegraphCoeffs, M, phi, psi, f,
          x: float, domain: Domain2D, quad: QuadPolicy = QuadPolicy(),
          series: SeriesPolicy = SeriesPolicy(),
          eps1: float = 0.0, eps2: float = 0.0) -> float:
    """Right-hand side g(x) of the reduced trace equation."""
    if not (0.0 <= x <= domain.p):
        raise InvalidData(f"x must lie in [0, p], got {x}")
    engine = TeleEngine(params, coeffs, domain.q, domain.p, series=series)
    x_arr = np.array([x])
    forcing = _forcing_term(engine, f, eps1, eps2, x_arr, quad)
    rules = _t_rules(engine, M, domain, quad)
    return float(_g_values(engine, rules, M, phi, psi, forcing, domain, quad,
                           x_arr)[0])


_STRICT_NOTE = ("uniqueness is only proven for a < 0, b < 0, delta < 0, "
                "alpha = 1, gamma = beta; proceeding on |A| > A_TOL alone")


def _in_strict_regime(params: PrabhakarParams,
                      coeffs: TelegraphCoeffs) -> bool:
    return (coeffs.a < 0.0 and coeffs.b < 0.0 and params.delta < 0.0
            and params.alpha == 1.0 and params.gamma == params.beta
            and 0.0 < params.beta < 1.0)


def assemble_system(params: PrabhakarParams, coeffs: TelegraphCoeffs,
                    domain: Domain2D, M, phi, psi, f=None,
                    eps1: float = 0.0, eps2: float = 0.0,
                    quad: QuadPolicy = QuadPolicy(),
                    series: SeriesPolicy = SeriesPolicy()) -> VolterraSystem:
    """Build the discrete trace equation on a uniform x-grid.

    The grid has quad.n_points cells on [0, p], the t-rules at least 16.
    Diagnostics carry the display constant, the divisor, the M mass,
    and coarse-vs-fine refinement deltas for the kernel and right-hand
    side assembly.
    """
    engine = TeleEngine(params, coeffs, domain.q, domain.p, series=series)
    x_grid = np.linspace(0.0, domain.p, quad.n_points + 1)
    forcing = _forcing_term(engine, f, eps1, eps2, x_grid, quad)
    return _assemble(engine, domain, M, phi, psi, forcing, quad, x_grid)


def _assemble(engine: TeleEngine, domain: Domain2D, M, phi, psi, forcing,
              quad: QuadPolicy, x_grid: np.ndarray) -> VolterraSystem:
    """``assemble_system`` on a given engine and x-grid.

    ``forcing`` is a ForcingTerm on x_grid with the eta rules of
    ``quad``, or None; the coarse level reuses its xi-moments.
    """
    params, coeffs = engine.params, engine.coeffs
    if not _in_strict_regime(params, coeffs):
        warnings.warn(_STRICT_NOTE, RuntimeWarning, stacklevel=3)
    # at least 16 cells, so that the coarse level, max(n // 2, 8) cells,
    # is another one; the eta rules of ``forcing`` (max(n // 2, 8)
    # cells) are the same below 16
    quad = QuadPolicy(n_points=max(quad.n_points, 16), grading=quad.grading,
                      tol=quad.tol)
    rules = _t_rules(engine, M, domain, quad)
    i_m, i_e = _a_integrals(engine, rules)
    a_display = i_m - i_e
    a_true = 1.0 - i_m - i_e
    if not abs(a_true) > A_TOL:
        raise DegenerateNonlocal(
            f"reduction divisor |1 - int M - E2 moment| = {abs(a_true):.3g} "
            f"does not clear {A_TOL}")

    diffs = x_grid - x_grid[0]
    m1 = _m1_at(engine, rules, diffs)
    idx = np.arange(x_grid.size)
    m2 = np.tril(m1[np.maximum(idx[:, None] - idx[None, :], 0)]) / a_true
    g = _g_values(engine, rules, M, phi, psi, forcing, domain, quad, x_grid)

    coarse = QuadPolicy(n_points=max(quad.n_points // 2, 8),
                        grading=quad.grading, tol=quad.tol)
    rules_c = _t_rules(engine, M, domain, coarse)
    i_m_c, i_e_c = _a_integrals(engine, rules_c)
    m1_c = _m1_at(engine, rules_c, diffs)
    forcing_c = None if forcing is None else forcing.with_rules(coarse)
    g_c = _g_values(engine, rules_c, M, phi, psi, forcing_c, domain, coarse,
                    x_grid)
    diagnostics = {
        "a_display": a_display,
        "a_true": a_true,
        "m_mass": i_m,
        "e2_moment": i_e,
        "a_refinement_delta": abs((i_m - i_e) - (i_m_c - i_e_c)),
        "m1_refinement_delta": float(np.abs(m1 - m1_c).max()),
        "g_refinement_delta": float(np.abs(g - g_c).max()),
    }
    return VolterraSystem(A=a_true, x_grid=x_grid, m2=m2, rhs=g / a_true,
                          coupling=coeffs.a * coeffs.b,
                          diagnostics=diagnostics)


def solve_tau(system: VolterraSystem) -> TraceSolution:
    """Forward-substitution Nystrom solve of the trace equation.

    Trapezoid weights in xi make every row i depend on nodes j <= i
    only; each step divides by the pivot 1 - coupling * w_ii * m2_ii.
    The discrete residual of the returned trace is an algebraic
    identity (reported in diagnostics, <= 1e-12).
    """
    x, m2, rhs, c = system.x_grid, system.m2, system.rhs, system.coupling
    w = _trapezoid_weights(x)
    n = x.size
    tau = np.zeros(n)
    tau[0] = rhs[0]
    for i in range(1, n):
        pivot = 1.0 - c * w[i, i] * m2[i, i]
        if abs(pivot) < 1e-12:
            raise SingularStep(f"pivot {pivot:.3g} at node {i} (x={x[i]:.6g})")
        acc = rhs[i] + c * float((w[i, :i] * m2[i, :i]) @ tau[:i])
        tau[i] = acc / pivot
    residual = float(np.abs(
        tau - c * (w * m2) @ tau - rhs).max())
    return TraceSolution(x_grid=x.copy(), tau=tau,
                         diagnostics={"residual": residual})


def picard_solve(system: VolterraSystem, max_iter: int = 200,
                 tol: float = 1e-12) -> TraceSolution:
    """Successive approximations tau <- rhs + coupling * int m2 tau.

    Starts from tau = rhs; Volterra structure makes the iteration
    contract after finitely many sweeps.  Raises MaxIterExceeded when
    the successive max-norm difference has not dropped below tol.
    """
    w = _trapezoid_weights(system.x_grid)
    kernel = system.coupling * (w * system.m2)
    tau = system.rhs.copy()
    for it in range(1, max_iter + 1):
        nxt = system.rhs + kernel @ tau
        delta = float(np.abs(nxt - tau).max())
        tau = nxt
        if delta < tol:
            return TraceSolution(x_grid=system.x_grid.copy(), tau=tau,
                                 diagnostics={"iterations": it,
                                              "last_delta": delta})
    raise MaxIterExceeded(
        f"no fixed point after {max_iter} sweeps (last delta {delta:.3g})")
