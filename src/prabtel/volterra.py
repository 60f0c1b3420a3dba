"""Reduction of the nonlocal condition to a second-kind Volterra equation.

Substituting the closed-form solution into the nonlocal condition

    u(0,x) - int_0^q M(t) u(t,x) dt = psi(x)

collapses the problem to a convolution equation for the initial trace
tau(x) = u(0,x):

    tau(x) - (ab/A) int_0^x tau(xi) M1(x - xi) dxi = g(x)/A,

with the weighted-moment constant A, the kernel M1 built from the V2
series instance, and a right-hand side g assembled from psi, phi, M and
the forcing.  ``assemble_system`` produces the discrete system on a
uniform x-grid from a caller's ``TeleEngine`` and ``ForcingTerm``,
``solve_tau`` runs the lower-triangular Nystrom sweep, and
``picard_solve`` cross-checks it by successive approximations.

Each assembly level evaluates each kernel family once: the shifted
family (E2, V1, V2) through one coefficient vector (``_TRules.cm``), the
base family (V3, V4) through the tables of one eta-mesh of the grid
fill's time convolution, whose rows the phi and forcing double integrals
sum against M (``_g_values``).

A note on the constant.  Two closely related constants appear:

    A_display = int_0^q M(t) (1 - a G(gamma) t^beta E2(...)) dt
    A_reduce  = 1 - int_0^q M dt - a G(gamma) int_0^q M t^beta E2 dt

The first, ``diagnostics["a_display"]``, is the quantity whose
positivity bound A > int M dt holds for a < 0, M >= 0.  The divisor of
the reduced equation is the second: it is what makes G(0) = phi(0) under
the compatibility condition, and constant data then solve the system
with tau identically constant.  ``VolterraSystem.A`` stores the divisor;
``diagnostics`` records both.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cache import TABLES
from .errors import (
    DegenerateNonlocal,
    InvalidData,
    MaxIterExceeded,
    SingularStep,
)
from .fracops import PrabhakarParams
from .goursat import (
    Domain2D,
    TeleEngine,
    TelegraphCoeffs,
    TraceSolution,
    _check_forcing,
    _EtaConv,
)
from .quadrature import (
    _GRADING,
    WeightedRule,
    _call_on,
    _is_lattice,
    _toeplitz_matrix,
    _trapezoid_vec,
    build_rule,
    graded_mesh,
)

A_TOL = 1e-10

# M is declared degenerate when it never exceeds this at the sample nodes
_M_ZERO_TOL = 1e-14

# nodes per block of the trace solve: one matrix-vector product and one
# dense solve each
_TAU_BLOCK = 32


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
    has the weight t^beta and ``mw`` holds its weights times M.  ``cm``
    is the shifted family's coefficient vector int_0^q M t^beta c(m; t) dt
    (m_cap): E2, V1 and V2 all read it.
    """

    flat: WeightedRule
    m_flat: np.ndarray
    beta: WeightedRule
    mw: np.ndarray
    cm: np.ndarray


def _t_rules(engine: TeleEngine, M, domain: Domain2D,
             n: int) -> _TRules:
    """Unit-weight (trapezoid) and t^beta-weight product rules, refined 4x.

    The 1-D t-integrals are cheap next to the grid evaluation, so they
    run on 4 n cells, finer than the level's eta-mesh of n cells, to keep
    their error subdominant.  The rules and the level's one shifted
    ``cvec`` call depend on the engine, q and the cells alone, and are
    kept in ``cache.TABLES``; M is sampled on every call.
    """
    cells = 4 * n

    def build():
        nodes = graded_mesh(domain.q, cells, 1.0).nodes
        flat = WeightedRule(nodes=nodes, weights=_trapezoid_vec(nodes))
        beta = engine.params.beta
        r = max(_GRADING, 1.0 / beta)
        rule = build_rule(beta, graded_mesh(domain.q, cells, r))
        return flat, rule, engine.cvec(rule.nodes, shifted=True)

    flat, rule, c = TABLES.get(
        (engine.key, "t_rules", float(domain.q), cells), build)
    m_flat = _sample_m(M, flat.nodes)
    mw = rule.weights * _sample_m(M, rule.nodes)
    return _TRules(flat, m_flat, rule, mw, c @ mw)


def _a_integrals(engine: TeleEngine, rules: _TRules) -> tuple:
    """(int M dt, a G(gamma) int M t^beta E2 dt) on [0, q]; G(gamma) E2
    sums the shifted coefficients over m, so the second is a sum(cm)."""
    i_m = float(rules.flat.weights @ rules.m_flat)
    i_e = engine.coeffs.a * float(rules.cm.sum())
    return i_m, i_e


def _m1_at(engine: TeleEngine, rules: _TRules, diffs: np.ndarray,
           variant: str = "V2") -> np.ndarray:
    """M1 at an array of displacements: int_0^q M t^beta F2(.., b s, ..) dt,
    the level's ``cm`` folded with jw["V2"]; ``variant="V1"`` gives the
    same integral of F1, which the phi(0) term of g weighs."""
    return engine.ypowers(diffs) @ (engine.jw[variant].T @ rules.cm)


def _eta_weights(conv: _EtaConv, eps1: float) -> np.ndarray:
    """wt with int_0^q M R dt ~ sum_k wt[k] M(t_k) R_k over the rows R_k
    of ``conv``, R ~ t^p, p = beta - eps1: the t^p product rule on the
    mesh over t_k^p, and at t = 0 the rule's weight times the limit of
    R / t^p per y(0) at m = 0, kt["base"][0, 0] B(beta, 1 - eps1).  Kept
    in ``cache.TABLES``."""
    def build():
        beta = conv.engine.params.beta
        p = beta - eps1
        wt = build_rule(p, graded_mesh(conv.t_max, conv.cells, 1.0)).weights
        wt[1:] /= conv.etas[1:] ** p
        wt[0] *= conv.engine.kt["base"][0, 0] * math.exp(
            math.lgamma(beta) + math.lgamma(1.0 - eps1) - math.lgamma(p + 1.0))
        return wt

    return TABLES.get(conv.key + ("weights", eps1), build)


def _phi_sum(conv: _EtaConv, a: np.ndarray, phi_eta: np.ndarray) -> np.ndarray:
    """phi_eta @ ``conv.adjoint(a)`` plus a[0] phi(0) at m = 0, by one
    correlation of a and phi against ``inner``: no W for one column."""
    corr = np.correlate(a[1:], phi_eta[1:], "full")[conv.cells - 1:][::-1]
    out = corr @ conv.inner + phi_eta[0] * (a[1:] @ conv.left[::-1])
    out[0] += a[0] * phi_eta[0]
    return out


def _g_values(engine: TeleEngine, rules: _TRules, M, phi, psi, forcing,
              domain: Domain2D, n: int, x_arr: np.ndarray) -> np.ndarray:
    """Right-hand side g on an array of x values (display normalization).

    ``rules`` are the t-rules of the level (``_t_rules`` of n); ``forcing``
    is a ForcingTerm on x_arr, or None.  The phi (V3) and forcing (V4)
    double integrals sum the rows R of the grid fill's time convolution,
    on an eta-mesh of n cells, to int_0^q M R dt (``_EtaConv.adjoint``,
    ``_eta_weights``).  The mesh's tables and weights are kept in
    ``cache.TABLES``; M, phi, psi and f are sampled on every call.
    """
    co, q = engine.coeffs, domain.q
    phi0 = float(phi(0.0))
    out = _call_on(psi, x_arr).copy()

    flat = rules.flat
    c_phi = float((flat.weights * rules.m_flat)
                  @ (_call_on(phi, flat.nodes) - phi0))
    out += np.exp(co.b * x_arr) * c_phi

    out -= co.a * phi0 * _m1_at(engine, rules, x_arr, "V1")

    conv = _EtaConv(engine, q, n)
    m_eta = _call_on(M, conv.etas)
    a = _eta_weights(conv, 0.0) * m_eta
    cacc = _phi_sum(conv, a, _call_on(phi, conv.etas))
    j3 = engine.ypowers(x_arr) @ (engine.jw["V3"].T @ cacc)
    out += co.a * co.b * x_arr * j3

    if forcing is not None:
        if forcing.eps1 > 0.0:
            a = _eta_weights(conv, forcing.eps1) * m_eta
        w = conv.adjoint(a, forcing.eps1)
        w[0, 0] += a[0]
        out += forcing.q @ (forcing._sample(conv.etas).T @ w).ravel()
    return out


_STRICT_NOTE = ("uniqueness is only proven for a < 0, b < 0, delta < 0, "
                "alpha = 1, gamma = beta; proceeding on |A| > A_TOL alone")


def _regime_failures(params: PrabhakarParams, coeffs: TelegraphCoeffs) -> list:
    checks = (
        (coeffs.a < 0.0, f"a = {coeffs.a} (needs a < 0)"),
        (coeffs.b < 0.0, f"b = {coeffs.b} (needs b < 0)"),
        (params.delta < 0.0, f"delta = {params.delta} (needs delta < 0)"),
        (params.alpha == 1.0, f"alpha = {params.alpha} (needs alpha = 1)"),
        (params.gamma == params.beta,
         f"gamma = {params.gamma} (needs gamma = beta = {params.beta})"),
    )
    return [msg for ok, msg in checks if not ok]


def _in_strict_regime(params: PrabhakarParams,
                      coeffs: TelegraphCoeffs) -> bool:
    return 0.0 < params.beta < 1.0 and not _regime_failures(params, coeffs)


def _outside_stacklevel() -> int:
    """The caller's ``warnings.warn`` stacklevel of the first frame
    outside this package: the user's call of a public stage."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_globals.get(
            "__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


def assemble_system(engine: TeleEngine, domain: Domain2D, M, phi, psi,
                    forcing, x_grid: np.ndarray) -> VolterraSystem:
    """Build the discrete trace equation on a uniform x-grid from 0.

    ``forcing`` is a ForcingTerm of this engine on x_grid, or None; both
    levels read its xi-moments.  The eta-mesh takes as many cells as the
    x-grid, at least 16, the t-rules four times as many.  Diagnostics carry the
    display constant (``a_display``, the quantity whose bound
    A > int M dt holds for a < 0, M >= 0), the divisor, the M mass, and
    coarse-vs-fine refinement deltas for the kernel and right-hand side
    assembly.  Outside the strict regime it warns (RuntimeWarning) and
    goes on.
    """
    params, coeffs = engine.params, engine.coeffs
    if not _in_strict_regime(params, coeffs):
        warnings.warn(_STRICT_NOTE, RuntimeWarning,
                      stacklevel=_outside_stacklevel())
    x_grid = np.asarray(x_grid, dtype=float)
    if not _is_lattice(x_grid):
        raise InvalidData("x_grid must be uniform and ascend from 0")
    _check_forcing(forcing, engine, x_grid)
    # at least 16 cells, so that the coarse level, max(n // 2, 8) cells,
    # is another one
    n = max(x_grid.size - 1, 16)
    rules = _t_rules(engine, M, domain, n)
    i_m, i_e = _a_integrals(engine, rules)
    a_display = i_m - i_e
    a_true = 1.0 - i_m - i_e
    if not abs(a_true) > A_TOL:
        raise DegenerateNonlocal(
            f"reduction divisor |1 - int M - E2 moment| = {abs(a_true):.3g} "
            f"does not clear {A_TOL}")

    m1 = _m1_at(engine, rules, x_grid)
    m2 = _toeplitz_matrix(m1) / a_true
    g = _g_values(engine, rules, M, phi, psi, forcing, domain, n, x_grid)

    coarse = max(n // 2, 8)
    rules_c = _t_rules(engine, M, domain, coarse)
    i_m_c, i_e_c = _a_integrals(engine, rules_c)
    m1_c = _m1_at(engine, rules_c, x_grid)
    g_c = _g_values(engine, rules_c, M, phi, psi, forcing, domain, coarse,
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
    """Blocked forward-substitution Nystrom solve of the trace equation.

    Trapezoid weights in xi make every row i depend on nodes j <= i
    only, so the system (I - coupling * w * m2) tau = rhs is lower
    triangular, with the pivots 1 - coupling * w_ii * m2_ii on its
    diagonal; all are checked first (SingularStep below 1e-12).  Then
    each block of ``_TAU_BLOCK`` nodes takes the known nodes in one
    matrix-vector product and its own lower-triangular block in one
    dense solve.  The block is solved with its rows and columns reversed:
    an upper-triangular matrix leaves row pivoting nothing to swap, so
    the solve is a substitution node by node, exact at the first node
    however large the kernel.  The discrete residual of the returned
    trace is an algebraic identity (reported in diagnostics, <= 1e-12).
    """
    x, rhs = system.x_grid, system.rhs
    kernel = system.coupling * (_trapezoid_weights(x) * system.m2)
    pivots = 1.0 - np.diagonal(kernel)
    small = np.flatnonzero(np.abs(pivots) < 1e-12)
    if small.size:
        i = small[0]
        raise SingularStep(
            f"pivot {pivots[i]:.3g} at node {i} (x={x[i]:.6g})")
    tau = np.empty(x.size)
    for lo in range(0, x.size, _TAU_BLOCK):
        hi = min(lo + _TAU_BLOCK, x.size)
        block = np.eye(hi - lo) - kernel[lo:hi, lo:hi]
        known = rhs[lo:hi] + kernel[lo:hi, :lo] @ tau[:lo]
        # contiguous copies: the solve ran slower on the reversed views
        tau[lo:hi] = np.linalg.solve(np.ascontiguousarray(block[::-1, ::-1]),
                                     known[::-1].copy())[::-1]
    residual = float(np.abs(tau - kernel @ tau - rhs).max())
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
