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
``solve_tau`` solves it as the lower-triangular Toeplitz system it is,
and ``picard_solve`` cross-checks it by successive approximations.

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
    _toeplitz_product,
    _toeplitz_solve,
    _trapezoid_vec,
    build_rule,
    graded_mesh,
)

A_TOL = 1e-10

# M is declared degenerate when it never exceeds this at the sample nodes
_M_ZERO_TOL = 1e-14


@dataclass(frozen=True)
class VolterraSystem:
    """Discretized trace equation tau = rhs + coupling * int k(x - xi) tau.

    ``x_grid`` is a uniform lattice from 0 (``quadrature._is_lattice``);
    ``kernel`` is the convolution kernel at its nodes, k_i = M1(x_i)/A,
    the first column of the lower-triangular Toeplitz kernel matrix;
    ``rhs`` holds G = g/A at the nodes; ``coupling`` is the product a*b.
    """

    A: float
    x_grid: np.ndarray
    kernel: np.ndarray
    rhs: np.ndarray
    coupling: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        kernel = np.asarray(self.kernel, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "rhs", rhs)
        if not abs(self.A) > A_TOL:
            raise DegenerateNonlocal(
                f"|A| = {abs(self.A):.3g} does not clear {A_TOL}")
        if not _is_lattice(x):
            raise InvalidData("x_grid must be uniform and ascend from 0")
        if kernel.shape != x.shape or rhs.shape != x.shape:
            raise InvalidData(f"shape mismatch: kernel {kernel.shape}, "
                              f"rhs {rhs.shape}, grid {x.size}")


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
    return VolterraSystem(A=a_true, x_grid=x_grid, kernel=m1 / a_true,
                          rhs=g / a_true, coupling=coeffs.a * coeffs.b,
                          diagnostics=diagnostics)


def _kernel_product(system: VolterraSystem, tau: np.ndarray) -> np.ndarray:
    """K tau, the trapezoid rule of coupling * int_0^x k(x - xi) tau dxi:
    one Toeplitz product less half its two end terms (0 at x = 0)."""
    k, x = system.kernel, system.x_grid
    full = _toeplitz_product(k, tau) - 0.5 * (k * tau[0] + k[0] * tau)
    return system.coupling * x[-1] / (x.size - 1) * full


def solve_tau(system: VolterraSystem) -> TraceSolution:
    """Nystrom solve of the trace equation as the convolution it is.

    With ch = coupling * h, the trapezoid rule in xi leaves tau_0 = rhs_0
    and, for i >= 1, (1 - ch k_0 / 2) tau_i - ch sum_(0<j<i) k_(i-j) tau_j
    = rhs_i + ch k_i tau_0 / 2: a lower-triangular Toeplitz system with
    one pivot (SingularStep below 1e-12), which
    ``quadrature._toeplitz_solve`` inverts.  The discrete residual
    |tau - K tau - rhs|, one more convolution, is reported in diagnostics
    (<= 1e-12 max(1, max|tau|)).
    """
    x, k, rhs = system.x_grid, system.kernel, system.rhs
    ch = system.coupling * x[-1] / (x.size - 1)
    pivot = 1.0 - 0.5 * ch * k[0]
    if abs(pivot) < 1e-12:
        raise SingularStep(f"pivot {pivot:.3g} of the nodes x > 0")
    column = -ch * k[:-1]
    column[0] = pivot
    tau = np.empty(x.size)
    tau[0] = rhs[0]
    tau[1:] = _toeplitz_solve(column, rhs[1:] + 0.5 * ch * k[1:] * tau[0])
    residual = float(np.abs(tau - _kernel_product(system, tau) - rhs).max())
    return TraceSolution(x_grid=x.copy(), tau=tau,
                         diagnostics={"residual": residual})


def picard_solve(system: VolterraSystem, max_iter: int = 200,
                 tol: float = 1e-12) -> TraceSolution:
    """Successive approximations tau <- rhs + K tau from tau = rhs, one
    convolution per sweep; Volterra structure makes them contract.

    They reach the trace with no series reciprocal and no pivot, so they
    cross-check ``solve_tau``'s reciprocal against plain successive
    approximation.  Raises MaxIterExceeded when the successive max-norm
    difference has not dropped below tol.
    """
    tau = system.rhs.copy()
    for it in range(1, max_iter + 1):
        nxt = system.rhs + _kernel_product(system, tau)
        delta = float(np.abs(nxt - tau).max())
        tau = nxt
        if delta < tol:
            return TraceSolution(x_grid=system.x_grid.copy(), tau=tau,
                                 diagnostics={"iterations": it,
                                              "last_delta": delta})
    raise MaxIterExceeded(
        f"no fixed point after {max_iter} sweeps (last delta {delta:.3g})")
