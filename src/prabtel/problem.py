"""Problem-level driver: validate the data, solve for the trace, evaluate
the solution surface, and verify every imposed condition numerically.

The boundary value problem couples the generalized telegraph equation

    d/dx(D u) - a du/dx - b D u = f(t, x),   0 < t < q, 0 < x < p,

where D is the Caputo-Prabhakar derivative in t, with the boundary value
u(t, 0) = phi(t) and the nonlocal initial condition

    u(0, x) - int_0^q M(t) u(t, x) dt = psi(x).

solve() reduces the unknown trace tau(x) = u(0, x) to a second-kind
Volterra equation, solves it by Nystrom forward substitution, and fills
the grid from the closed-form representation.  verify() re-differentiates
the computed samples numerically (product integration in t against the
exact derivative kernel, central differences in x) and reports max-norm
defects of the equation, the boundary value, the nonlocal condition, and
the data compatibility identity phi(0) - int M phi dt - psi(0) = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cache import TABLES, exact_key
from .errors import InvalidData, InvalidParams, RegimeViolation
from .fracops import PrabhakarParams, QuadPolicy, _fractional_rows
from .goursat import (
    Domain2D,
    ForcingTerm,
    TeleEngine,
    TelegraphCoeffs,
    TraceSolution,
    _CORNER_TOL,
    _check_exponents,
    _is_zero_forcing,
    goursat_grid,
)
from .quadrature import (_call_grid, _call_on, _is_lattice, _trapezoid_vec,
                         graded_mesh)
from .specfun import SeriesPolicy
from .volterra import (_M_ZERO_TOL, _in_strict_regime, _outside_stacklevel,
                       _regime_failures, assemble_system, solve_tau)

__all__ = [
    "ProblemN",
    "GridSolution",
    "ResidualReport",
    "compatibility_check",
    "solve",
    "verify",
]

# the nonlocal weight must not vanish identically; probed on this many
# uniformly spaced samples
_M_PROBE = 129

# the reduced right-hand side must reproduce phi(0) at x = 0 for the trace
# and the boundary data to meet at the corner
_G0_TOL = 1e-6


@dataclass(frozen=True)
class ProblemN:
    """Data of the nonlocal boundary value problem.

    phi is the boundary value on [0, q], psi the nonlocal right-hand side
    on [0, p], M the nonlocal weight on [0, q], and f_smooth the smooth
    forcing factor: the full forcing is t^-eps1 x^-eps2 f_smooth(t, x),
    or zero when f_smooth is None.
    """

    params: PrabhakarParams
    coeffs: TelegraphCoeffs
    domain: Domain2D
    phi: object
    psi: object
    M: object
    f_smooth: object = None
    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.params.beta < 1.0):
            raise InvalidParams(
                f"derivative order beta must lie in (0, 1), got {self.params.beta}")
        _check_exponents(self.params.beta, self.eps1, self.eps2)
        t_probe = np.linspace(0.0, self.domain.q, _M_PROBE)
        m_vals = _call_on(self.M, t_probe)
        if not np.all(np.isfinite(m_vals)):
            raise InvalidData("nonlocal weight M is not finite on [0, q]")
        if float(np.abs(m_vals).max()) <= _M_ZERO_TOL:
            raise InvalidData(
                "nonlocal weight M vanishes identically within sampling tolerance")
        for name, fn, where in (("phi", self.phi, (0.0, self.domain.q)),
                                ("psi", self.psi, (0.0, self.domain.p))):
            vals = _call_on(fn, np.asarray(where))
            if not np.all(np.isfinite(vals)):
                raise InvalidData(f"data function {name} is not finite on its interval")
        if not _is_zero_forcing(self.f_smooth):
            probe = _call_grid(self.f_smooth, np.array([self.domain.q]),
                               np.array([self.domain.p]))
            if not np.all(np.isfinite(probe)):
                raise InvalidData("forcing factor f_smooth is not finite")

    @property
    def strict_regime(self) -> bool:
        """Whether the coefficients sit in the proven-uniqueness regime
        (a < 0, b < 0, delta < 0, alpha = 1, gamma = beta)."""
        return _in_strict_regime(self.params, self.coeffs)

    def forcing_grid(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Full forcing on the (t x x) grid of positive times, f_smooth
        sampled by ``quadrature._call_grid``."""
        if _is_zero_forcing(self.f_smooth):
            return np.zeros((t.size, x.size))
        grid = _call_grid(self.f_smooth, t, x)
        if self.eps1 > 0.0:
            grid = grid * np.array([tk ** (-self.eps1)
                                    for tk in t.tolist()])[:, None]
        if self.eps2 > 0.0:
            grid = grid * x ** (-self.eps2)
        return grid


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm defects of a computed solution.

    boundary = max_t |u(t, 0) - phi(t)|; nonlocal_defect =
    max_x |u(0, x) - int_0^q M u dt - psi(x)| with the t-integral by
    trapezoid on the solution grid; pde = max over interior grid nodes of
    |d/dx(Du) - a u_x - b Du - f| with both derivatives taken numerically
    from the samples; compatibility = |phi(0) - int M phi dt - psi(0)|,
    a property of the data alone.
    """

    boundary: float
    nonlocal_defect: float
    pde: float
    compatibility: float

    def passes(self, boundary_tol: float = 1e-3, nonlocal_tol: float = 1e-3,
               pde_tol: float = 5e-2) -> bool:
        """Whether the solution defects clear the thresholds.  The pde
        default is loose because two stacked numerical derivatives feed
        it; the compatibility defect describes the data, not the solver,
        and is not gated here."""
        return (self.boundary <= boundary_tol
                and self.nonlocal_defect <= nonlocal_tol
                and self.pde <= pde_tol)

    def as_dict(self) -> dict:
        return {
            "boundary": self.boundary,
            "nonlocal": self.nonlocal_defect,
            "pde": self.pde,
            "compatibility": self.compatibility,
        }


@dataclass
class GridSolution:
    """Solution samples u[i, j] = u(t_i, x_j) on uniform grids from 0 (as
    ``solve`` builds them; else InvalidData), with the trace and constants.

    A is the nonlocal constant int_0^q M(t) (1 - a Gamma(gamma) t^beta
    E2(a t^beta, delta t^alpha)) dt; the reduction divisor actually
    inverted sits in diagnostics["a_true"].  residuals is None until
    verify() fills it.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    u: np.ndarray
    tau: TraceSolution
    A: float
    compatibility: float
    residuals: ResidualReport | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        # contiguous copies so downstream reductions do not depend on the
        # stride pattern of whatever view the caller handed in
        t = np.ascontiguousarray(self.t_grid, dtype=float)
        x = np.ascontiguousarray(self.x_grid, dtype=float)
        u = np.ascontiguousarray(self.u, dtype=float)
        self.t_grid, self.x_grid, self.u = t, x, u
        for name, g in (("t_grid", t), ("x_grid", x)):
            if not _is_lattice(g):
                raise InvalidData(f"{name} must be uniform and ascend from 0")
        if u.shape != (t.size, x.size):
            raise InvalidData(
                f"u has shape {u.shape}, expected {(t.size, x.size)}")
        if not np.all(np.isfinite(u)):
            raise InvalidData("solution contains non-finite entries")


def compatibility_check(problem: ProblemN,
                        quad: QuadPolicy = QuadPolicy()) -> float:
    """Defect |phi(0) - int_0^q M phi dt - psi(0)| of the data identity.

    The integral combines two uniform piecewise-linear levels (2 and
    4 times quad.n_points cells) by Richardson extrapolation, so smooth
    data resolves to well below 1e-8; the caller decides what defect is
    acceptable.
    """
    def mesh(cells):
        nodes = graded_mesh(problem.domain.q, cells, 1.0).nodes
        return nodes, _trapezoid_vec(nodes)

    def level(cells):
        nodes, weights = TABLES.get(
            ("compat", float(problem.domain.q), cells), lambda: mesh(cells))
        m_vals = _call_on(problem.M, nodes)
        phi_vals = _call_on(problem.phi, nodes)
        return float(weights @ (m_vals * phi_vals))

    coarse = level(2 * quad.n_points)
    fine = level(4 * quad.n_points)
    integral = (4.0 * fine - coarse) / 3.0
    phi0 = float(np.asarray(problem.phi(0.0), dtype=float))
    psi0 = float(np.asarray(problem.psi(0.0), dtype=float))
    return abs(phi0 - integral - psi0)


def solve(problem: ProblemN, n_t: int = 64, n_x: int = 64,
          quad: QuadPolicy = QuadPolicy(),
          series: SeriesPolicy = SeriesPolicy(),
          strict: bool = True) -> GridSolution:
    """Solve the problem on a uniform (n_t + 1) x (n_x + 1) grid.

    Strict mode admits only the proven-uniqueness regime and requires the
    reduced right-hand side to reproduce phi(0) at x = 0; relaxed mode
    (strict=False) only needs a non-degenerate nonlocal constant and
    downgrades those two gates to RuntimeWarning.  The trace equation is
    discretized on the solution x-grid itself, so tau lands on the grid
    nodes with no interpolation; its eta-mesh takes max(n_x, 16) cells
    and its t-rules four times as many, while ``quad.n_points`` sizes the
    eta-mesh of the grid fill and the compatibility check.  The stages
    are the public ``assemble_system``, ``solve_tau`` and
    ``goursat_grid``, on one ``TeleEngine`` and one forcing term.  The
    engine comes from ``cache.TABLES``, keyed by (params, coeffs, q, p,
    max_terms_per_index), and the stages keep there what they build from
    it for the grids; a repeated solve of one operator only samples phi,
    psi, M and f again, and gives the same result bit for bit.
    """
    if n_t < 2 or n_x < 2:
        raise InvalidParams(f"grid needs n_t, n_x >= 2, got ({n_t}, {n_x})")
    if strict:
        failures = _regime_failures(problem.params, problem.coeffs)
        if failures:
            raise RegimeViolation(
                "strict mode rejects the coefficient regime: "
                + "; ".join(failures))
    # one engine and one forcing xi-moment table serve the assembly and
    # the grid fill: both run on (q, p) and on the same x-grid
    domain = problem.domain
    engine = TABLES.get(
        exact_key(problem.params, problem.coeffs, domain.q, domain.p,
                  series.max_terms_per_index),
        lambda: TeleEngine(problem.params, problem.coeffs, domain.q,
                           domain.p, series=series))
    x_grid = np.linspace(0.0, domain.p, n_x + 1)
    forcing = None if _is_zero_forcing(problem.f_smooth) else ForcingTerm(
        engine, problem.f_smooth, problem.eps1, problem.eps2, x_grid)
    system = assemble_system(engine, domain, problem.M, problem.phi,
                             problem.psi, forcing, x_grid)
    phi0 = float(np.asarray(problem.phi(0.0), dtype=float))
    g0_defect = abs(float(system.rhs[0]) - phi0)
    # widen the corner gate by the assembly's own refinement estimate so
    # coarse quadrature noise is not misread as incompatible data
    g_noise = 4.0 * float(system.diagnostics.get("g_refinement_delta", 0.0))
    g0_tol = max(_G0_TOL * max(1.0, abs(phi0)), g_noise / abs(system.A))
    if g0_defect > g0_tol:
        msg = (f"reduced right-hand side misses the corner: |G(0) - phi(0)| "
               f"= {g0_defect:.3g} exceeds {g0_tol:.3g} (boundary and "
               f"nonlocal data incompatible)")
        if strict:
            raise RegimeViolation(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=_outside_stacklevel())
    trace = solve_tau(system)
    t_grid = np.linspace(0.0, domain.q, n_t + 1)
    u = goursat_grid(engine, trace, problem.phi, forcing, t_grid, x_grid,
                     quad, corner_tol=max(_CORNER_TOL, 2.0 * g0_defect))
    diagnostics = dict(system.diagnostics)
    diagnostics["tau_residual"] = trace.diagnostics.get("residual")
    diagnostics["g0_defect"] = g0_defect
    diagnostics["strict_regime"] = problem.strict_regime
    if forcing is not None:
        diagnostics["forcing_rank"] = forcing.rank
    return GridSolution(t_grid=t_grid, x_grid=x_grid, u=u,
                        tau=trace, A=float(diagnostics["a_display"]),
                        compatibility=compatibility_check(problem, quad),
                        diagnostics=diagnostics)


def verify(problem: ProblemN, solution: GridSolution,
           quad: QuadPolicy = QuadPolicy(),
           series: SeriesPolicy = SeriesPolicy()) -> ResidualReport:
    """Check every imposed condition against the stored samples.

    The nonlocal integral uses the trapezoid rule on the solution t-grid;
    the equation defect stacks a product-integration fractional derivative
    in t with central differences in x on interior nodes, so it carries
    both reconstruction errors.  The compatibility defect is the one that
    ``solve`` stored on the solution; ``compatibility_check`` runs only
    when that is NaN (a solution read back from samples).  The report is
    also attached to solution.residuals.
    """
    t, x, u = solution.t_grid, solution.x_grid, solution.u
    if t.size < 3 or x.size < 3:
        raise InvalidData("verification needs interior nodes in both directions")
    boundary = float(np.abs(u[:, 0] - _call_on(problem.phi, t)).max())

    # fixed-order accumulation: the weighted rows, laid out C-contiguous
    # whatever the strides of u, are summed over axis 0 one row after the
    # other, which is bit-identical for equal values and uses no BLAS
    w_t = _trapezoid_vec(t) * _call_on(problem.M, t)
    integral = np.multiply(w_t[:, None], u, order="C").sum(axis=0)
    defect = u[0, :] - integral - _call_on(problem.psi, x)
    nonlocal_defect = float(np.abs(defect).max())

    # d/dx(Du) - a u_x is the central difference of Du - a u
    du = _fractional_rows(problem.params, t, u, series)
    a, b = problem.coeffs.a, problem.coeffs.b
    v = du[1:-1] - a * u[1:-1]
    res = (v[:, 2:] - v[:, :-2]) / (x[2:] - x[:-2])
    res -= b * du[1:-1, 1:-1]
    if not _is_zero_forcing(problem.f_smooth):
        res -= problem.forcing_grid(t[1:-1], x[1:-1])
    pde = float(np.abs(res).max())

    compatibility = solution.compatibility
    if math.isnan(compatibility):
        compatibility = compatibility_check(problem, quad)
    report = ResidualReport(boundary=boundary,
                            nonlocal_defect=nonlocal_defect, pde=pde,
                            compatibility=compatibility)
    solution.residuals = report
    return report
