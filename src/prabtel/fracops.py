"""Prabhakar fractional integral and Caputo-Prabhakar derivative.

The Prabhakar integral convolves the data with the weakly singular kernel
(t-xi)^(beta-1) E^gamma_{alpha,beta}[delta (t-xi)^alpha]. It is evaluated by
product integration: on each cell of a mesh graded toward the singularity,
the data is replaced by its linear interpolant while the kernel moments are
integrated exactly by summing the Mittag-Leffler series term by term (each
term is a power moment in closed form). The Caputo-Prabhakar derivative of
order 0 < beta < 1 is the same integral at substituted parameters
(alpha, 1-beta, -gamma, delta) applied to y'. Both the pointwise
derivative and the grid rows of ``verify`` take y' as the slope of the
piecewise-linear interpolant, so the derivative is a slope sum against
exact kernel moments (``_slope_weights``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cache import TABLES, exact_key
from .errors import DomainError, InvalidParams, NonConvergence, QuadratureFailure
from .quadrature import _call_on, _toeplitz_matrix, graded_mesh
from .specfun import _CONSECUTIVE_SMALL, SeriesPolicy, rgamma

__all__ = [
    "PrabhakarParams",
    "QuadPolicy",
    "prabhakar_integral",
    "caputo_prabhakar_deriv",
    "kernel_cell_moments",
]

_MAX_DOUBLINGS = 4


@dataclass(frozen=True)
class PrabhakarParams:
    """Order parameters (alpha, beta, gamma, delta) of the Prabhakar operators.

    m is the classical derivative order ceil(beta) used by the Caputo-type
    derivative; the problem solved here has 0 < beta < 1, so m = 1.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    m: int = field(init=False)

    def __post_init__(self):
        if not (self.alpha > 0):
            raise InvalidParams(f"alpha must be > 0, got {self.alpha}")
        for name in ("alpha", "beta", "gamma", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")
        object.__setattr__(self, "m", max(1, math.ceil(self.beta)))


@dataclass(frozen=True)
class QuadPolicy:
    """Product-integration policy: panel count and target accuracy.

    In ``goursat_grid`` (the grid fill of ``solve``), n_points is the
    number of cells of the shared eta-mesh, rounded up to a multiple of
    the number of t-cells, and ``compatibility_check`` integrates on 2
    and 4 times n_points cells.  ``assemble_system`` does not read it:
    its eta-mesh takes as many cells as its x-grid, at least 16.
    ``tol`` is read only by the adaptive refinement of
    ``prabhakar_integral`` and ``caputo_prabhakar_deriv``.  Every graded
    mesh takes the grading ``quadrature._GRADING``, raised to 1/beta in
    the trace assembly.
    """

    n_points: int = 256
    tol: float = 1e-8

    def __post_init__(self):
        if self.n_points < 4:
            raise InvalidParams("n_points must be >= 4")
        if not (self.tol > 0):
            raise InvalidParams("tol must be > 0")


def kernel_cell_moments(params: PrabhakarParams, cell_edges: np.ndarray,
                        series: SeriesPolicy = SeriesPolicy()) -> tuple:
    """Exact zeroth and first moments of the Prabhakar kernel on each cell.

    Returns arrays (M0, M1) with M0[j] = int over cell j of
    s^(beta-1) E^gamma_{alpha,beta}(delta s^alpha) ds and M1[j] the same
    with an extra factor s. Summed term by term: term m contributes the
    closed-form power moment of exponent alpha*m + beta - 1.
    """
    alpha, beta, gamma, delta = params.alpha, params.beta, params.gamma, params.delta
    if beta <= 0.0:
        raise DomainError(
            f"kernel exponent beta - 1 = {beta - 1} is not integrable")
    lo = cell_edges[:-1]
    hi = cell_edges[1:]
    m0 = np.zeros_like(lo)
    m1 = np.zeros_like(lo)
    tiny = 1e-300
    u = 1.0  # running (gamma)_m delta^m / m!
    small = 0
    for m in range(series.max_terms_per_index):
        if u == 0.0:
            # series terminated exactly (delta = 0 or negative-integer gamma)
            return m0, m1
        c = u * rgamma(alpha * m + beta)
        if c == 0.0:
            d0 = np.zeros_like(m0)
            d1 = d0
        else:
            p = alpha * m + beta
            d0 = c * (hi ** p - lo ** p) / p
            d1 = c * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
        m0 += d0
        m1 += d1
        if (np.all(np.abs(d0) <= series.rel_tol * np.maximum(np.abs(m0), tiny))
                and np.all(np.abs(d1)
                           <= series.rel_tol * np.maximum(np.abs(m1), tiny))):
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                return m0, m1
        else:
            small = 0
        u *= (gamma + m) * delta / (m + 1)
    raise NonConvergence(
        f"kernel moment series did not converge within {series.max_terms_per_index} terms")


def _integral_fixed_n(params: PrabhakarParams, y, t: float, n: int,
                      series: SeriesPolicy) -> tuple:
    """(integral value, weighted absolute mass) at a fixed panel count.

    The mass sum |w| |y| is the natural scale of the integral and calibrates
    the adaptive stopping tolerance.
    """
    s = graded_mesh(t, n).nodes
    m0, m1 = kernel_cell_moments(params, s, series)
    vals = _call_on(y, t - s)
    lo, hi = s[:-1], s[1:]
    h = hi - lo
    # linear interpolant of y(t - s) on each cell against exact moments
    w_lo = (hi * m0 - m1) / h
    w_hi = (m1 - lo * m0) / h
    value = float(np.sum(w_lo * vals[:-1] + w_hi * vals[1:]))
    mass = float(np.sum(np.abs(w_lo) * np.abs(vals[:-1])
                        + np.abs(w_hi) * np.abs(vals[1:])))
    return value, mass


def _refine(name: str, fixed_n, params: PrabhakarParams, y, t: float,
            quad: QuadPolicy, series: SeriesPolicy) -> float:
    """Value of the product rule fixed_n(params, y, t, n, series)
    -> (value, mass), doubling the panel count n from quad.n_points until
    the estimated error falls below quad.tol."""
    if not (t > 0.0):
        raise DomainError(f"upper limit t must be positive, got {t}")
    prev = None
    prev_ext = None
    for k in range(_MAX_DOUBLINGS + 1):
        cur, mass = fixed_n(params, y, t, quad.n_points * 2 ** k, series)
        if prev is not None:
            # tol is absolute while the weighted data mass is below one,
            # relative to the mass above; for the second-order rule the
            # error of the finer value is about a third of the level jump
            thresh = quad.tol * max(1.0, mass)
            if abs(cur - prev) / 3.0 <= thresh:
                return cur
            # Richardson combination of two levels is third-order accurate;
            # accept it once its own increments settle
            ext = (4.0 * cur - prev) / 3.0
            if prev_ext is not None and abs(ext - prev_ext) <= thresh:
                return ext
            prev_ext = ext
        prev = cur
    raise QuadratureFailure(
        f"{name} did not reach tol={quad.tol} within "
        f"{_MAX_DOUBLINGS} doublings of n_points={quad.n_points}")


def prabhakar_integral(params: PrabhakarParams, y, t: float,
                       quad: QuadPolicy = QuadPolicy(),
                       series: SeriesPolicy = SeriesPolicy()) -> float:
    """Prabhakar fractional integral of y over [0, t].

    Computes int_0^t (t-xi)^(beta-1) E^gamma_{alpha,beta}[delta (t-xi)^alpha]
    y(xi) dxi by product integration on a graded mesh, doubling the panel
    count until the estimated error falls below quad.tol (absolute while the
    weighted data mass is below one, relative to that mass above).
    """
    return _refine("prabhakar_integral", _integral_fixed_n, params, y, t,
                   quad, series)


def _slope_weights(params: PrabhakarParams, lag_edges: np.ndarray,
                   series: SeriesPolicy) -> np.ndarray:
    """Weights of the cell slopes in the Caputo-Prabhakar derivative.

    lag_edges ascend from 0 and cut the lag s = t - xi into cells.  The
    weights are the exact kernel moments of the substituted orders
    (alpha, 1 - beta, -gamma, delta) on those cells, so the dot product
    with the data's slope on each cell is the derivative of its
    piecewise-linear interpolant at t (an L1-type product rule).
    """
    if not (0.0 < params.beta < 1.0):
        raise InvalidParams(
            f"derivative requires 0 < beta < 1, got beta={params.beta}")
    sub = PrabhakarParams(alpha=params.alpha, beta=1.0 - params.beta,
                          gamma=-params.gamma, delta=params.delta)
    return kernel_cell_moments(sub, lag_edges, series)[0]


def _deriv_fixed_n(params: PrabhakarParams, y, t: float, n: int,
                   series: SeriesPolicy) -> tuple:
    """(derivative value, weighted absolute slope mass) at a fixed panel
    count, on the lag mesh of ``_integral_fixed_n``."""
    s = graded_mesh(t, n).nodes
    w = _slope_weights(params, s, series)
    vals = _call_on(y, t - s)
    # lag cell j runs from xi = t - s[j+1] to xi = t - s[j]
    slopes = (vals[:-1] - vals[1:]) / np.diff(s)
    return float(w @ slopes), float(np.abs(w) @ np.abs(slopes))


def caputo_prabhakar_deriv(params: PrabhakarParams, y, t: float,
                           quad: QuadPolicy = QuadPolicy(),
                           series: SeriesPolicy = SeriesPolicy()) -> float:
    """Caputo-Prabhakar derivative of order 0 < beta < 1 at time t.

    Equals the Prabhakar integral with parameters (alpha, 1-beta, -gamma,
    delta) applied to y'.  y is sampled on the graded lag mesh and
    differentiated exactly as its piecewise-linear interpolant
    (``_slope_weights``), with the panel doubling of
    ``prabhakar_integral``; a constant y gives exactly 0.
    """
    return _refine("caputo_prabhakar_deriv", _deriv_fixed_n, params, y, t,
                   quad, series)


def _fractional_rows(params: PrabhakarParams, t_grid: np.ndarray,
                     u: np.ndarray, series: SeriesPolicy) -> np.ndarray:
    """Caputo-Prabhakar derivative of each column of u[i, :] = u(t_i, .)
    at every time of a uniform grid from 0 (as ``GridSolution`` holds),
    by the rule of ``_slope_weights`` on the grid's own cells; row 0 is
    zero.  The lag cells of every row are the leading grid cells, so
    rows 1..n are one product with the lower-triangular Toeplitz matrix
    of the weights (``quadrature._toeplitz_matrix``).  That (n, n) matrix
    depends on (params, t_grid, series) alone and is kept in
    ``cache.TABLES``.
    """
    matrix = TABLES.get((exact_key(params, series), "slope",
                         np.asarray(t_grid, dtype=float).tobytes()),
                        lambda: _toeplitz_matrix(
                            _slope_weights(params, t_grid, series)))
    out = np.zeros_like(u)
    out[1:] = matrix @ ((u[1:, :] - u[:-1, :]) / np.diff(t_grid)[:, None])
    return out
