"""Closed-form solution of the fractional telegraph Goursat problem.

With D the Caputo-Prabhakar derivative of orders (alpha, beta, gamma,
delta), the equation

    d/dx D u - a d/dx u - b D u = f,   u(t,0) = phi(t),  u(0,x) = tau(x),

has the explicit representation

    u(t,x) = tau(x) + (phi(t) - phi(0)) e^{bx}
           + a G(gamma) t^b2 tau(x) E2(a t^b2, d t^al)
           - a phi(0) t^b2 F1(a t^b2; bx; d t^al)
           + a b t^b2 int_0^x tau(xi) F2(a t^b2; b(x-xi); d t^al) dxi
           + a b x int_0^t (t-eta)^{b2-1} phi(eta) F3(...(t-eta)...) deta
           + int_0^t int_0^x (t-eta)^{b2-1} f(eta,xi) F4(...) dxi deta

where E2 is a bivariate and F1..F4 are trivariate Mittag-Leffler type
functions (the packings are produced by ``ml2_tele`` and
``ml3_tele_variant``).  All four trivariate instances share the factored
form

    F(X; y; Z) = sum_m X^m W(m) [sum_k K(m,k) Z^k] [sum_j J(m,j) y^j],

so a grid evaluation reduces to matrix products.  ``TeleEngine``
precomputes the gamma-ratio tensors once per evaluation context.
Reference scales |a| t_max^beta, |b| x_max, |delta| t_max^alpha are
folded into the tensors, keeping every runtime power vector bounded by
one.  The terms without a time integral take one coefficient matrix
for all time rows at once.  Each time convolution (phi, forcing, and
the V3 double integral of the trace equation) samples its kernel at
lags t u for a unit rule u fixed per solve, so the power tables of u are
built once (``TeleEngine.lag_table``), and each convolution takes a
block of time rows at a time (``TeleEngine.lag_conv``,
``ForcingTerm.rows``).

Accuracy envelope: the tensors are exponentiated log-gamma ratios in
float64 (``math.lgamma`` tables, see ``TeleEngine``).  For X = a t^beta < 0
the sums cancel: the largest term grows like exp(|X|^(1/beta)) (for
beta = 1/2, e^(|X|^2), about 1e43 at |X| = 10) while the sum stays of
order one, so about |X|^(1/beta) / ln 10 digits are lost (11 at |X| = 5).
``arg_cap`` (default 50) does not bound this loss: arguments well below
it can already give finite values with no correct digit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    DomainError,
    InvalidData,
    InvalidParams,
)
from .fracops import PrabhakarParams, QuadPolicy
from .quadrature import _call_on, build_rule, graded_mesh
from .specfun import (
    ML2Params,
    ML3Params,
    SeriesPolicy,
    SeriesTensors,
    discriminants2,
    discriminants3,
    fit_tensors,
    ml3_ratios,
)

_VARIANTS = ("V1", "V2", "V3", "V4")

# floats (128 KB) per temporary of a batched time convolution: the data
# block a caller samples (phi, or f for ``ForcingTerm`` rows) and the
# product block of ``TeleEngine.lag_conv``
_CONV_CHUNK = 16384

# trace/boundary data must agree at the corner for the representation to
# interpolate both; checked against this tolerance
_CORNER_TOL = 1e-8


@dataclass(frozen=True)
class TelegraphCoeffs:
    """First-order coefficients of the telegraph equation.

    ``a`` multiplies -u_x and ``b`` multiplies -Du; the solvability
    theory is strongest when both are negative, but the evaluator only
    requires finite values.
    """

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"coefficient {name} must be finite")


@dataclass(frozen=True)
class Domain2D:
    """Rectangular domain 0 < t < q, 0 < x < p."""

    q: float
    p: float

    def __post_init__(self):
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise InvalidParams(f"time extent q must be positive, got {self.q}")
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise InvalidParams(f"space extent p must be positive, got {self.p}")


@dataclass(frozen=True)
class TraceSolution:
    """Initial trace tau sampled on an ascending x-grid.

    Between nodes the trace is understood piecewise linearly, which is
    exactly how the convolution term integrates it.
    """

    x_grid: np.ndarray
    tau: np.ndarray
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        v = np.asarray(self.tau, dtype=float)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "tau", v)
        if x.ndim != 1 or x.size < 1 or x.shape != v.shape:
            raise InvalidData("trace grid and values must be equal-length 1-D")
        if x.size > 1 and not np.all(np.diff(x) > 0.0):
            raise InvalidData("trace grid must be strictly ascending")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise InvalidData("trace contains non-finite entries")

    def __call__(self, x):
        return np.interp(x, self.x_grid, self.tau)


def ml2_tele(params: PrabhakarParams) -> ML2Params:
    """Parameter packing of the bivariate instance E2(a t^beta, delta t^alpha).

    Raises InvalidParams unless both convergence discriminants are
    positive (they equal (beta, alpha) here).
    """
    a, b, g = params.alpha, params.beta, params.gamma
    packed = ML2Params(g, 1.0, g, 0.0, 1.0, b, a, b + 1.0, g, g, 1.0, 1.0)
    if min(discriminants2(packed)) <= 0.0:
        raise InvalidParams(
            f"bivariate discriminants {discriminants2(packed)} must be positive")
    return packed


def ml3_tele_variant(v: str, params: PrabhakarParams) -> ML3Params:
    """Parameter packing of the trivariate instance for variant ``v``.

    V1 multiplies phi(0), V2 the tau convolution, V3 the phi convolution
    and V4 the forcing term; they differ only in four shift entries.
    """
    if v not in _VARIANTS:
        raise InvalidParams(f"variant must be one of {_VARIANTS}, got {v!r}")
    al, be, ga = params.alpha, params.beta, params.gamma
    d2, d3, d5, d8 = _variant_shifts(v, be)
    packed = ML3Params(ga, 1.0, ga, 1.0, 1.0, d2, be, al, d3,
                       ga, ga, 1.0, d5, 1.0, 1.0, 1.0, 1.0, 1.0, d8)
    if min(discriminants3(packed)) <= 0.0:
        raise InvalidParams(
            f"trivariate discriminants {discriminants3(packed)} must be positive")
    return packed


def _variant_shifts(v: str, beta: float) -> tuple:
    """The four entries (d2, d3, d5, d8) in which the variants differ."""
    d2 = 1.0 if v == "V4" else 2.0
    d3 = beta if v in ("V3", "V4") else beta + 1.0
    d5 = 2.0 if v in ("V1", "V3") else 1.0
    d8 = 2.0 if v in ("V2", "V3") else 1.0
    return d2, d3, d5, d8


def _power_rows(r: np.ndarray, count: int) -> np.ndarray:
    """Rows r^0, r^1, ..., r^(count-1) of a 1-D array, shape (count, n).

    Built by doubling: row k = row k-1 times r, then rows [k+1, 2k) =
    rows [1, k) times row k.  That is about 2 log2(count) whole-block
    multiplies and no float pow, where a running product would make
    count passes over the nodes.
    """
    r = np.asarray(r, dtype=float)
    out = np.empty((count, r.size))
    out[0] = 1.0
    k = 1
    while k < count:
        np.multiply(out[k - 1], r, out=out[k])
        step = min(k, count - k)
        np.multiply(out[1:step], out[k], out=out[k + 1:k + step])
        k += step
    return out


class TeleEngine:
    """Shared series core for one (params, coeffs, t_max, x_max) context.

    Tensor layout (scales folded in):
        kt[d3] (m_cap, k_cap): G(g m+k+g) Xs^m Zs^k
                               / [G(g m+g) G(k+1) G(b m+a k+d3)]
        jw[v]  (m_cap, j_cap): G(m+j+d2) Ys^j / [G(m+d5) G(j+1) G(j+d8)]
    so that F_v(X; y; Z) = ypow @ jw[v].T @ ((kt @ zpow) * xpow) with the
    normalized power vectors xpow_m = (X/Xs)^m etc., all of modulus <= 1.

    A time convolution evaluates the kernel at lags s = t u, with a unit
    rule u that does not depend on t.  ``lag_table(u)`` builds the power
    tables of u^beta and u^alpha once; ``lag_cvec(table, t, shifted)``
    then gives c(m; t u) = ((kt * xs zs^T) @ Zu) * Xu, where xs and zs
    are the m_cap and k_cap powers of the scalars sign(a) (t/t_ref)^beta
    and sign(delta) (t/t_ref)^alpha, for one time or a block of times.
    ``cvec(s)`` is the same path with u = s/t_ref at t = t_ref.
    ``lag_conv`` applies the kernels of many times to their data rows
    at once, with one matrix product per block.

    These are the K and J tensors of ``specfun.ml3`` for the
    ``ml3_tele_variant`` packings at the magnitudes (Xs, Ys, Zs), from
    the same ``SeriesTensors`` builder: "base" is the d3 = beta family
    (V3, V4) and "shifted" the d3 = beta+1 family (V1, V2).  The caps
    come from ``specfun.fit_tensors``: the trailing
    ``series.consecutive_small`` rows of each index carry at most 1e-15
    of the majorant (the entrywise maximum over the families).
    """

    def __init__(self, params: PrabhakarParams, coeffs: TelegraphCoeffs,
                 t_max: float, x_max: float,
                 series: SeriesPolicy = SeriesPolicy(),
                 arg_cap: float = 50.0):
        if not (0.0 < params.beta <= 1.0):
            raise InvalidParams(
                f"representation requires 0 < beta <= 1, got {params.beta}")
        if not (params.gamma > 0.0):
            raise InvalidParams(
                f"representation requires gamma > 0, got {params.gamma}")
        ml2_tele(params)
        self.params = params
        self.coeffs = coeffs
        self.series = series
        self.t_ref = max(float(t_max), 1e-300)
        self.x_ref = max(float(x_max), 1e-300)
        self.x_scale = abs(coeffs.a) * self.t_ref ** params.beta
        self.y_scale = abs(coeffs.b) * self.x_ref
        self.z_scale = abs(params.delta) * self.t_ref ** params.alpha
        worst = max(self.x_scale, self.y_scale, self.z_scale)
        if worst > arg_cap:
            raise ArgumentOutOfRange(
                f"series argument magnitude {worst:.3g} exceeds cap {arg_cap}")
        self._sign_a = math.copysign(1.0, coeffs.a) if coeffs.a != 0 else 0.0
        self._sign_b = math.copysign(1.0, coeffs.b) if coeffs.b != 0 else 0.0
        self._sign_d = (math.copysign(1.0, params.delta)
                        if params.delta != 0 else 0.0)
        ratios = {v: ml3_ratios(ml3_tele_variant(v, params)) for v in _VARIANTS}
        tensors = SeriesTensors(
            {"base": ratios["V3"][0], "shifted": ratios["V1"][0]},
            {v: r[1] for v, r in ratios.items()},
            self.x_scale, self.y_scale, self.z_scale)
        caps, self.kt, self.jw = fit_tensors(tensors, series)
        self.m_cap, self.j_cap, self.k_cap = caps
        self._m_exps = np.arange(self.m_cap, dtype=float)
        self._k_exps = np.arange(self.k_cap, dtype=float)

    def lag_table(self, u) -> tuple:
        """Power tables of a unit lag rule u >= 0: ((m_cap, n), (k_cap, n)).

        Rows m of the first are (u^beta)^m, rows k of the second
        (u^alpha)^k.  ``lag_cvec`` scales them to the lags t u of any
        time t, so a rule that every time row reuses is tabulated once.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return (_power_rows(u ** self.params.beta, self.m_cap),
                _power_rows(u ** self.params.alpha, self.k_cap))

    def lag_cvec(self, table, t, shifted: bool) -> np.ndarray:
        """Coefficient matrix c(m; t u_n) from the ``lag_table`` of u.

        X = a (t u)^beta factors as [sign(a) (t/t_ref)^beta] times the
        u^beta of the table, and Z likewise, so the time enters only
        through two short power vectors xs (m_cap) and zs (k_cap):
        c = ((kt * xs zs^T) @ Zu) * Xu.  No pow runs over the nodes.
        A 1-D array of times gives one matrix per time, shape
        (t.size, m_cap, n).
        """
        xu, zu = table
        r = np.asarray(t, dtype=float)[..., None] / self.t_ref
        xs = (self._sign_a * r ** self.params.beta) ** self._m_exps
        zs = (self._sign_d * r ** self.params.alpha) ** self._k_exps
        kz = self.kt["shifted" if shifted else "base"] * (
            xs[..., :, None] * zs[..., None, :])
        c = kz @ zu
        c *= xu
        return c

    def lag_conv(self, table, times, g, shifted: bool) -> np.ndarray:
        """Rows ``lag_cvec(table, times[i], shifted) @ g[i]``, shape
        (times.size, m_cap): the moments P[i, m, k] = sum_n g[i, n] Xu[m, n]
        Zu[k, n] of a block of rows are one matrix product with Zu, then
        c[i, m] = xs_i[m] sum_k kt[m, k] zs_i[k] P[i, m, k]."""
        xu, zu_t = table[0], np.ascontiguousarray(table[1].T)
        r = times / self.t_ref
        xs = _power_rows(self._sign_a * r ** self.params.beta, self.m_cap)
        zs = _power_rows(self._sign_d * r ** self.params.alpha, self.k_cap)
        kt = self.kt["shifted" if shifted else "base"]
        out = np.empty((times.size, self.m_cap))
        step = max(1, _CONV_CHUNK // xu.size)
        for lo in range(0, times.size, step):
            rows = slice(lo, lo + step)
            mom = (g[rows, None, :] * xu) @ zu_t
            out[rows] = np.einsum("imk,mk,ki->im", mom, kt, zs[:, rows])
        out *= xs.T
        return out

    def cvec(self, s, shifted: bool) -> np.ndarray:
        """Coefficient matrix c(m; s_n), shape (m_cap, n).

        ``shifted`` selects the d3 = beta+1 family (E2, V1, V2); the
        other family (d3 = beta) feeds the time-convolution variants.
        The times are their own lag rule at t = t_ref.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return self.lag_cvec(self.lag_table(s / self.t_ref), self.t_ref,
                             shifted)

    def ypowers(self, dx_values) -> np.ndarray:
        """Normalized power matrix (n, j_cap) for displacements dx >= 0.

        Row n holds (sign(b) dx_n / x_ref)^j; together with the
        (|b| x_ref)^j factor folded into the jw tensors this realizes
        the physical argument (b dx_n)^j.
        """
        dx = np.atleast_1d(np.asarray(dx_values, dtype=float))
        return _power_rows(self._sign_b * dx / self.x_ref, self.j_cap).T

    def gamma_e2(self, s) -> np.ndarray:
        """G(gamma) * E2(a s^beta, delta s^alpha) for an array of times."""
        return self.cvec(s, shifted=True).sum(axis=0)

    def fbar(self, v: str, s, dx) -> np.ndarray:
        """F_v(a s^beta; b dx; delta s^alpha), shape (n_dx, n_s)."""
        shifted = v in ("V1", "V2")
        c = self.cvec(s, shifted)
        return self.ypowers(dx) @ (self.jw[v].T @ c)


def _call_txy(fn, t: float, xs: np.ndarray) -> np.ndarray:
    """Evaluate f(t, x) for scalar t against an array of x (any shape)."""
    try:
        out = np.asarray(fn(t, xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    flat = np.array([float(fn(t, float(v))) for v in xs.ravel()])
    return flat.reshape(xs.shape)


def _uniform_mesh(x_max: float, quad: QuadPolicy) -> np.ndarray:
    """The uniform mesh of max(quad.n_points, 8) cells on [0, x_max]."""
    return np.linspace(0.0, max(x_max, 1e-300), max(quad.n_points, 8) + 1)


def _as_trace(tau, x_max: float, quad: QuadPolicy) -> TraceSolution:
    if isinstance(tau, TraceSolution):
        if tau.x_grid[0] > 1e-12 or tau.x_grid[-1] < x_max - 1e-12:
            raise DomainError(
                f"trace grid [{tau.x_grid[0]}, {tau.x_grid[-1]}] does not "
                f"cover [0, {x_max}]")
        return tau
    grid = _uniform_mesh(x_max, quad)
    return TraceSolution(x_grid=grid, tau=_call_on(tau, grid))


def _shift_matrices(count: int, *steps) -> list:
    """Per array of steps h >= 0, an iterator over the shift matrices
    B(h)[l, j] = C(j, l) h^(j-l) (zero for l > j), built 32 at a time:
    moments in w times B(h) are the moments in w + h.
    """
    j = np.arange(count)
    gap = np.maximum(j - j[:, None], 0)
    binom = np.zeros((count, count))
    binom[0] = 1.0
    for row in range(1, count):  # C(j, l) = sum_{i < j} C(i, l - 1)
        binom[row, 1:] = np.cumsum(binom[row - 1, :-1])

    def each(h):
        powers = _power_rows(h, count).T
        for lo in range(0, len(powers), 32):
            yield from binom * powers[lo:lo + 32, gap]

    return [each(h) for h in steps]


def _shift_sweep(mesh: np.ndarray, x: np.ndarray, x_ref: float,
                 run: np.ndarray, cells):
    """Yield (i, moments in w = (x_i - xi)/x_ref) for the x[i] in mesh
    order.  Those at node p+1 are those at node p times B(h_p) plus the
    new cell, whose moments ``cells(c, x)`` (c.size, rows, count) go to
    rows c.. of ``run`` (one row per hat) or to its only row; B >= 0, so
    on a nonnegative weight the sums cancel nothing.  A node inside a
    cell shifts the moments of the node below and adds the partial cell.
    """
    base = np.maximum(np.searchsorted(mesh, x, side="right") - 1, 0)
    order = np.argsort(base, kind="stable")
    inside = x[order] > mesh[base[order]]
    off = order[inside]
    top, hats = int(base.max()), run.shape[0] > 1
    steps, shifts = _shift_matrices(run.shape[1], np.diff(
        mesh[:top + 1]) / x_ref, (x[off] - mesh[base[off]]) / x_ref)
    full = cells(np.append(np.arange(top), base[off]),
                 np.append(mesh[1:top + 1], x[off]))
    partial = iter(full[top:])
    p = 0
    for i, stop, between in zip(order.tolist(), base[order].tolist(),
                                inside.tolist()):
        while p < stop:
            run[:p + 1] = run[:p + 1] @ next(steps)
            run[hats * p:p + 2] += full[p]
            p += 1
        rows = run[:p + 1]
        if between:
            rows = run[:p + 2] @ next(shifts)
            rows[hats * p:] += next(partial)
        yield i, rows


def _trace_moments(trace: TraceSolution, x_nodes: np.ndarray,
                   j_cap: int, x_ref: float, sign_b: float) -> np.ndarray:
    """mom[i, j] = int_0^{x_i} tau(xi) * (sign_b (x_i - xi)/x_ref)^j dxi.

    ``_shift_sweep`` over the trace grid with one running row; tau is
    linear on each cell, so a cell adds its moments in closed form.
    """
    gx, gv = trace.x_grid, trace.tau
    slope = np.diff(gv) / np.diff(gx) * x_ref
    jj = np.arange(j_cap, dtype=float)[:, None]

    def cells(c, x):
        w = (x - gx[c]) / x_ref
        pw = _power_rows(w, j_cap + 2)
        return (pw[1:-1] * (gv[c] + slope[c] * w) / (jj + 1.0)
                - pw[2:] * slope[c] / (jj + 2.0)).T[:, None]

    mom = np.zeros((x_nodes.size, j_cap))
    for i, rows in _shift_sweep(gx, np.minimum(x_nodes, gx[-1]), x_ref,
                                np.zeros((1, j_cap)), cells):
        mom[i] = rows[0]
    mom *= x_ref * sign_b ** jj.T
    return mom


def _is_zero_forcing(f) -> bool:
    return f is None or bool(getattr(f, "is_zero", False))


def _gauss_jacobi(n: int, beta: float) -> tuple:
    """n-point Gauss rule for the weight (1+u)^beta on [-1, 1], beta > -1.

    Golub-Welsch on the Jacobi matrix of the Jacobi weight with
    alpha = 0; beta = 0 gives Gauss-Legendre.  numpy's eigh keeps
    scipy.linalg, which scipy's own root finders load, out of the
    solver's memory.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                 + np.diag(off, -1))
    return nodes, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2


def _xi_moments(mesh: np.ndarray, x_nodes: np.ndarray, eps2: float,
                jw: np.ndarray, x_ref: float, sign_b: float) -> np.ndarray:
    """Q[i, k, m] = sum_j jw[m, j] int_0^{x_i} xi^-eps2 hat_k(xi) y_i(xi)^j
    dxi for the V4 tensor jw, as (x_nodes.size, mesh.size * m_cap).

    hat_k is the hat of mesh node k and y_i(xi) = sign_b (x_i - xi)/x_ref;
    a (mesh, m_cap) matrix A contracts as Q @ A.ravel().  Row i is zero
    past the hat of the cell that holds x_i: twice the memory of a packed
    layout, but no gather in any contraction.  Per cell, Gauss-Jacobi
    (weight xi^-eps2, the cell at 0) or Gauss-Legendre with j_cap // 2 + 2
    points is exact for the polynomial factor.  ``_shift_sweep`` runs
    with one row per hat; a partial cell keeps the hats of its whole
    cell.  Rows are folded with sign_b^j jw as they are written.
    """
    m_cap, j_cap = jw.shape
    n_gauss = j_cap // 2 + 2
    u_leg, w_leg = _gauss_jacobi(n_gauss, 0.0)
    u_jac, w_jac = _gauss_jacobi(n_gauss, -eps2)

    def cells(c, x):  # (c.size, 2, j_cap): the hats of cell c on [mesh_c, x]
        lo, hi = mesh[c][:, None], mesh[c + 1][:, None]
        half = 0.5 * (x[:, None] - lo)
        first = c == 0
        xi = lo + half * (1.0 + np.where(first[:, None], u_jac, u_leg))
        w = half * w_leg * xi ** (-eps2)
        # xi^-eps2 on [0, 2 half] is half^-eps2 (1+u)^-eps2, and the
        # Jacobi weights carry the (1+u)^-eps2 factor
        w[first] = half[first] ** (1.0 - eps2) * w_jac
        right = w * ((xi - lo) / (hi - lo))
        ypow = _power_rows(((x[:, None] - xi) / x_ref).ravel(), j_cap)
        return (np.stack((w - right, right), axis=1)
                @ ypow.T.reshape(c.size, n_gauss, j_cap))

    fold = (sign_b ** np.arange(j_cap))[:, None] * jw.T
    q = np.zeros((x_nodes.size, mesh.size, m_cap))
    for i, rows in _shift_sweep(mesh, x_nodes, x_ref,
                                np.zeros((mesh.size, j_cap)), cells):
        np.matmul(rows, fold, out=q[i, :len(rows)])
    return q.reshape(x_nodes.size, -1)


class ForcingTerm:
    """Double integral of the forcing against the V4 instance.

    Evaluates T(t, x) = int_0^t int_0^x (t-eta)^{beta-1} eta^{-eps1}
    xi^{-eps2} f(eta, xi) F4(a(t-eta)^beta; b(x-xi); delta(t-eta)^alpha)
    dxi deta for one fixed x-grid.

    The eta-integral is split at t/2 so each half carries a single power
    weight (eta^{-eps1} on the left, (t-eta)^{beta-1} on the right).  In
    xi, f(eta, .) is replaced by its piecewise-linear interpolant on one
    x-mesh: the x-nodes when they ascend from 0, otherwise the uniform
    ``quad.n_points``-cell mesh on [0, max x].  Its moment table
    (``_xi_moments``) is shared by ``with_rules`` copies.  Times come in
    blocks of as many rows as fit in ``_CONV_CHUNK`` samples of f (at
    least one): one call of f, one ``lag_cvec`` and one batched product
    per block.
    """

    def __init__(self, engine: TeleEngine, f, eps1: float, eps2: float,
                 x_nodes: np.ndarray, quad: QuadPolicy):
        self.engine = engine
        self.f = f
        self.eps1, self.eps2 = float(eps1), float(eps2)
        self.x_nodes = np.asarray(x_nodes, dtype=float)
        self._set_rules(quad)
        x = self.x_nodes
        if x.size > 1 and x[0] == 0.0 and np.all(np.diff(x) > 0.0):
            self.mesh = x
        else:
            self.mesh = _uniform_mesh(float(x.max()), quad)
        self.q = _xi_moments(
            self.mesh, x, self.eps2, engine.jw["V4"], engine.x_ref,
            engine._sign_b)
        self._broadcasts = True

    def _set_rules(self, quad: QuadPolicy) -> None:
        """The eta rules of ``quad`` on the unit interval, with their lag
        table.

        At time t the eta nodes are t * unit_etas and the lags t - eta
        are t * lags: t (1 - ln/2) on the left half, t rn/2 on the right.
        Both halves carry the weight factor t^(beta - eps1) times
        ``unit_coef``.
        """
        beta, eps1 = self.engine.params.beta, self.eps1
        mesh = graded_mesh(1.0, max(quad.n_points // 2, 8),
                           max(quad.grading, 1.0 / beta))
        left = build_rule(-eps1, mesh)
        right = build_rule(beta - 1.0, mesh)
        ln, rn = 0.5 * left.nodes, 0.5 * right.nodes
        self.unit_etas = np.concatenate((ln, 1.0 - rn))
        lags = np.concatenate((1.0 - ln, rn))
        self.unit_coef = np.concatenate((
            0.5 ** (1.0 - eps1) * left.weights * (1.0 - ln) ** (beta - 1.0),
            0.5 ** beta * right.weights * (1.0 - rn) ** (-eps1)))
        self.lag_table = self.engine.lag_table(lags)

    def with_rules(self, quad: QuadPolicy) -> "ForcingTerm":
        """The same term with the eta rules of ``quad``.

        The xi-moments depend only on the x-nodes, eps2 and the engine,
        so the copy shares them; a solve builds them once for its
        assembly levels and its grid fill.
        """
        twin = copy.copy(self)
        twin._set_rules(quad)
        return twin

    def _sample(self, etas: np.ndarray) -> np.ndarray:
        """f on the (eta x mesh) array.

        One call on the 2-D array when f broadcasts; otherwise one call
        per eta node with scalar t (``_call_txy``, which itself falls
        back to scalar calls).
        """
        if self._broadcasts:
            shape = (etas.size, self.mesh.size)
            tt = np.broadcast_to(etas[:, None], shape)
            xx = np.broadcast_to(self.mesh, shape)
            try:
                out = np.asarray(self.f(tt, xx), dtype=float)
                if out.shape == tt.shape:
                    return out
            except (TypeError, ValueError):
                pass
            self._broadcasts = False
        return np.array([_call_txy(self.f, float(eta), self.mesh)
                         for eta in etas])

    def _blocks(self, times: np.ndarray, keep: np.ndarray):
        """(idx, G) per block of the kept times; T(t_i, .) = Q @ G[i].ravel()
        with G[i, k, m] = t_i^(beta-eps1) sum_n coef_n f(t_i eta_n, mesh_k)
        c(m; t_i lag_n) for t_i = times[idx[i]]."""
        eng, n_eta = self.engine, self.unit_etas.size
        step = max(1, _CONV_CHUNK // (n_eta * self.mesh.size))
        kept = np.flatnonzero(keep)
        for lo in range(0, kept.size, step):
            t = times[kept[lo:lo + step]]
            c = eng.lag_cvec(self.lag_table, t, shifted=False)
            c *= (t[:, None, None] ** (eng.params.beta - self.eps1)
                  * self.unit_coef)
            f = self._sample((t[:, None] * self.unit_etas).ravel())
            yield kept[lo:lo + step], np.matmul(
                f.reshape(t.size, n_eta, -1).transpose(0, 2, 1),
                c.transpose(0, 2, 1))

    def rows(self, times) -> np.ndarray:
        """T(times[i], x_nodes), shape (times.size, x_nodes.size); zero
        at t = 0."""
        times = np.asarray(times, dtype=float)
        out = np.zeros((times.size, self.x_nodes.size))
        for idx, g in self._blocks(times, times > 0.0):
            out[idx] = g.reshape(idx.size, -1) @ self.q.T
        return out

    def integral(self, times, weights) -> np.ndarray:
        """sum_i weights[i] T(times[i], .), reading the xi-moments once."""
        times = np.asarray(times, dtype=float)
        weights = np.asarray(weights, dtype=float)
        acc = np.zeros((self.mesh.size, self.engine.m_cap))
        for idx, g in self._blocks(times, (times > 0.0) & (weights != 0.0)):
            acc += np.tensordot(weights[idx], g, axes=1)
        return self.q @ acc.ravel()


def _forcing_term(engine: TeleEngine, f, eps1: float, eps2: float,
                  x_nodes: np.ndarray, quad: QuadPolicy):
    """The ForcingTerm of f on these x-nodes, or None for zero forcing."""
    if _is_zero_forcing(f):
        return None
    return ForcingTerm(engine, f, eps1, eps2, x_nodes, quad)


class _GridEvaluator:
    """One grid evaluation: engine, trace moments, and shared rules.

    ``forcing`` is a ForcingTerm on x_nodes with the eta rules of
    ``quad``, or None.
    """

    def __init__(self, engine: TeleEngine, tau, phi, forcing,
                 t_nodes: np.ndarray, x_nodes: np.ndarray,
                 quad: QuadPolicy, corner_tol: float = _CORNER_TOL):
        self.t_nodes, self.x_nodes = t_nodes, x_nodes
        self.engine, self.phi, self.forcing = engine, phi, forcing
        self.params, self.coeffs = engine.params, engine.coeffs
        self.trace = _as_trace(tau, float(x_nodes.max()), quad)
        self.phi0 = float(phi(0.0))
        tau0 = float(self.trace(0.0))
        if abs(self.phi0 - tau0) > corner_tol:
            raise InvalidData(
                f"corner mismatch |phi(0) - tau(0)| = {abs(self.phi0 - tau0):.3g} "
                f"exceeds {corner_tol}")
        eng = self.engine
        self.tau_x = self.trace(self.x_nodes)
        self.ebx = np.exp(self.coeffs.b * self.x_nodes)
        self.ypx = eng.ypowers(self.x_nodes)
        self.mom = _trace_moments(self.trace, self.x_nodes, eng.j_cap,
                                  eng.x_ref, eng._sign_b)
        beta = self.params.beta
        mesh = graded_mesh(1.0, quad.n_points, max(quad.grading, 1.0 / beta))
        rule = build_rule(beta - 1.0, mesh)
        self.conv_nodes, self.conv_weights = rule.nodes, rule.weights
        self.conv_table = eng.lag_table(self.conv_nodes)

    def evaluate(self) -> np.ndarray:
        """u on the grid, one row per t node.

        The terms that sample no data under an integral (phi(t), E2, the
        V1 and V2 instances) come from one coefficient matrix of all t
        nodes, the phi convolution from one ``lag_conv`` per block of rows
        (row i convolves phi(t_i - t_i u) with the kernel at lags t_i u of
        the conv rule), the forcing from ``ForcingTerm.rows``.
        """
        eng, a, b = self.engine, self.coeffs.a, self.coeffs.b
        t, nodes = self.t_nodes, self.conv_nodes
        c1 = eng.cvec(t, shifted=True)
        c3 = np.empty((t.size, eng.m_cap))
        step = max(1, _CONV_CHUNK // nodes.size)
        for lo in range(0, t.size, step):
            ts = t[lo:lo + step, None]
            g = _call_on(self.phi, (ts - ts * nodes).ravel())
            c3[lo:lo + step] = eng.lag_conv(
                self.conv_table, ts[:, 0],
                g.reshape(-1, nodes.size) * self.conv_weights, shifted=False)
        at_beta = a * t ** self.params.beta
        u = (self.tau_x + np.multiply.outer(_call_on(self.phi, t) - self.phi0,
                                            self.ebx))
        u += np.multiply.outer(at_beta * c1.sum(axis=0), self.tau_x)
        u -= ((self.phi0 * at_beta)[:, None]
              * (self.ypx @ (eng.jw["V1"].T @ c1)).T)
        u += (b * at_beta)[:, None] * (self.mom @ (eng.jw["V2"].T @ c1)).T
        u += ((a * b * t ** self.params.beta)[:, None]
              * ((c3 @ eng.jw["V3"]) @ self.ypx.T) * self.x_nodes)
        u[t == 0.0] = self.tau_x
        if self.forcing is not None:
            u += self.forcing.rows(t)
        return u


def goursat_grid(params: PrabhakarParams, coeffs: TelegraphCoeffs,
                 tau, phi, f, t_nodes, x_nodes, *,
                 eps1: float = 0.0, eps2: float = 0.0,
                 quad: QuadPolicy = QuadPolicy(),
                 series: SeriesPolicy = SeriesPolicy(),
                 arg_cap: float = 50.0,
                 corner_tol: float = _CORNER_TOL) -> np.ndarray:
    """Evaluate the representation on the grid t_nodes x x_nodes.

    ``tau`` is a callable or a TraceSolution covering [0, max(x_nodes)];
    ``phi`` a callable on [0, max(t_nodes)]; ``f`` the smooth forcing
    factor (full forcing t^-eps1 x^-eps2 f(t,x)), or None.  The trace and
    boundary data must agree at the corner within corner_tol (a solved
    discrete trace carries its assembly noise there).  Returns the matrix
    u[i, j] = u(t_i, x_j).
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    x_nodes = np.asarray(x_nodes, dtype=float)
    if t_nodes.ndim != 1 or t_nodes.size == 0:
        raise DomainError("t_nodes must be a non-empty 1-D array")
    if x_nodes.ndim != 1 or x_nodes.size == 0:
        raise DomainError("x_nodes must be a non-empty 1-D array")
    if np.any(t_nodes < 0.0) or np.any(x_nodes < 0.0):
        raise DomainError("grid nodes must be nonnegative")
    if not (0.0 <= eps1 < params.beta):
        raise InvalidParams(f"eps1 must satisfy 0 <= eps1 < beta, got {eps1}")
    if not (0.0 <= eps2 < 1.0):
        raise InvalidParams(f"eps2 must satisfy 0 <= eps2 < 1, got {eps2}")
    engine = TeleEngine(params, coeffs, float(t_nodes.max()),
                        float(x_nodes.max()), series=series, arg_cap=arg_cap)
    forcing = _forcing_term(engine, f, eps1, eps2, x_nodes, quad)
    return _GridEvaluator(engine, tau, phi, forcing, t_nodes, x_nodes, quad,
                          corner_tol).evaluate()


def goursat_eval(params: PrabhakarParams, coeffs: TelegraphCoeffs,
                 tau, phi, f, t: float, x: float, *,
                 eps1: float = 0.0, eps2: float = 0.0,
                 quad: QuadPolicy = QuadPolicy(),
                 series: SeriesPolicy = SeriesPolicy(),
                 arg_cap: float = 50.0,
                 corner_tol: float = _CORNER_TOL) -> float:
    """Evaluate u(t, x) at one point.

    Equivalent to the last entry of a one-row ``goursat_grid`` call on a
    uniform x-mesh over [0, x] with ``quad.n_points`` cells (the tau
    convolution needs the whole segment, so a pointwise call still
    carries that mesh).
    """
    if x < 0.0 or t < 0.0:
        raise DomainError(f"evaluation point ({t}, {x}) outside quadrant")
    if x == 0.0:
        x_mesh = np.array([0.0])
    else:
        x_mesh = np.linspace(0.0, x, quad.n_points + 1)
    u = goursat_grid(params, coeffs, tau, phi, f, np.array([t]), x_mesh,
                     eps1=eps1, eps2=eps2, quad=quad, series=series,
                     arg_cap=arg_cap, corner_tol=corner_tol)
    return float(u[0, -1])
