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
precomputes the gamma-ratio tensors once per evaluation context, at caps
trimmed to the terms above 1e-15 of their majorant mass
(``specfun.fit_tensors``).  Reference scales |a| t_max^beta, |b| x_max,
|delta| t_max^alpha are folded into the tensors, keeping every runtime
power vector bounded by one.  The terms without a time integral take one
coefficient matrix for all time rows at once.  The grid fill takes only
the uniform lattice from 0 that ``solve`` builds
(``quadrature._is_lattice``).  Its phi and forcing convolutions share
one eta-mesh (``_EtaConv``) of ``quad.n_points`` cells, rounded up to a
multiple of n_t, so every time row is a mesh node: the data are sampled
once, and each row, as the tau convolution, is one lattice product
(``quadrature._lattice_rows``) with the tables of the last node, plus
its end pieces when eps1 > 0.  The forcing convolves the columns of a
cross approximation of its samples, as many as their numerical rank
(``ForcingTerm.fill``).  The trace assembly, on max(n_x, 16)
cells, integrates the same rows against M on an eta-mesh of its own by
the adjoint of the convolution, sampling phi, f and M once per level
(``_EtaConv.adjoint``, ``volterra._g_values``).

Accuracy envelope: the tensors are exponentiated log-gamma ratios in
float64 (``math.lgamma`` tables, see ``TeleEngine``).  For X = a t^beta < 0
the sums cancel: the largest term grows like exp(|X|^(1/beta)) (for
beta = 1/2, e^(|X|^2), about 1e43 at |X| = 10) while the sum stays of
order one, so about |X|^(1/beta) / ln 10 digits are lost (11 at |X| = 5).
The engine's cap on the argument scales (``_ARG_CAP``) does not bound
this loss: arguments well below it can already give finite values with
no correct digit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cache import TABLES, exact_key
from .errors import (
    ArgumentOutOfRange,
    DomainError,
    InvalidData,
    InvalidParams,
)
from .fracops import PrabhakarParams, QuadPolicy
from .quadrature import (_CONV_CHUNK, _call_grid, _call_on, _is_lattice,
                         _lattice_rows)
from .specfun import (
    ML2Params,
    ML3Params,
    SeriesPolicy,
    SeriesTensors,
    fit_tensors,
    ml3_ratios,
)

_VARIANTS = ("V1", "V2", "V3", "V4")

# the 4-point Gauss-Legendre rule on [0, 1] of each inner cell of the
# grid fill's eta-mesh, in closed form: the first call of an eigensolver
# would add 0.8 MB to the peak RSS of an unforced solve, which needs none
_LAG_U = 0.5 + 0.5 * np.array([-1.0, -1.0, 1.0, 1.0]) * np.sqrt(
    (3.0 + np.array([2.0, -2.0, -2.0, 2.0]) * math.sqrt(1.2)) / 7.0)
# its weights times the left and right hats of the cell, (2, 4)
_LAG_HATS = np.stack((1.0 - _LAG_U, _LAG_U)) * (
    18.0 + np.array([-1.0, 1.0, 1.0, -1.0]) * math.sqrt(30.0)) / 72.0

# Gauss nodes per singular end piece of a row with eps1 > 0
_END_NODES = 8

# the grid fill factors the forcing's samples S ~ C V once the exact
# residual max|S - C V| is at most this times max|S| (``_cross``) ...
_RANK_TOL = 1e-15
# ... unless the rank passes this share of the x-nodes first, and then
# convolves all of S.  A search that gives up costs about 7 us a rank on
# a 2-core x86-64 host with one BLAS thread: at 1/8 that read 4-5% of a
# warm full-rank 32/128 solve, at 1/16 2-4%
_RANK_SHARE = 1 / 16

# an engine rejects argument scales |a| t_max^beta, |b| x_max or
# |delta| t_max^alpha above this
_ARG_CAP = 50.0

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
    """Parameter packing of the bivariate instance E2(a t^beta, delta t^alpha),
    with convergence discriminants (beta, alpha)."""
    a, b, g = params.alpha, params.beta, params.gamma
    return ML2Params(g, 1.0, g, 0.0, 1.0, b, a, b + 1.0, g, g, 1.0, 1.0)


def ml3_tele_variant(v: str, params: PrabhakarParams) -> ML3Params:
    """Parameter packing of the trivariate instance for variant ``v``.

    V1 multiplies phi(0), V2 the tau convolution, V3 the phi convolution
    and V4 the forcing term; they differ only in four shift entries.
    ``ML3Params`` rejects a packing whose discriminants are not positive.
    """
    if v not in _VARIANTS:
        raise InvalidParams(f"variant must be one of {_VARIANTS}, got {v!r}")
    al, be, ga = params.alpha, params.beta, params.gamma
    d2, d3, d5, d8 = _variant_shifts(v, be)
    return ML3Params(ga, 1.0, ga, 1.0, 1.0, d2, be, al, d3,
                     ga, ga, 1.0, d5, 1.0, 1.0, 1.0, 1.0, 1.0, d8)


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

    These are the K and J tensors of ``specfun.ml3`` for the
    ``ml3_tele_variant`` packings at the magnitudes (Xs, Ys, Zs), from
    the same ``SeriesTensors`` builder: "base" is the d3 = beta family
    (V3, V4) and "shifted" the d3 = beta+1 family (V1, V2).  The caps
    come from ``specfun.fit_tensors``: they double until the trailing
    ``specfun._CONSECUTIVE_SMALL`` rows of each index carry at most 1e-15
    of the majorant (the entrywise maximum over the families), and are
    then trimmed to the smallest caps whose left-out tails carry at most
    that 1e-15 together; kt and jw are slices of the doubled tensors.
    With alpha > 0, the beta and gamma checks make every packing
    convergent.

    ``key`` names the inputs that the engine reads exactly
    (``cache.exact_key``), of the series policy max_terms_per_index
    alone.  ``solve`` takes its engine from ``cache.TABLES`` under that
    key, and the tables built from an engine for a grid (the eta-mesh
    tables among them) are kept there under it too, so repeated solves
    of one operator in one process build neither again.
    """

    def __init__(self, params: PrabhakarParams, coeffs: TelegraphCoeffs,
                 t_max: float, x_max: float,
                 series: SeriesPolicy = SeriesPolicy()):
        if not (0.0 < params.beta <= 1.0):
            raise InvalidParams(
                f"representation requires 0 < beta <= 1, got {params.beta}")
        if not (params.gamma > 0.0):
            raise InvalidParams(
                f"representation requires gamma > 0, got {params.gamma}")
        self.params = params
        self.coeffs = coeffs
        self.key = exact_key(params, coeffs, t_max, x_max,
                             series.max_terms_per_index)
        self.t_ref = max(float(t_max), 1e-300)
        self.x_ref = max(float(x_max), 1e-300)
        self.x_scale = abs(coeffs.a) * self.t_ref ** params.beta
        self.y_scale = abs(coeffs.b) * self.x_ref
        self.z_scale = abs(params.delta) * self.t_ref ** params.alpha
        worst = max(self.x_scale, self.y_scale, self.z_scale)
        if worst > _ARG_CAP:
            raise ArgumentOutOfRange(
                f"series argument magnitude {worst:.3g} exceeds cap {_ARG_CAP}")
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

    def cvec(self, s, shifted: bool) -> np.ndarray:
        """Coefficient matrix c(m; s_n), shape (m_cap, n).

        ``shifted`` selects the d3 = beta+1 family (E2, V1, V2); the
        other family (d3 = beta) feeds the time-convolution variants.
        With u = s / t_ref, X = a s^beta is sign(a) u^beta times the scale
        folded into kt, and Z likewise, so c = ((kt * sign(a)^m
        sign(delta)^k) @ Zu) * Xu, the rows of Xu and Zu the powers
        (u^beta)^m and (u^alpha)^k (``_power_rows``): no float pow runs
        per term.
        """
        u = np.atleast_1d(np.asarray(s, dtype=float)) / self.t_ref
        signs = np.outer(self._sign_a ** self._m_exps,
                         self._sign_d ** self._k_exps)
        c = ((self.kt["shifted" if shifted else "base"] * signs)
             @ _power_rows(u ** self.params.alpha, self.k_cap))
        c *= _power_rows(u ** self.params.beta, self.m_cap)
        return c

    def ypowers(self, dx_values) -> np.ndarray:
        """Normalized power matrix (n, j_cap) for displacements dx >= 0.

        Row n holds (sign(b) dx_n / x_ref)^j; together with the
        (|b| x_ref)^j factor folded into the jw tensors this realizes
        the physical argument (b dx_n)^j.  The solver calls it on x-grids
        only, so the matrix is kept in ``cache.TABLES`` by the dx values.
        """
        dx = np.atleast_1d(np.asarray(dx_values, dtype=float))
        return TABLES.get((self.key, "ypowers", dx.tobytes()), lambda: (
            _power_rows(self._sign_b * dx / self.x_ref, self.j_cap).T))


@functools.lru_cache(maxsize=None)
def _pascal(count: int) -> tuple:
    """Read-only (C(j, l) at [l, j], max(j - l, 0) at [l, j]) for l, j
    below count: Pascal's rule by ``cumsum``, built once per count."""
    j = np.arange(count)
    gap = np.maximum(j - j[:, None], 0)
    binom = np.zeros((count, count))
    binom[0] = 1.0
    for row in range(1, count):  # C(j, l) = sum_{i < j} C(i, l - 1)
        binom[row, 1:] = np.cumsum(binom[row - 1, :-1])
    binom.flags.writeable = gap.flags.writeable = False
    return binom, gap


def _shift_matrix(count: int, h: float) -> np.ndarray:
    """The shift matrix B(h)[l, j] = C(j, l) h^(j-l) (zero for l > j) of
    a step h >= 0: moments in w times B(h) are the moments in w + h."""
    binom, gap = _pascal(count)
    return binom * _power_rows(np.array([h]), count)[gap, 0]


def _is_zero_forcing(f) -> bool:
    return f is None or bool(getattr(f, "is_zero", False))


def _check_exponents(beta: float, eps1: float, eps2: float) -> None:
    """InvalidParams unless the forcing exponents satisfy 0 <= eps1 < beta
    and 0 <= eps2 < 1, which keep t^-eps1 x^-eps2 integrable against the
    kernel (t - eta)^(beta-1)."""
    if not (0.0 <= eps1 < beta and 0.0 <= eps2 < 1.0):
        raise InvalidParams("exponents must satisfy 0 <= eps1 < beta, "
                            f"0 <= eps2 < 1, got ({eps1}, {eps2})")


@functools.lru_cache(maxsize=None)
def _gauss_jacobi(n: int, beta: float) -> tuple:
    """n-point Gauss rule for the weight (1+u)^beta on [-1, 1], beta > -1,
    as read-only arrays built once per (n, beta).

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
    weights = 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _hat_moments(mesh: np.ndarray, j_cap: int, x_ref: float,
                 sign_b: float) -> tuple:
    """(left, inner), each (mesh.size - 1, j_cap): the moments in
    (sign_b (x_n - xi)/x_ref)^j of the hats of the last node x_n of a
    uniform mesh from 0: left[c] the left hat of cell c, inner[c] the hat
    of node c + 1 on [0, x_n].  A hat's moments depend on its lag from x_n
    alone, so the trace moments int_0^(x_i) tau(xi) (sign_b (x_i -
    xi)/x_ref)^j dxi of a tau linear between the nodes are the
    ``_lattice_rows`` of tau against inner, with left as the edge table.

    In v = (x_(c+1) - xi)/x_ref every cell, of the mean step s = x_n /
    (n x_ref), has the hat moments x_ref s^(l+1) / (l+2) (left) and
    x_ref s^(l+1) / ((l+1)(l+2)) (right) in closed form, and its moments
    in w_c + v, w_c = (x_n - x_(c+1))/x_ref, are sum_l C(j, l) w_c^(j-l)
    times those: one product with the binomial table for all cells, of
    nonnegative terms.  No quadrature rule runs, so an unforced solve
    needs no eigensolver (``_gauss_jacobi``).
    """
    binom, gap = _pascal(j_cap)
    j = np.arange(j_cap)
    step = mesh[-1] / (mesh.size - 1) / x_ref
    own = x_ref * step ** (j + 1.0) / (j + 2.0)
    pw = _power_rows((mesh[-1] - mesh[1:]) / x_ref, j_cap).T
    left, inner = (pw @ (binom * hat[gap]) * sign_b ** j
                   for hat in (own, own / (j + 1.0)))
    inner[:-1] += left[1:]
    return left, inner


def _xi_moments(mesh: np.ndarray, eps2: float, jw: np.ndarray,
                x_ref: float, sign_b: float) -> np.ndarray:
    """Q[i, k, m] = sum_j jw[m, j] int_0^{x_i} xi^-eps2 hat_k(xi) y_i(xi)^j
    dxi for the V4 tensor jw and the nodes x_i of a uniform mesh from 0,
    as (mesh.size, mesh.size * m_cap).

    hat_k is the hat of mesh node k and y_i(xi) = sign_b (x_i - xi)/x_ref;
    a (mesh, m_cap) matrix A contracts as Q @ A.ravel().  Row i is zero
    past node i: twice the memory of a packed layout, but no gather in
    any contraction.  Per cell, Gauss-Jacobi (weight xi^-eps2, the cell
    at 0) or Gauss-Legendre with j_cap // 2 + 2 points is exact for the
    polynomial factor.  The moments in w = (x_p - xi)/x_ref at node p
    times the shift matrix B(h_p), h_p = (x_(p+1) - x_p)/x_ref, are those
    at node p + 1, to which the new cell adds its own.  B >= 0, so on a
    nonnegative weight the sums cancel nothing.  One B per distinct float
    step (a few; one if dyadic): one B(h) for all would shift old cells
    off their nodes by up to p ulps.  Rows are folded with sign_b^j jw as
    they are written.
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

    steps, which = np.unique(np.diff(mesh) / x_ref, return_inverse=True)
    shifts = [_shift_matrix(j_cap, h) for h in steps.tolist()]
    full = cells(np.arange(mesh.size - 1), mesh[1:])
    fold = (sign_b ** np.arange(j_cap))[:, None] * jw.T
    q = np.zeros((mesh.size, mesh.size, m_cap))
    run = np.zeros((mesh.size, j_cap))
    for p in range(mesh.size - 1):
        run[:p + 1] = run[:p + 1] @ shifts[which[p]]
        run[p:p + 2] += full[p]
        np.matmul(run[:p + 2], fold, out=q[p + 1, :p + 2])
    return q.reshape(mesh.size, -1)


class _EtaConv:
    """The time convolutions on one eta-mesh: their rows for a grid fill
    (``apply``), their weighted sum for an assembly level (``adjoint``).

    Row t is int_0^t s^(beta-1) (t-s)^-eps1 c(m; s) y(t-s) ds with c the
    kernel of ``kt["base"]`` (which the V3 and V4 instances share) and y
    the piecewise-linear interpolant of samples on the uniform mesh
    ``etas``, eta_j = j h, h = t_max / cells.  Every row is a node t = k h,
    and one ``quadrature._lattice_rows`` row plus its end pieces.  With
    eps1 = 0 a row weighs eta_j by its lag k - j alone, so eta_1 .. eta_k
    read ``inner[cells - k:]`` of the row t_max, and eta_0 the edge
    ``left[cells - k]``.  With eps1 > 0 the inner cells 1 .. k - 3 of a
    row weigh the samples at their 4 Gauss nodes by the hats and
    eta^-eps1 (``_inner_hats``), which do not depend on the row, against
    the kernel at the lags of the row t_max (``_lags``) from cell cells -
    k + 1 on.  In every row the two cells at the lag end, where
    s^(beta-1) is nearly singular, and for eps1 > 0 the first cell take
    rules of their own (``_ends``).  The weights of the row t_max,
    its lags and the end pieces of a set of rows (``_end_batch``) depend
    on the engine, t_max, cells, eps1 and the row times alone, and are
    kept in ``cache.TABLES``.
    """

    def __init__(self, engine: TeleEngine, t_max: float, cells: int):
        self.engine, self.cells, self.t_max = engine, cells, t_max
        self.h = t_max / cells
        self.etas = self.h * np.arange(cells + 1.0)
        # the Gauss nodes of every cell
        self._eta = (np.arange(cells)[:, None] + _LAG_U) * self.h
        self._step = max(1, _CONV_CHUNK // (4 * max(engine.m_cap,
                                                    engine.k_cap)))
        self.key = (engine.key, "eta", float(t_max), int(cells))
        self.left, self.inner = TABLES.get(self.key, self._toeplitz)

    def _toeplitz(self) -> tuple:
        """(left, inner) of the row t_max with eps1 = 0: the left hats of
        its cells, and its right hats plus the left hats of the next cells,
        the edge table and the table of ``_lattice_rows``.  The inner cells
        take the kernel at their Gauss nodes (``_lag_blocks``), the two
        lag-end cells their ``_ends``."""
        hats = np.zeros((2, self.cells, self.engine.m_cap))
        for lo, hi, kernel in self._lag_blocks():
            hats[:, lo:hi] = np.matmul(self.h * _LAG_HATS,
                                       kernel).transpose(1, 0, 2)
        cells, adds = self._ends(np.array([self.t_max]), 0.0)
        np.add.at(hats, (slice(None), cells[0]), adds[0])
        left, inner = hats
        inner[:-1] += left[1:]
        return left, inner

    def _lag_blocks(self):
        """Yield (lo, hi, ``_kernel`` at the Gauss nodes of the inner cells
        lo .. hi - 1 of the row t_max), in ``_CONV_CHUNK`` blocks."""
        for lo in range(0, self.cells - 2, self._step):
            hi = min(lo + self._step, self.cells - 2)
            yield lo, hi, self._kernel(self.t_max - self._eta[lo:hi])

    def _kernel(self, s: np.ndarray) -> np.ndarray:
        """s^(beta-1) c(m; s) at an array of lags, shape (*s.shape, m_cap)."""
        c = self.engine.cvec(s.ravel(), shifted=False).T.reshape(*s.shape, -1)
        return c * (s ** (self.engine.params.beta - 1.0))[..., None]

    @functools.cached_property
    def _lags(self) -> np.ndarray:
        """``_kernel`` at the lags of the inner cells of the row t_max,
        shape (cells - 2, 4, m_cap): a row t = k h reads the same lags for
        its cell j at j + cells - k.  Built on the first use with
        eps1 > 0, from ``_lag_blocks``, and kept in ``cache.TABLES``."""
        return TABLES.get(self.key + ("lags",), lambda: np.concatenate(
            [np.empty((0, 4, self.engine.m_cap))]
            + [kernel for _, _, kernel in self._lag_blocks()]))

    def _inner_hats(self, eps1: float) -> np.ndarray:
        """The weights (cells - 3, 2, 4) of the 4 Gauss nodes of the inner
        cells 1 .. cells - 3 for the left and right node of the cell: the
        Gauss weights times the hats times eta^-eps1."""
        return (self._eta[1:-2] ** -eps1)[:, None] * (self.h * _LAG_HATS)

    def _moments(self, lags: np.ndarray) -> tuple:
        """int_0^L s^(beta-1) (1, s) c(m; s) ds for each L of ``lags``, two
        arrays (lags.size, m_cap): term by term in the powers of s / t_ref
        that ``cvec`` sums, s^(beta m + alpha k) integrating to
        L^p / p, p = beta (m + 1) + alpha k."""
        eng, beta = self.engine, self.engine.params.beta
        r = lags / eng.t_ref
        xs = (_power_rows(eng._sign_a * r ** beta, eng.m_cap).T
              * (lags ** beta)[:, None])
        zs = _power_rows(eng._sign_d * r ** eng.params.alpha, eng.k_cap).T
        p = (beta * (1.0 + eng._m_exps[:, None])
             + eng.params.alpha * eng._k_exps)
        kt = eng.kt["base"]
        return (xs * (zs @ (kt / p).T),
                xs * lags[:, None] * (zs @ (kt / (p + 1.0)).T))

    def _ends(self, t: np.ndarray, eps1: float) -> tuple:
        """The pieces of rows t (an array) next to the singular ends of
        their weight: (cells, adds), adds[i, :, p] (2, m_cap) what piece
        p of row t[i] gives the two nodes of its cell cells[i, p].

        The row t = n h (n from ``index``) has its cells n - 1 and n - 2
        at the lags s < 2 h, where s^(beta-1) is far from a polynomial.
        For eps1 = 0 they take the closed form of ``_moments``.  For
        eps1 > 0 they take Gauss-Legendre in sigma = s^beta, where the
        series powers are polynomials when alpha / beta is whole, and the
        first cell, or its part eta < t / 2 in the row t = h, takes
        Gauss-Jacobi for eta^-eps1.  A piece in cell j gives eta_j D1 / h
        and eta_(j+1) D0 - D1 / h, with D0 and D1 the integrals of the
        row's weight against 1 and against s - s_(j+1), s_j = t - eta_j.
        Rows from t = 3 h share lag-end nodes; ``cvec`` takes each once.
        """
        h, beta = self.h, self.engine.params.beta
        n = np.maximum(self.index(t), 1)
        cells = np.stack((n - 1, np.maximum(n - 2, 0), 0 * n), axis=1)
        base = np.array([[0.0], [h]])  # s_(j+1) of the two cells
        if eps1 == 0.0:
            f = self._moments(np.concatenate((np.full(t.size, h),
                                              np.minimum(2.0 * h, t))))
            d0, d1 = (np.stack((g[:t.size], g[t.size:] - g[:t.size]), axis=1)
                      for g in f)
            d1, cells = d1 - base * d0, cells[:, :2]
        else:
            first = np.minimum(h, 0.5 * t)
            mid = np.minimum(h, t - first)
            edges = np.stack((0.0 * mid, mid, np.maximum(
                mid, np.minimum(2.0 * h, t - first))), axis=1) ** beta
            top = np.diff(edges, axis=1)[..., None]
            v, wv = _gauss_jacobi(_END_NODES, 0.0)
            s = (edges[:, :2, None] + 0.5 * top * (1.0 + v)) ** (1.0 / beta)
            w = 0.5 / beta * top * wv * (t[:, None, None] - s) ** -eps1
            v, wv = _gauss_jacobi(_END_NODES, -eps1)
            eta = 0.5 * first[:, None, None] * (1.0 + v)
            x = np.concatenate((s - base, h - eta), axis=1)
            s = np.concatenate((s, t[:, None, None] - eta), axis=1)
            w = np.concatenate((w, (0.5 * first[:, None, None]) ** (1.0 - eps1)
                                * wv * s[:, 2:] ** (beta - 1.0)), axis=1)
            nodes, at = np.unique(s.ravel(), return_inverse=True)
            c = self.engine.cvec(nodes, shifted=False).T[at].reshape(
                *s.shape, -1)
            d0 = np.einsum("bpv,bpvm->bpm", w, c)
            d1 = np.einsum("bpv,bpvm->bpm", w * x, c)
        return cells, np.stack((d1 / h, d0 - d1 / h), axis=1)

    def index(self, times: np.ndarray) -> np.ndarray:
        """The node k of each row t = k h, as integers."""
        return np.rint(times / self.h).astype(int)

    def _end_batch(self, times: np.ndarray, eps1: float) -> tuple:
        """``_ends`` of the rows ``times`` (all above 0), in
        ``_CONV_CHUNK`` blocks, kept in ``cache.TABLES`` under the mesh,
        eps1 and the row times."""
        def build():
            step = max(1, _CONV_CHUNK // (3 * _END_NODES * max(
                self.engine.m_cap, self.engine.k_cap)))
            return tuple(map(np.concatenate, zip(*(
                self._ends(times[lo:lo + step], eps1)
                for lo in range(0, times.size, step)))))

        return TABLES.get(self.key + ("ends", eps1, times.tobytes()), build)

    def adjoint(self, a: np.ndarray, eps1: float = 0.0) -> np.ndarray:
        """W = sum_k a[k] w_k (cells + 1, m_cap) over the rows t = k h,
        k >= 1, with w_k the node weights of row k (``apply``): samples @
        W sums the rows with weights a.  W takes the ``_lattice_rows`` of
        the reversed a[:0:-1] with lengths n .. 1 against a table of n
        rows: ``inner`` (eps1 = 0), or ``_lags`` for the inner cells plus
        the ends of all rows from one ``_end_batch`` (eps1 > 0)."""
        n, m_cap = self.cells, self.engine.m_cap
        if eps1 == 0.0:
            return np.vstack((a[1:] @ self.left[::-1], _lattice_rows(
                a[:0:-1], self.inner, np.arange(n, 0, -1))))
        cells, adds = self._end_batch(self.etas[1:], eps1)
        nodes = cells[:, None, :, None] + np.arange(2)[:, None, None]
        w = np.bincount((nodes * m_cap + np.arange(m_cap)).ravel(),
                        (a[1:, None, None, None] * adds).ravel(),
                        (n + 1) * m_cap).reshape(n + 1, m_cap)
        # inner cells 1..n-3, past the Gauss-Jacobi cell 0
        left, right = np.matmul(self._inner_hats(eps1), _lattice_rows(
            a[:0:-1], self._lags[1:], np.arange(n - 3, 0, -1))).transpose(
                1, 0, 2)
        w[1:-3] += left
        w[2:-2] += right
        return w

    def apply(self, samples: np.ndarray, times: np.ndarray,
              eps1: float = 0.0):
        """Yield (rows, G) per block of times on the mesh, G[i] = sum_j
        samples[j] outer w_i(eta_j), shape (rows.size, ncols, m_cap), for
        samples (cells + 1, ncols) on ``etas``: columns of data, or any
        linear combination of them, as the columns of the cross
        approximation that ``ForcingTerm.fill`` passes; a block fills
        ``_CONV_CHUNK``.  Row t = k h is one ``_lattice_rows`` row: of the
        samples with ``inner[cells - k:]`` and the edge ``left[cells - k]``
        (eps1 = 0), or of the ``_inner_hats``-weighted samples at the Gauss
        nodes of its inner cells with the last k - 3 cells of ``_lags``,
        plus its end pieces from one ``_end_batch`` (eps1 > 0).  Up to
        ``quadrature._HANKEL_COLS`` columns take the one-column form of
        ``_lattice_rows`` one at a time."""
        m_cap = self.engine.m_cap
        k = self.index(times)
        live = k > 0
        if eps1 > 0.0:
            hats = self._inner_hats(eps1)[..., None]
            weighted = (hats[:, 0] * samples[1:-3, None]
                        + hats[:, 1] * samples[2:-2, None]).reshape(
                            -1, samples.shape[1])
            table, lengths, edge = (self._lags[1:].reshape(-1, m_cap),
                                    4 * np.maximum(k - 3, 0), None)
            ends, adds = self._end_batch(times[live], eps1)
            entry = np.cumsum(live) - 1
        else:
            weighted, table, lengths, edge = (samples[1:], self.inner, k,
                                              (samples[0], self.left))
        step = max(1, _CONV_CHUNK // (samples.shape[1] * m_cap))
        for lo in range(0, times.size, step):
            rows = np.arange(lo, min(lo + step, times.size))
            g = _lattice_rows(weighted, table, lengths[rows], edge)
            if eps1 > 0.0:
                own = rows[live[rows]]
                e = entry[own]
                at = ends[e][:, None, :] + np.arange(2)[:, None]
                pieces = samples[at].reshape(e.size, 6, samples.shape[1])
                g[own - lo] += np.matmul(pieces.transpose(0, 2, 1),
                                         adds[e].reshape(e.size, 6, m_cap))
            yield rows, g


def _largest(a: np.ndarray) -> tuple:
    """(i, j) of the entry of largest modulus of a 2-D array (a NaN, if
    any), by its largest and smallest entries: no |a| temporary."""
    at = max(int(a.argmax()), int(a.argmin()), key=lambda k: abs(a.flat[k]))
    return divmod(at, a.shape[1])


def _cross(s: np.ndarray, cap: int):
    """(C, V) with max|s - C V| <= _RANK_TOL max|s|, C (rows, r) and V
    (r, cols), r <= cap, or None when no such r is found or s is not
    finite: adaptive cross approximation with partial pivoting
    (Bebendorf, Numer. Math. 86 (2000) 565-589).

    Each step takes the residual row i, whose largest entry j is the
    pivot, adds the residual column j over the pivot as a rank-one term,
    and moves to the row where that column is largest; the first pivot is
    the largest entry of s.  Step k costs O((rows + cols) k) and reads
    no sample beyond s.  Once a residual row is all within the tolerance,
    the exact residual, in ``_CONV_CHUNK`` blocks of rows, decides: it
    stops, or names the next pivot.
    """
    i, j = _largest(s)
    bound = _RANK_TOL * abs(s[i, j])
    if not math.isfinite(bound):
        return None
    c, v = np.empty((cap, s.shape[0])), np.empty((cap, s.shape[1]))
    step = max(1, _CONV_CHUNK // s.shape[1])
    k = 0
    while True:
        row = s[i] - c[:k, i] @ v[:k]
        j = int(np.abs(row).argmax())
        if abs(row[j]) <= bound:
            worst = -1.0
            for lo in range(0, s.shape[0], step):
                rest = s[lo:lo + step] - c[:k, lo:lo + step].T @ v[:k]
                at = _largest(rest)
                if abs(rest[at]) > worst:
                    worst, i, j = abs(rest[at]), lo + at[0], at[1]
                    row = rest[at[0]]
            if worst <= bound:
                return c[:k].T, v[:k]
        if k == cap:
            return None
        np.divide(row, row[j], out=v[k])
        np.subtract(s[:, j], v[:k, j] @ c[:k], out=c[k])
        k += 1
        size = np.abs(c[k - 1])
        size[i] = -1.0  # its residual is the pivot until this term goes
        i = int(size.argmax())


class ForcingTerm:
    """Double integral of the forcing against the V4 instance.

    Evaluates T(t, x) = int_0^t int_0^x (t-eta)^{beta-1} eta^{-eps1}
    xi^{-eps2} f(eta, xi) F4(a(t-eta)^beta; b(x-xi); delta(t-eta)^alpha)
    dxi deta on one x-grid, uniform from 0 and within the engine's x_ref
    (``DomainError`` otherwise).  In xi, f(eta, .) is replaced by its
    piecewise-linear interpolant on the x-nodes, whose moment table ``q``
    (``_xi_moments``) turns an (x_nodes, m_cap) matrix of eta-integrals
    into values on the x-nodes.  The grid fill (``fill``) and each
    trace-assembly level (``volterra._g_values``) sample f once on the
    eta-mesh of an ``_EtaConv``, by one ``quadrature._call_grid``
    (``_sample``).  The exponents must pass ``_check_exponents``.  ``q``
    depends on the engine, the x-nodes and eps2 alone, and is kept in
    ``cache.TABLES``.  ``rank`` is the number of columns that the last
    ``fill`` convolved.
    """

    def __init__(self, engine: TeleEngine, f, eps1: float, eps2: float,
                 x_nodes: np.ndarray):
        _check_exponents(engine.params.beta, eps1, eps2)
        self.engine, self.f = engine, f
        self.eps1, self.eps2 = float(eps1), float(eps2)
        self.x_nodes = _lattice("x_nodes", x_nodes, engine.x_ref)
        self.q = TABLES.get(
            (engine.key, "xi", self.x_nodes.tobytes(), self.eps2),
            lambda: _xi_moments(self.x_nodes, self.eps2, engine.jw["V4"],
                                engine.x_ref, engine._sign_b))
        self.rank = None

    def _sample(self, etas: np.ndarray) -> np.ndarray:
        """f on the (eta x x_nodes) array."""
        return _call_grid(self.f, etas, self.x_nodes)

    def fill(self, conv: "_EtaConv", times) -> np.ndarray:
        """T(times[i], x_nodes) at nodes of the eta-mesh, shape
        (times.size, x_nodes.size), from one call of f on
        (conv.etas x x_nodes); zero at t = 0.

        The cost follows the numerical rank of f on the eta-mesh: the
        samples S factor as S ~ C V (``_cross``) at a rank r up to
        ``_RANK_SHARE`` of the x-nodes, the r columns of C go through
        ``conv.apply``, and V folds into ``q`` as V q, one (r, m_cap)
        product per x-node.  Past that rank, all of S goes through
        ``conv.apply`` against ``q``.
        """
        times = np.asarray(times, dtype=float)
        nodes = self.x_nodes.size
        samples, q = self._sample(conv.etas), self.q
        factors = _cross(samples, int(nodes * _RANK_SHARE))
        if factors is not None:
            samples, v = factors
            q = np.matmul(v, q.reshape(nodes, nodes, -1)).reshape(nodes, -1)
        self.rank = samples.shape[1]
        out = np.zeros((times.size, nodes))
        if self.rank:
            for rows, g in conv.apply(samples, times, self.eps1):
                out[rows] = g.reshape(rows.size, -1) @ q.T
        return out


def _lattice(name: str, nodes, top: float) -> np.ndarray:
    """The nodes as floats: a uniform grid from 0 to at most top."""
    nodes = np.asarray(nodes, dtype=float)
    if not (_is_lattice(nodes) and nodes[-1] <= top):
        raise DomainError(f"{name} must be uniform from 0 to at most {top}")
    return nodes


def _check_forcing(forcing, engine: TeleEngine, x_nodes: np.ndarray):
    """InvalidData unless ``forcing`` is None or of this engine and grid."""
    if forcing is not None and (forcing.engine is not engine or not
                                np.array_equal(forcing.x_nodes, x_nodes)):
        raise InvalidData("forcing term belongs to another engine or x-grid")


def goursat_grid(engine: TeleEngine, tau, phi, forcing, t_nodes, x_nodes,
                 quad: QuadPolicy = QuadPolicy(),
                 corner_tol: float = _CORNER_TOL) -> np.ndarray:
    """Evaluate the representation on the grid t_nodes x x_nodes.

    The nodes are uniform grids from 0 to at most the engine's t_ref and
    x_ref, and ``tau`` the TraceSolution on x_nodes that ``solve_tau``
    returns (else DomainError); ``phi`` is a callable and ``forcing`` a
    ForcingTerm of this engine on x_nodes, or None.  The trace and
    boundary data must agree at the corner within corner_tol (a solved
    trace carries its assembly noise there).  Returns u[i, j] = u(t_i, x_j).

    The terms that sample no data under an integral (phi(t), E2, the V1
    and V2 instances) come from one coefficient matrix of all t nodes,
    the tau convolution from the trace moments (``_hat_moments``).  The
    phi and forcing convolutions share one ``_EtaConv`` on [0, t_max] of
    quad.n_points cells, rounded up to a multiple of the n_t t-cells: the
    phi rows are one ``_lattice_rows``, the forcing ``ForcingTerm.fill``.
    The forcing is filled first: its samples of f are the largest
    temporary of the fill, and u does not exist yet beside them.
    """
    t_nodes = _lattice("t_nodes", t_nodes, engine.t_ref)
    x_nodes = _lattice("x_nodes", x_nodes, engine.x_ref)
    if not (isinstance(tau, TraceSolution)
            and np.array_equal(tau.x_grid, x_nodes)):
        raise DomainError("tau must be a TraceSolution on x_nodes")
    _check_forcing(forcing, engine, x_nodes)
    phi0, tau_x = float(phi(0.0)), tau.tau
    if abs(phi0 - tau_x[0]) > corner_tol:
        raise InvalidData(
            f"corner mismatch |phi(0) - tau(0)| = "
            f"{abs(phi0 - tau_x[0]):.3g} exceeds {corner_tol}")
    n_t = t_nodes.size - 1
    conv = _EtaConv(engine, float(t_nodes[-1]),
                    n_t * -(-quad.n_points // n_t))
    forced = None if forcing is None else forcing.fill(conv, t_nodes)
    a, b = engine.coeffs.a, engine.coeffs.b
    c1 = TABLES.get((engine.key, "cvec", t_nodes.tobytes()),
                    lambda: engine.cvec(t_nodes, shifted=True))
    ypx = engine.ypowers(x_nodes)
    left, inner = TABLES.get((engine.key, "hats", x_nodes.tobytes()),
                             lambda: _hat_moments(x_nodes, engine.j_cap,
                                                  engine.x_ref, engine._sign_b))
    mom = _lattice_rows(tau_x[1:], inner, np.arange(tau_x.size),
                        (tau_x[0], left))
    phi_eta = _call_on(phi, conv.etas)
    phi_rows = _lattice_rows(phi_eta[1:], conv.inner, conv.index(t_nodes),
                             (phi_eta[0], conv.left))
    at_beta = a * t_nodes ** engine.params.beta
    u = tau_x + np.multiply.outer(_call_on(phi, t_nodes) - phi0,
                                  np.exp(b * x_nodes))
    u += np.multiply.outer(at_beta * c1.sum(axis=0), tau_x)
    u -= (phi0 * at_beta)[:, None] * (ypx @ (engine.jw["V1"].T @ c1)).T
    u += (b * at_beta)[:, None] * (mom @ (engine.jw["V2"].T @ c1)).T
    u += (a * b) * ((phi_rows @ engine.jw["V3"]) @ ypx.T * x_nodes)
    u[0] = tau_x
    if forced is not None:
        u += forced
    return u
