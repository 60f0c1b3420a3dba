"""Tests of the closed-form telegraph solution evaluator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import as_strided
from scipy.integrate import quad as adaptive
from scipy.special import gammaln

import prabtel.goursat as goursat
import prabtel.quadrature as quadrature
import prabtel.volterra as volterra
from prabtel.acceptance import _smooth_problem
from prabtel.cache import TABLES
from prabtel.errors import (
    ArgumentOutOfRange,
    DomainError,
    InvalidData,
    InvalidParams,
    NonConvergence,
)
from prabtel.expr import ExprFunction
from prabtel.fracops import PrabhakarParams, QuadPolicy
from prabtel.goursat import (
    Domain2D,
    ForcingTerm,
    TeleEngine,
    TelegraphCoeffs,
    TraceSolution,
    _EtaConv,
    _gauss_jacobi,
    _hat_moments,
    _pascal,
    _power_rows,
    _shift_matrix,
    _variant_shifts,
    _xi_moments,
    goursat_grid,
    ml2_tele,
    ml3_tele_variant,
)
from prabtel.oracle import classical_telegraph_fd
from prabtel.problem import solve
from prabtel.quadrature import (
    _GRADING,
    _call_on,
    _lattice_rows,
    build_rule,
    graded_mesh,
)
from prabtel.specfun import (
    SeriesPolicy,
    SeriesTensors,
    discriminants3,
    ml2,
    ml3,
)


PARAMS = PrabhakarParams(alpha=1.0, beta=0.5, gamma=0.5, delta=-1.0)
COEFFS = TelegraphCoeffs(a=-1.0, b=-1.0)


def ones(v):
    return np.ones_like(np.asarray(v, dtype=float))


def zeros(v):
    return np.zeros_like(np.asarray(v, dtype=float))


def fill(params, coeffs, tau, phi, f, t_nodes, x_nodes, *, eps1=0.0,
         eps2=0.0, quad=QuadPolicy()):
    """``goursat_grid`` on a fresh engine and forcing term fitted to the
    grid (t_ref and x_ref are the last nodes); a callable tau is sampled
    as a TraceSolution on the x-nodes."""
    t_nodes, x_nodes = np.asarray(t_nodes), np.asarray(x_nodes)
    engine = TeleEngine(params, coeffs, float(t_nodes[-1]),
                        float(x_nodes[-1]))
    if not isinstance(tau, TraceSolution):
        tau = TraceSolution(x_nodes, tau(x_nodes))
    forcing = (None if f is None else
               ForcingTerm(engine, f, eps1, eps2, x_nodes))
    return goursat_grid(engine, tau, phi, forcing, t_nodes, x_nodes, quad)


def gamma_e2(eng, s):
    """G(gamma) E2(a s^beta, delta s^alpha): the shifted coefficients
    summed over m."""
    return eng.cvec(s, shifted=True).sum(axis=0)


def fbar(eng, v, s, dx):
    """F_v(a s^beta; b dx; delta s^alpha), shape (n_dx, n_s)."""
    c = eng.cvec(s, shifted=v in ("V1", "V2"))
    return eng.ypowers(dx) @ (eng.jw[v].T @ c)


class TestPackings:
    def test_ml2_discriminants_are_beta_alpha(self):
        p = ml2_tele(PrabhakarParams(0.8, 0.6, 0.3, -1.0))
        assert p.a3 == 0.6 and p.b2 == 0.8 and p.d1 == 1.6

    def test_ml3_variant_discriminants(self):
        for v in ("V1", "V2", "V3", "V4"):
            p = ml3_tele_variant(v, PrabhakarParams(0.9, 0.5, 0.5, -1.0))
            assert discriminants3(p) == pytest.approx((0.5, 1.0, 0.9))

    def test_variant_shift_table(self):
        params = PrabhakarParams(1.0, 0.4, 0.4, -1.0)
        v1 = ml3_tele_variant("V1", params)
        v2 = ml3_tele_variant("V2", params)
        v3 = ml3_tele_variant("V3", params)
        v4 = ml3_tele_variant("V4", params)
        assert (v1.d5, v1.d8, v1.d3, v1.d2) == (2.0, 1.0, 1.4, 2.0)
        assert (v2.d5, v2.d8, v2.d3, v2.d2) == (1.0, 2.0, 1.4, 2.0)
        assert (v3.d5, v3.d8, v3.d3, v3.d2) == (2.0, 2.0, 0.4, 2.0)
        assert (v4.d5, v4.d8, v4.d3, v4.d2) == (1.0, 1.0, 0.4, 1.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidParams):
            ml3_tele_variant("V5", PARAMS)

    def test_beta_zero_rejected(self):
        with pytest.raises(InvalidParams):
            ml3_tele_variant("V1", PrabhakarParams(1.0, 0.0, 0.5, -1.0))
        with pytest.raises(InvalidParams):
            ml2_tele(PrabhakarParams(1.0, 0.0, 0.5, -1.0))


class TestEngine:
    def test_fbar_matches_series(self):
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = rng.uniform(0.05, 1.0)
            dx = rng.uniform(0.0, 1.0)
            for v in ("V1", "V2", "V3", "V4"):
                got = float(fbar(eng, v, s, dx)[0, 0])
                want = ml3(ml3_tele_variant(v, PARAMS),
                           COEFFS.a * s ** PARAMS.beta,
                           COEFFS.b * dx,
                           PARAMS.delta * s ** PARAMS.alpha)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_gamma_e2_matches_series(self):
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        for s in (0.1, 0.37, 0.88, 1.0):
            got = float(gamma_e2(eng, s)[0])
            want = math.gamma(PARAMS.gamma) * ml2(
                ml2_tele(PARAMS),
                COEFFS.a * s ** PARAMS.beta,
                PARAMS.delta * s ** PARAMS.alpha)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_gamma_e2_equals_fbar_v1_at_zero_displacement(self):
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        s = np.array([0.2, 0.6, 1.0])
        assert np.allclose(gamma_e2(eng, s), fbar(eng, "V1", s, 0.0)[0],
                           rtol=1e-13, atol=0.0)

    def test_degenerate_directions_collapse(self):
        eng = TeleEngine(PrabhakarParams(1.0, 0.5, 0.5, 0.0),
                         TelegraphCoeffs(a=0.0, b=-1.0), 1.0, 1.0)
        # with a = delta = 0 only the (m, k) = (0, 0) term survives
        assert float(gamma_e2(eng, 0.7)[0]) == pytest.approx(
            1.0 / math.gamma(1.5), rel=1e-13)

    def test_argument_cap(self):
        with pytest.raises(ArgumentOutOfRange):
            TeleEngine(PARAMS, TelegraphCoeffs(a=-100.0, b=-1.0), 1.0, 1.0)

    @pytest.mark.parametrize("params, coeffs", [
        ((0.928, 0.103, 1.49, -2.07), (-5.06, 2.28)),
        ((0.934, 0.102, 1.50, -1.34), (-7.13, -1.11))])
    def test_majorant_overflow_is_out_of_range(self, params, coeffs):
        # arguments below the cap whose series majorant overflows float64:
        # no finite sum of those terms keeps a digit
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ArgumentOutOfRange):
                TeleEngine(PrabhakarParams(*params),
                           TelegraphCoeffs(*coeffs), 1.0, 1.0)

    def test_cap_exhaustion_raises(self):
        with pytest.raises(NonConvergence):
            TeleEngine(PARAMS, TelegraphCoeffs(a=-40.0, b=-1.0), 1.0, 1.0,
                       series=SeriesPolicy(max_terms_per_index=32))

    def test_gamma_must_be_positive(self):
        with pytest.raises(InvalidParams):
            TeleEngine(PrabhakarParams(1.0, 0.5, -0.5, -1.0), COEFFS,
                       1.0, 1.0)


def _reference_tensors(eng):
    """kt and jw of the engine's caps straight from scipy's gammaln."""
    al, be, ga = eng.params.alpha, eng.params.beta, eng.params.gamma
    m = np.arange(eng.m_cap, dtype=float)[:, None]
    k = np.arange(eng.k_cap, dtype=float)[None, :]
    j = np.arange(eng.j_cap, dtype=float)[None, :]

    def log_scale(scale, n):
        if scale <= 0.0:
            return np.where(np.arange(n) == 0, 0.0, -np.inf)
        return np.arange(n) * math.log(scale)

    lx = log_scale(eng.x_scale, eng.m_cap)[:, None]
    lz = log_scale(eng.z_scale, eng.k_cap)[None, :]
    kt = {name: np.exp(gammaln(ga * m + k + ga) - gammaln(ga * m + ga)
                       - gammaln(k + 1.0) - gammaln(be * m + al * k + d3)
                       + lx + lz)
          for name, d3 in (("base", be), ("shifted", be + 1.0))}
    jw = {}
    for v in ("V1", "V2", "V3", "V4"):
        d2, _, d5, d8 = _variant_shifts(v, be)
        jw[v] = np.exp(gammaln(m + j + d2) - gammaln(m + d5)
                       - gammaln(j + 1.0) - gammaln(j + d8)
                       + log_scale(eng.y_scale, eng.j_cap)[None, :])
    return kt, jw


class TestTensorTables:
    @pytest.mark.parametrize("params, coeffs, caps", [
        ((1.0, 0.5, 0.5, -0.5), (-0.25, -0.5), (20, 16, 15)),
        ((0.7, 0.3, 1.3, -2.0), (-3.0, 2.0), (431, 57, 80)),
        ((1.0, 0.5, 0.5, -1.0), (-10.0, -1.0), (417, 45, 18)),
        ((1.0, 0.5, 0.5, 0.0), (0.0, -1.0), (1, 19, 1)),
    ])
    def test_match_gammaln_reference(self, params, coeffs, caps):
        eng = TeleEngine(PrabhakarParams(*params), TelegraphCoeffs(*coeffs),
                         1.0, 1.0)
        assert (eng.m_cap, eng.j_cap, eng.k_cap) == caps
        kt, jw = _reference_tensors(eng)
        pairs = [(eng.kt[n], kt[n]) for n in kt]
        pairs += [(eng.jw[v], jw[v]) for v in jw]
        for got, want in pairs:
            assert got.shape == want.shape
            # entries below 1e-300 are subnormal or zero in both
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("params, coeffs, fit", [
        ((1.0, 0.5, 0.5, -0.5), (-0.25, -0.5), (24, 32, 32)),
        ((0.7, 0.3, 1.3, -2.0), (-3.0, 2.0), (768, 64, 128)),
        ((1.0, 0.5, 0.5, -1.0), (-4.0, -1.0), (192, 64, 32)),
        ((1.0, 0.5, 0.5, 0.0), (0.0, -1.0), (24, 32, 16)),
    ])
    def test_trimmed_caps_leave_out_at_most_the_limit(self, params, coeffs,
                                                      fit, monkeypatch):
        # the engine's tensors read at the caps of its doubling fit: the
        # engine keeps their leading slices bit for bit, and the three
        # tails it leaves out carry at most 1e-15 of the majorant mass,
        # while one row fewer along any index would leave out more than
        # a third of that
        reads = []
        logs = SeriesTensors.logs
        monkeypatch.setattr(SeriesTensors, "logs", lambda self, caps: (
            reads.append((self, caps)) or logs(self, caps)))
        eng = TeleEngine(PrabhakarParams(*params), TelegraphCoeffs(*coeffs),
                         1.0, 1.0)
        tensors, last = reads[-1]
        assert last == fit
        k, j = logs(tensors, fit)
        kmaj, jmaj = (np.exp(np.maximum.reduce([lg for _, lg in t.values()]))
                      for t in (k, j))
        sk, sj = kmaj.sum(axis=1), jmaj.sum(axis=1)
        limit = 1e-15 * float(sk @ sj)

        def tails(m, j_cap, k_cap):
            return (float(sk[m:] @ sj[m:]),
                    float(sk @ jmaj[:, j_cap:].sum(axis=1)),
                    float(kmaj[:, k_cap:].sum(axis=1) @ sj))

        caps = (eng.m_cap, eng.j_cap, eng.k_cap)
        assert all(c <= f for c, f in zip(caps, fit))
        assert sum(tails(*caps)) <= limit
        for i, c in enumerate(caps):
            if c > 1:
                fewer = tuple(c - (i == n) for n in range(3))
                assert tails(*fewer)[i] > limit / 3.0
        for tensors, kept, cols in ((k, eng.kt, eng.k_cap),
                                    (j, eng.jw, eng.j_cap)):
            for name, (sign, lg) in tensors.items():
                full = np.exp(lg) if sign is None else np.exp(lg) * sign
                assert np.array_equal(kept[name], full[:eng.m_cap, :cols])


class TestTraceSolution:
    def test_interpolates(self):
        tr = TraceSolution(x_grid=np.array([0.0, 1.0]),
                           tau=np.array([1.0, 3.0]))
        assert tr(0.5) == 2.0

    def test_rejects_descending_grid(self):
        with pytest.raises(InvalidData):
            TraceSolution(x_grid=np.array([0.0, 2.0, 1.0]),
                          tau=np.array([0.0, 0.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidData):
            TraceSolution(x_grid=np.array([0.0, 1.0]),
                          tau=np.array([0.0]))


class TestRepresentation:
    def test_initial_trace_exact(self):
        tau = lambda x: 1.0 + 0.3 * np.sin(np.asarray(x, dtype=float))
        phi = lambda t: 1.0 + 0.2 * np.asarray(t, dtype=float)
        u = fill(PARAMS, COEFFS, tau, phi, None,
                 np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 9))
        assert np.array_equal(u[0], tau(np.linspace(0.0, 1.0, 9)))

    def test_boundary_trace(self):
        tau = lambda x: 1.0 + np.asarray(x, dtype=float) ** 2
        phi = lambda t: 1.0 + np.sin(np.asarray(t, dtype=float))
        t_nodes = np.linspace(0.0, 1.0, 9)
        u = fill(PARAMS, COEFFS, tau, phi, None,
                 t_nodes, np.linspace(0.0, 1.0, 9))
        assert np.abs(u[:, 0] - phi(t_nodes)).max() <= 1e-12

    def test_constant_solution_identity(self):
        u = fill(PARAMS, COEFFS, ones, ones, None,
                 np.linspace(0.0, 1.0, 9),
                 np.linspace(0.0, 1.0, 257))
        assert np.abs(u - 1.0).max() <= 1e-3

    def test_classical_limit_matches_box_scheme(self):
        params = PrabhakarParams(alpha=1.0, beta=0.999, gamma=0.999,
                                 delta=0.0)
        tau = lambda x: 1.0 + 0.3 * np.sin(np.asarray(x, dtype=float))
        phi = lambda t: 1.0 + 0.2 * np.asarray(t, dtype=float) ** 2
        f = lambda t, x: 0.5 * t * x
        n = 32
        u = fill(params, COEFFS, tau, phi, f,
                 np.linspace(0.0, 1.0, n + 1),
                 np.linspace(0.0, 1.0, n + 1),
                 quad=QuadPolicy(n_points=96))
        ref = classical_telegraph_fd(COEFFS, Domain2D(1.0, 1.0),
                                     phi, tau, f, 256)
        rel = np.abs(u - ref[::8, ::8]).max() / np.abs(ref).max()
        assert rel <= 2e-2

    def test_linear_in_forcing(self):
        f1 = lambda t, x: t + 0.0 * x
        f2 = lambda t, x: np.cos(x) + 0.0 * t
        fsum = lambda t, x: f1(t, x) + f2(t, x)
        grids = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 7))
        kw = dict(quad=QuadPolicy(n_points=64))
        ua = fill(PARAMS, COEFFS, zeros, zeros, f1, *grids, **kw)
        ub = fill(PARAMS, COEFFS, zeros, zeros, f2, *grids, **kw)
        uc = fill(PARAMS, COEFFS, zeros, zeros, fsum, *grids, **kw)
        assert np.abs(ua + ub - uc).max() <= 1e-11

    def test_expression_functions_accepted(self):
        tau = ExprFunction("1 + x^2")
        phi = ExprFunction("1 + sin(t)")
        f = ExprFunction("t * x / 10")
        u = fill(PARAMS, COEFFS, lambda x: tau(t=0.0, x=x),
                 lambda t: phi(t=t, x=0.0), f,
                 np.linspace(0.0, 1.0, 5),
                 np.linspace(0.0, 1.0, 5),
                 quad=QuadPolicy(n_points=32))
        assert np.all(np.isfinite(u))

    def test_trace_solution_input(self):
        grid = np.linspace(0.0, 1.0, 129)
        tr = TraceSolution(x_grid=grid, tau=1.0 + grid ** 2)
        phi = lambda t: 1.0 + 0.0 * np.asarray(t, dtype=float)
        u = fill(PARAMS, COEFFS, tr, phi, None,
                 np.array([0.0, 0.5]), grid)
        assert np.array_equal(u[0], tr.tau)

    def test_trace_coverage_required(self):
        # tau is the solved trace on the x-nodes: not a callable, and not
        # a trace on a shorter or a finer grid
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        t, x = np.array([0.0, 0.1]), np.linspace(0.0, 1.0, 5)
        for tau in (ones, TraceSolution(np.linspace(0.0, 0.5, 9), np.ones(9)),
                    TraceSolution(np.linspace(0.0, 1.0, 9), np.ones(9))):
            with pytest.raises(DomainError):
                goursat_grid(eng, tau, ones, None, t, x)

    def test_corner_mismatch_rejected(self):
        tau = lambda x: np.ones_like(np.asarray(x, dtype=float))
        phi = lambda t: 2.0 + 0.0 * np.asarray(t, dtype=float)
        with pytest.raises(InvalidData):
            fill(PARAMS, COEFFS, tau, phi, None,
                 np.array([0.0, 0.5]), np.array([0.0, 1.0]))

    def test_negative_nodes_rejected(self):
        # negative, non-finite, beyond the engine's t_ref = x_ref = 1,
        # graded, or not from 0: the grid fill and the forcing term take
        # only uniform grids from 0
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        good = np.array([0.0, 1.0])
        tau = TraceSolution(good, np.ones(2))
        f = lambda t, x: t * x
        for bad in ([-0.1, 0.5], [np.nan, 0.5], [0.5, np.inf], [0.5, 1.5],
                    [], [[0.5]], [0.0, 0.25, 1.0], [0.5, 1.0]):
            for t, x in ((np.array(bad), good), (good, np.array(bad))):
                with pytest.raises(DomainError):
                    goursat_grid(eng, tau, ones, None, t, x)
            with pytest.raises(DomainError):
                ForcingTerm(eng, f, 0.0, 0.0, np.array(bad))

    def test_eps_ranges_validated(self):
        f = lambda t, x: 1.0 + 0.0 * t + 0.0 * x
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        x = np.array([0.0, 1.0])
        for eps1, eps2 in ((0.7, 0.0), (-0.1, 0.0), (0.0, 1.0), (0.0, -0.1)):
            with pytest.raises(InvalidParams):
                ForcingTerm(eng, f, eps1, eps2, x)

    def test_forcing_must_fit_the_grid(self):
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        f = lambda t, x: t * x
        x, quad = np.linspace(0.0, 1.0, 5), QuadPolicy(n_points=16)
        tau = TraceSolution(x, np.ones(5))
        for forcing in (ForcingTerm(eng, f, 0.0, 0.0, x[:3]),
                        ForcingTerm(TeleEngine(PARAMS, COEFFS, 1.0, 1.0), f,
                                    0.0, 0.0, x)):
            with pytest.raises(InvalidData):
                goursat_grid(eng, tau, ones, forcing, np.array([0.0, 0.5]),
                             x, quad)

    def test_singular_forcing_exponents(self):
        # f = t^{-eps1} x^{-eps2} * smooth stays integrable and finite
        f = lambda t, x: 1.0 + 0.0 * t + 0.0 * x
        u = fill(PARAMS, COEFFS, zeros, zeros, f,
                 np.array([0.0, 0.5, 1.0]), np.linspace(0.0, 1.0, 5),
                 eps1=0.25, eps2=0.5, quad=QuadPolicy(n_points=64))
        assert np.all(np.isfinite(u)) and np.any(u != 0.0)


def wavy(t, x):
    return (np.cos(3.0 * x) * (1.0 + t) + np.sqrt(x + 0.01)) / 5.0


class TestForcingTerm:
    @pytest.mark.parametrize("beta", [0.0, -0.5, -0.9])
    def test_gauss_jacobi_exact_to_degree_2n_minus_1(self, beta):
        nodes, weights = _gauss_jacobi(18, beta)
        k = np.arange(36)
        # int_{-1}^{1} (1+u)^beta (1+u)^k du
        exact = 2.0 ** (beta + k + 1.0) / (beta + k + 1.0)
        got = weights @ (1.0 + nodes)[:, None] ** k
        np.testing.assert_allclose(got, exact, rtol=1e-13)

    def test_singular_weights_against_adaptive_double_integral(self):
        eps1, eps2 = 0.25, 0.5
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)

        def reference(t, x):
            def inner(eta):
                b4 = eng.jw["V4"].T @ eng.cvec(t - eta, shifted=False)[:, 0]
                return adaptive(
                    lambda xi: wavy(eta, xi) * float(eng.ypowers(x - xi)[0] @ b4),
                    0.0, x, weight="alg", wvar=(-eps2, 0.0),
                    epsabs=1e-11, epsrel=1e-10)[0]
            return adaptive(inner, 0.0, t, weight="alg",
                            wvar=(-eps1, PARAMS.beta - 1.0),
                            epsabs=1e-11, epsrel=1e-10)[0]

        x_nodes = np.linspace(0.0, 1.0, 81)  # 0.4 is node 32
        forcing = ForcingTerm(eng, wavy, eps1, eps2, x_nodes)
        errs = [abs(forcing.fill(_EtaConv(eng, t, 64), [t])[0, i]
                    - reference(t, x))
                for i, (t, x) in ((32, (0.5, 0.4)), (80, (1.0, 1.0)))]
        # bound: the larger error of a graded per-x xi rule with the same
        # n_points at these two points (6.52e-5, at t = 0.5, x = 0.4)
        assert max(errs) <= 6.52e-5

    @pytest.mark.parametrize("eps1, eps2, bound", [
        (0.0, 0.0, 4.72e-5), (0.0, 0.5, 1.57e-4),
        (0.25, 0.0, 4.71e-5), (0.25, 0.5, 4.26e-5)])
    def test_assembly_integral_against_retired_rule(self, eps1, eps2, bound):
        # int_0^q M T dt of one assembly level (``_g_values`` with
        # psi = phi = 0) at 32 points, against the per-time eta rule it
        # replaced at 32 x 32 points.  bound: that rule's own error at 32
        # points, measured with it once
        prob = _smooth_problem(forcing=True)
        eng = TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        x = np.linspace(0.0, 1.0, 33)
        fine = QuadPolicy(n_points=32 * 32)
        forcing = ForcingTerm(eng, wavy, eps1, eps2, x)
        rules = volterra._t_rules(eng, prob.M, prob.domain, 32)
        got = volterra._g_values(eng, rules, prob.M, zeros, zeros, forcing,
                                 prob.domain, 32, x)
        r = max(_GRADING, 1.0 / eng.params.beta)
        outer = build_rule(0.0, graded_mesh(1.0, fine.n_points // 2, r))
        want = ((outer.weights * prob.M(outer.nodes))
                @ _forcing_rows_per_time(forcing, outer.nodes, fine))
        assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("share", [goursat._RANK_SHARE, 1.0],
                             ids=["share", "full"])
    @pytest.mark.parametrize("name", ["wavy", "per_point", "tx", "sin8tx",
                                      "inv3tx", "sqrt_abs", "noise"])
    def test_rows_match_per_time_loop(self, name, share, monkeypatch):
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        table = np.random.default_rng(3).standard_normal((41, 17))
        f = {"wavy": wavy,
             "per_point": lambda t, x: (math.cos(3.0 * x) * (1.0 + t)
                                        + math.sqrt(x + 0.01)) / 5.0,
             "tx": lambda t, x: t * x / 10.0,
             "sin8tx": lambda t, x: np.sin(8.0 * t * x),
             "inv3tx": lambda t, x: 1.0 / (3.0 - t * x),
             "sqrt_abs": lambda t, x: np.abs(t - x) ** 0.5,
             "noise": lambda t, x: table[np.rint(40.0 * t).astype(int),
                                         np.rint(16.0 * x).astype(int)],
             }[name]
        # 10 positive times on the nodes of a 40-cell eta-mesh; with
        # eps1 = 0 they read its Toeplitz table.  Blocks of 3 rows of all
        # 17 columns: the 12 rows span 4 blocks.  A share of 1 lets the
        # cross approximation run to full rank, so every factored rank
        # meets the per-time loop too.  The singular values of 1/(3 - tx)
        # fall by about 3 per rank: a rank cut at 1e3 times the
        # tolerance misses here by 1e-13
        conv = _EtaConv(eng, 1.0, 40)
        monkeypatch.setattr(goursat, "_CONV_CHUNK", 3 * 17 * eng.m_cap + 1)
        monkeypatch.setattr(goursat, "_RANK_SHARE", share)
        times = np.concatenate(([0.0], np.linspace(0.0, 1.0, 11)[1:][::-1],
                                [0.0]))
        for eps1 in (0.0, 0.25):
            for eps2 in (0.0, 0.5):
                forcing = ForcingTerm(eng, f, eps1, eps2,
                                      np.linspace(0.0, 1.0, 17))
                got = forcing.fill(conv, times)
                want = _fill_per_time(forcing, conv, times)
                assert got.shape == (times.size, 17)
                assert not got[times == 0.0].any()
                assert (np.abs(got - want).max()
                        <= 1e-14 * np.abs(want).max())

    def test_f_sampled_once_per_row(self):
        calls = []

        def f(t, x):
            calls.append(1)
            return wavy(t, x)

        t_nodes, x_nodes = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 17)
        fill(PARAMS, COEFFS, zeros, zeros, f, t_nodes, x_nodes,
             quad=QuadPolicy(n_points=64))
        # one call on the shared eta-mesh of the grid fill
        assert len(calls) == 1

    @pytest.mark.parametrize("t_nodes", [np.linspace(0.0, 1.0, 9),
                                          np.array([0.0, 0.7])])
    def test_broadcasting_f_called_once_per_grid_fill(self, t_nodes):
        calls = []

        def f(t, x):
            calls.append(1)
            return wavy(t, x)

        fill(PARAMS, COEFFS, zeros, zeros, f, t_nodes,
             np.linspace(0.0, 1.0, 17), quad=QuadPolicy(n_points=64))
        assert len(calls) == 1

    def test_non_broadcasting_forcing_matches_numpy_twin(self):
        grids = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 9))
        kw = dict(quad=QuadPolicy(n_points=32))
        calls = []

        def per_eta(t, x):
            calls.append(1)
            return math.exp(t) * x

        want = fill(PARAMS, COEFFS, zeros, zeros,
                    lambda t, x: np.exp(t) * x, *grids, **kw)
        got = fill(PARAMS, COEFFS, zeros, zeros, per_eta, *grids, **kw)
        assert np.abs(got - want).max() <= 1e-13
        # one failed broadcast call, then one call per node of the shared
        # eta-mesh: 4 rows times ceil(32 / 4) cells, plus eta = 0
        cells = 4 * 8
        assert len(calls) == 1 + cells + 1

        scalar = lambda t, x: math.cos(3.0 * x) * (1.0 + t)
        twin = lambda t, x: np.cos(3.0 * x) * (1.0 + t)
        got = fill(PARAMS, COEFFS, zeros, zeros, scalar, *grids, **kw)
        want = fill(PARAMS, COEFFS, zeros, zeros, twin, *grids, **kw)
        assert np.abs(got - want).max() <= 1e-13


def _phi_rows(conv, phi, t_nodes):
    """The phi rows of the grid fill on ``conv``: one ``_lattice_rows`` of
    phi on the eta-mesh, zero at t = 0."""
    samples = _call_on(phi, conv.etas)
    return _lattice_rows(samples[1:], conv.inner, conv.index(t_nodes),
                         (samples[0], conv.left))


class TestEtaMesh:
    @staticmethod
    def _grid_convolutions(prob, forcing, points, t):
        """(phi convolution folded with V3, forcing rows) of the grid fill."""
        n_t = t.size - 1
        conv = _EtaConv(forcing.engine, t[-1], n_t * -(-points // n_t))
        return (_phi_rows(conv, prob.phi, t) @ forcing.engine.jw["V3"],
                forcing.fill(conv, t))

    def test_converges_faster_than_per_row_rule(self):
        # the acceptance problem at 64/256: both the eta-mesh and the
        # per-row rule it replaced, against the eta-mesh at 8x n_points
        prob = _smooth_problem(forcing=True)
        eng = TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        t, x = np.linspace(0.0, 1.0, 65), np.linspace(0.0, 1.0, 65)
        forcing = ForcingTerm(eng, prob.f_smooth, 0.0, 0.0, x)
        phi_ref, rows_ref = self._grid_convolutions(prob, forcing, 2048, t)
        phi_new, rows_new = self._grid_convolutions(prob, forcing, 256, t)
        beta = prob.params.beta
        rule = build_rule(beta - 1.0, graded_mesh(1.0, 256, 1.0 / beta))
        table = _lag_table(eng, rule.nodes)
        phi_old = np.array([
            tk ** beta * _lag_cvec(eng, table, tk, shifted=False)
            @ (prob.phi(tk - tk * rule.nodes) * rule.weights) for tk in t])
        phi_old = phi_old @ eng.jw["V3"]
        rows_old = _forcing_rows_per_time(forcing, t,
                                          QuadPolicy(n_points=256))
        for new, old, ref in ((phi_new, phi_old, phi_ref),
                              (rows_new, rows_old, rows_ref)):
            assert 5.0 * np.abs(new - ref).max() <= np.abs(old - ref).max()

    @pytest.mark.parametrize("eps1", [0.0, 0.25])
    @pytest.mark.parametrize("t_nodes", [
        np.linspace(0.0, 1.0, 9),  # 32 cells
        np.linspace(0.0, 1.0, 4),  # n_t = 3: 33 cells
        np.array([0.0, 0.7]),  # one t-cell: 32 cells on [0, 0.7]
        # n_t = 3 to 10 digits: t_2 sits 1e-9 cells above its node
        np.round(np.linspace(0.0, 1.0, 4), 10)])
    def test_rows_match_one_row_at_a_time(self, t_nodes, eps1, monkeypatch):
        eng = TeleEngine(PARAMS, COEFFS, t_nodes[-1], 1.0)
        n_t = t_nodes.size - 1
        conv = _EtaConv(eng, t_nodes[-1], n_t * -(-32 // n_t))
        samples = np.cos(np.multiply.outer(conv.etas, [1.0, 4.0, 9.0]))
        # blocks of 2 rows
        monkeypatch.setattr(goursat, "_CONV_CHUNK", 2 * 3 * eng.m_cap)
        got = np.zeros((t_nodes.size, 3, eng.m_cap))
        for rows, g in conv.apply(samples, t_nodes, eps1):
            got[rows] = g
        for tk, g in zip(t_nodes, got):
            want = (samples.T @ _row_weights(conv, tk, eps1)
                    if tk > 0.0 else np.zeros_like(g))
            assert np.abs(g - want).max() <= 1e-13 * max(np.abs(want).max(),
                                                         1e-300)

    def test_rows_in_blocks_of_one(self, monkeypatch):
        # eps1 > 0 with one row a block: the row t = 0 makes a block with
        # no end pieces
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        conv = _EtaConv(eng, 1.0, 32)
        samples = np.cos(np.multiply.outer(conv.etas, [1.0, 4.0]))
        monkeypatch.setattr(goursat, "_CONV_CHUNK", 2 * eng.m_cap)
        t_nodes = np.linspace(0.0, 1.0, 5)
        for (row,), (g,) in conv.apply(samples, t_nodes, 0.25):
            want = (samples.T @ _row_weights(conv, t_nodes[row], 0.25)
                    if row else np.zeros_like(g))
            assert np.abs(g - want).max() <= 1e-13 * max(np.abs(want).max(),
                                                         1e-300)

    @pytest.mark.parametrize("t_nodes", [
        np.linspace(0.0, 1.0, 9),  # 32 cells
        np.linspace(0.0, 1.0, 4)])  # n_t = 3: 33 cells
    def test_phi_rows_match_one_row_at_a_time(self, t_nodes, monkeypatch):
        # the rows come from ``_lattice_rows``, against each row's own
        # weights
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        phi = lambda t: np.cos(3.0 * np.asarray(t, dtype=float))
        n_t = t_nodes.size - 1
        conv = _EtaConv(eng, t_nodes[-1], n_t * -(-32 // n_t))
        # blocks of 3 Hankel rows
        monkeypatch.setattr(quadrature, "_CONV_CHUNK", 3 * conv.cells)
        got = _phi_rows(conv, phi, t_nodes)
        samples = phi(conv.etas)
        for tk, g in zip(t_nodes, got):
            want = (samples @ _row_weights(conv, tk, 0.0)
                    if tk > 0.0 else np.zeros_like(g))
            assert np.abs(g - want).max() <= 1e-13 * max(np.abs(want).max(),
                                                         1e-300)

    @pytest.mark.parametrize("eps1", [0.0, 0.25])
    @pytest.mark.parametrize("cells", [2, 3, 4, 5, 32])
    def test_adjoint_sums_the_rows_own_weights(self, cells, eps1):
        # sum_k a_k w_k over the rows t = k h, each w_k from the row's own
        # ``_row_weights``; a[0] is not read
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        conv = _EtaConv(eng, 1.0, cells)
        a = np.random.default_rng(cells).standard_normal(cells + 1)
        want = sum(a[k] * _row_weights(conv, k * conv.h, eps1)
                   for k in range(1, cells + 1))
        got = conv.adjoint(a, eps1)
        assert got.shape == (cells + 1, eng.m_cap)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("eps1", [0.0, 0.25])
    def test_adjoint_is_the_transpose_of_apply(self, eps1, monkeypatch):
        # sum_k a_k <row_k(s), y> = <s, W y> on random data, the rows from
        # ``apply`` in blocks of 3 and W from ``adjoint``
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        conv = _EtaConv(eng, 1.0, 40)
        rng = np.random.default_rng(11)
        a, s = rng.standard_normal((2, conv.cells + 1))
        y = rng.standard_normal(eng.m_cap)
        monkeypatch.setattr(goursat, "_CONV_CHUNK", 3 * eng.m_cap)
        rows = np.zeros((conv.cells + 1, eng.m_cap))
        for k, g in conv.apply(s[:, None], conv.etas, eps1):
            rows[k] = g[:, 0]
        w = conv.adjoint(a, eps1)
        scale = max(np.abs(a) @ np.abs(rows) @ np.abs(y),
                    np.abs(s) @ np.abs(w) @ np.abs(y))
        assert abs(a @ rows @ y - s @ w @ y) <= 1e-14 * scale

    @pytest.mark.parametrize("cells", [4, 40])
    def test_adjoint_rows_match_strided_sums(self, cells):
        # the adjoint's reversed-weight rows against a strided Toeplitz
        # view, on the tables of both eps1 branches
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        conv = _EtaConv(eng, 1.0, cells)
        a = np.random.default_rng(cells).standard_normal(cells + 1)
        for table in (conv.inner, conv._lags[1:]):
            want = _toeplitz_sums(a, table)
            got = _lattice_rows(a[:0:-1], table, np.arange(len(table), 0, -1))
            assert got.shape == table.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_ends_evaluate_each_distinct_node_once(self, monkeypatch):
        # eps1 > 0 on 16 rows: 8 first-cell nodes t - eta per row, and the
        # lag-end nodes: 16 that every row from t = 3 h shares, 8 of the
        # row t = h, and one each for the empty second pieces of the rows
        # h and 2 h, where the rule has 24 nodes per row
        columns = []
        original = TeleEngine.cvec

        def counted(self, s, shifted):
            columns.append(np.size(s))
            return original(self, s, shifted)

        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        conv = _EtaConv(eng, 1.0, 16)
        monkeypatch.setattr(TeleEngine, "cvec", counted)
        conv._ends(conv.etas[1:], 0.25)
        assert columns == [8 * 16 + 26]


def _toeplitz_sums(a, table):
    """S[c] = sum_(l >= c) a[n + c - l] table[l], n = a.size - 1, by one
    product with a strided Toeplitz view of the reversed a after zeros:
    the reference of the adjoint's reversed-weight ``_lattice_rows``."""
    n = len(table)
    ext = np.concatenate((np.zeros(n - 1), a[:-n - 1:-1]))
    toeplitz = as_strided(ext[n - 1:], (n, n),
                          (-ext.strides[0], ext.strides[0]))
    return (toeplitz @ table.reshape(n, -1)).reshape(table.shape)


def _cvec_by_pow(eng, s, shifted):
    """c(m; s) with float pows per node: ((kt @ Z^k) * X^m) for
    X = sign(a) (s/t_ref)^beta and Z = sign(delta) (s/t_ref)^alpha."""
    r = np.asarray(s, dtype=float) / eng.t_ref
    x = np.sign(eng.coeffs.a) * r ** eng.params.beta
    z = np.sign(eng.params.delta) * r ** eng.params.alpha
    xn = x[None, :] ** np.arange(eng.m_cap)[:, None]
    zn = z[None, :] ** np.arange(eng.k_cap)[:, None]
    return (eng.kt["shifted" if shifted else "base"] @ zn) * xn


def _forcing_rows_per_time(forcing, times, quad):
    """Rows T(t, x_nodes) by the per-time eta rule of ``quad`` that the
    trace assembly used before it swapped int M T dt onto its V3 weights,
    one time at a time, each with its own ``_lag_cvec`` and call of f.

    [0, t] splits at t/2 so each half carries one power weight:
    eta^-eps1 on the left, (t - eta)^(beta-1) on the right, each by
    ``build_rule`` on max(n_points // 2, 8) cells graded by
    max(_GRADING, 1/beta), scaled from [0, 1] to the half.
    """
    eng, eps1 = forcing.engine, forcing.eps1
    beta = eng.params.beta
    mesh = graded_mesh(1.0, max(quad.n_points // 2, 8),
                       max(_GRADING, 1.0 / beta))
    left, right = build_rule(-eps1, mesh), build_rule(beta - 1.0, mesh)
    ln, rn = 0.5 * left.nodes, 0.5 * right.nodes
    etas = np.concatenate((ln, 1.0 - rn))
    table = _lag_table(eng, np.concatenate((1.0 - ln, rn)))
    coef = np.concatenate((
        0.5 ** (1.0 - eps1) * left.weights * (1.0 - ln) ** (beta - 1.0),
        0.5 ** beta * right.weights * (1.0 - rn) ** (-eps1)))
    out = np.zeros((len(times), forcing.x_nodes.size))
    for i, t in enumerate(times):
        if t > 0.0:
            c = _lag_cvec(eng, table, t, shifted=False)
            amat = forcing._sample(t * etas).T @ (c * coef).T
            out[i] = forcing.q @ (t ** (beta - eps1) * amat).ravel()
    return out


def _lag_table(eng, u):
    """Power tables of a unit lag rule u >= 0, ((m_cap, n), (k_cap, n)):
    rows (u^beta)^m and (u^alpha)^k, which ``_lag_cvec`` scales to the
    lags t u of any time t."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return (_power_rows(u ** eng.params.beta, eng.m_cap),
            _power_rows(u ** eng.params.alpha, eng.k_cap))


def _lag_cvec(eng, table, t, shifted):
    """c(m; t u_n) from the ``_lag_table`` of u: X = a (t u)^beta
    factors as [sign(a) (t/t_ref)^beta] times the u^beta of the table, and
    Z likewise, so c = ((kt * xs zs^T) @ Zu) * Xu with xs and zs the
    m_cap and k_cap powers of those two scalars."""
    xu, zu = table
    r = float(t) / eng.t_ref
    xs = (eng._sign_a * r ** eng.params.beta) ** eng._m_exps
    zs = (eng._sign_d * r ** eng.params.alpha) ** eng._k_exps
    return ((eng.kt["shifted" if shifted else "base"] * np.outer(xs, zs))
            @ zu) * xu


def _row_weights(conv, t, eps1):
    """The weights (cells + 1, m_cap) of the eta-mesh nodes in the row
    t = n h, built for that row alone: each inner cell j (from 1 when
    eps1 > 0) by 4 Gauss-Legendre nodes with the kernel at the lags of
    cell cells - n + j of the row t_max, the hats and eta^-eps1, and the
    end pieces from the row's own ``_EtaConv._ends``."""
    n, m_cap = max(1, int(conv.index(t))), conv.engine.m_cap
    hats = np.zeros((2, n, m_cap))
    inner = np.arange(int(eps1 > 0.0), n - 2)
    if inner.size:
        wts = (conv._eta[inner] ** -eps1)[:, None] * (
            conv.h * goursat._LAG_HATS)
        kernel = conv._kernel(conv.t_max - conv._eta[conv.cells - n + inner])
        hats[:, inner] = np.matmul(wts, kernel).transpose(1, 0, 2)
    cells, adds = (e[0] for e in conv._ends(np.array([t]), eps1))
    np.add.at(hats, (slice(None), cells), adds)
    w = np.zeros((conv.cells + 1, m_cap))
    w[:n] += hats[0]
    w[1:n + 1] += hats[1]
    return w


def _fill_per_time(forcing, conv, times):
    """``ForcingTerm.fill`` one time at a time: each row from its own
    ``_row_weights`` and its own call of f on the eta-mesh."""
    out = np.zeros((len(times), forcing.x_nodes.size))
    for i, t in enumerate(times):
        if t > 0.0:
            f = forcing._sample(conv.etas)
            g = f.T @ _row_weights(conv, t, forcing.eps1)
            out[i] = forcing.q @ g.ravel()
    return out


def _xi_moments_per_pair(mesh, x_nodes, eps2, j_cap, x_ref, sign_b):
    """The unfolded xi-moments Q[i, k, j], shape (x_nodes.size, mesh.size,
    j_cap): one x-node at a time, every (node, cell) pair by its own
    Gauss rule on [lo, min(top, x)] with powers of sign_b (x - xi)/x_ref."""
    n_gauss = j_cap // 2 + 2
    u_leg, w_leg = _gauss_jacobi(n_gauss, 0.0)
    u_jac, w_jac = _gauss_jacobi(n_gauss, -eps2)
    q = np.zeros((x_nodes.size, mesh.size, j_cap))
    for block, x in zip(q, x_nodes):
        hi = min(int(np.searchsorted(mesh, x, side="left")), mesh.size - 1)
        if hi > 0:
            lo, top = mesh[:hi], mesh[1:hi + 1]
            half = 0.5 * (np.minimum(top, x) - lo)
            u = np.tile(u_leg, (hi, 1))
            u[0] = u_jac
            xi = lo[:, None] + half[:, None] * (1.0 + u)
            w = half[:, None] * w_leg * xi ** (-eps2)
            w[0] = half[0] ** (1.0 - eps2) * w_jac
            right = (xi - lo[:, None]) / (top - lo)[:, None]
            hats = np.stack((w - w * right, w * right), axis=1)
            ypow = (sign_b * (x - xi) / x_ref)[..., None] ** np.arange(j_cap)
            m = hats @ ypow
            block[:hi] = m[:, 0]
            block[1:hi + 1] += m[:, 1]
    return q


def _trace_moments_per_node(trace, x_nodes, j_cap, x_ref, sign_b):
    """One x-node at a time, float pows per cell end."""
    jj = np.arange(j_cap, dtype=float)
    sgn = sign_b ** jj
    mom = np.zeros((x_nodes.size, j_cap))
    gx, gv = trace.x_grid, trace.tau
    for i, xi in enumerate(x_nodes):
        if xi <= 0.0:
            continue
        xi = min(xi, float(gx[-1]))
        hi_idx = min(int(np.searchsorted(gx, xi, side="left")), gx.size - 1)
        lo = gx[:hi_idx]
        hi = np.minimum(gx[1:hi_idx + 1], xi)
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        if lo.size == 0:
            continue
        v_lo = gv[:hi_idx][keep]
        slope = np.zeros_like(lo)
        widths = gx[1:hi_idx + 1][keep] - lo
        nz = widths > 0
        slope[nz] = (gv[1:hi_idx + 1][keep][nz] - v_lo[nz]) / widths[nz]
        wl = (xi - lo) / x_ref
        wh = (xi - hi) / x_ref
        m0 = (wl[:, None] ** (jj + 1.0) - wh[:, None] ** (jj + 1.0)) / (jj + 1.0)
        m1 = (wl[:, None] ** (jj + 2.0) - wh[:, None] ** (jj + 2.0)) / (jj + 2.0)
        coef0 = v_lo + slope * x_ref * wl
        cells = coef0[:, None] * m0 - (slope * x_ref)[:, None] * m1
        mom[i] = x_ref * (cells.sum(axis=0) * sgn)
    return mom


class TestLagTables:
    @pytest.mark.parametrize("count", [1, 2, 3, 32, 33])
    def test_power_rows_match_float_pow(self, count):
        r = np.array([-1.0, -0.93, -0.5, 0.0, 0.25, 0.8, 1.0])
        got = _power_rows(r, count)
        want = r[None, :] ** np.arange(count)[:, None]
        assert got.shape == (count, r.size)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)

    @pytest.mark.parametrize("a, delta", [(-1.0, -0.5), (0.7, -0.5),
                                          (-1.0, 0.8)])
    @pytest.mark.parametrize("shifted", [True, False])
    def test_lag_table_matches_direct_coefficients(self, a, delta, shifted):
        eng = TeleEngine(PrabhakarParams(1.0, 0.5, 0.5, delta),
                         TelegraphCoeffs(a, -0.5), 1.3, 1.0)
        u = np.concatenate(([0.0], np.linspace(0.0, 1.0, 41) ** 2, [1.0]))
        table = _lag_table(eng, u)
        for t in (0.0, 0.01, 0.4, 1.3):
            want = _cvec_by_pow(eng, t * u, shifted)
            tol = 1e-14 * np.abs(want).max()
            got = _lag_cvec(eng, table, t, shifted)
            assert np.abs(got - want).max() <= tol
            assert np.abs(eng.cvec(t * u, shifted) - want).max() <= tol

    # (grid, x_ref): uniform grids from 0: the x-grid of solve, a
    # non-dyadic step, a grid that ends short of x_ref, and one cell
    _GRIDS = ((np.linspace(0.0, 1.0, 65), 1.0),
              (np.linspace(0.0, 1.3, 41), 1.3),
              (np.linspace(0.0, 0.6, 65), 1.0),
              (np.linspace(0.0, 1.0, 2), 1.0))

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("sign_b", [-1.0, 0.0, 1.0])
    def test_trace_moments_match_per_node_loop(self, case, sign_b):
        grid, x_ref = self._GRIDS[case]
        trace = TraceSolution(grid, np.exp(-grid) + np.sin(5.0 * grid))
        want = _trace_moments_per_node(trace, grid, 32, x_ref, sign_b)
        left, inner = _hat_moments(grid, 32, x_ref, sign_b)
        got = _lattice_rows(trace.tau[1:], inner, np.arange(grid.size),
                            (trace.tau[0], left))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("eps2", [0.0, 0.5])
    @pytest.mark.parametrize("sign_b", [-1.0, 0.0, 1.0])
    def test_xi_moments_match_per_pair_rule(self, case, eps2, sign_b):
        mesh, x_ref = self._GRIDS[case]
        jw = TeleEngine(PARAMS, TelegraphCoeffs(-1.0, sign_b), 1.0,
                        1.0).jw["V4"]
        j_cap = jw.shape[1]
        per_pair = _xi_moments_per_pair(mesh, mesh, eps2, j_cap, x_ref,
                                        sign_b)
        # the identity for jw gives the signed table itself, entry by entry
        got = _xi_moments(mesh, eps2, np.eye(j_cap), x_ref, sign_b)
        assert got.shape == (mesh.size, mesh.size * j_cap)
        got = got.reshape(per_pair.shape)
        assert np.all(np.abs(got - per_pair) <= 1e-13 * np.abs(per_pair))
        # folded with V4: for sign_b = -1 the fold is an alternating sum
        # over j that cancels to 1e-11 of max |want| in both tables, so
        # each entry is held to its sum of |terms|
        want = np.einsum("ikj,mj->ikm", per_pair, jw)
        terms = np.einsum("ikj,mj->ikm", np.abs(per_pair), jw)
        got = _xi_moments(mesh, eps2, jw, x_ref, sign_b)
        assert got.shape == (mesh.size, mesh.size * jw.shape[0])
        assert np.all(np.abs(got.reshape(want.shape) - want) <= 1e-13 * terms)

    def test_toeplitz_rows_match_dense_product(self, monkeypatch):
        # rows k of the lower-triangular Toeplitz matrix of lags k - j on
        # the samples 1..n, plus the left edge left[n - k] samples[0]
        rng = np.random.default_rng(7)
        n, width = 11, 4
        left, inner = rng.standard_normal((2, n, width))
        samples = rng.standard_normal(n + 1)
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        dense = np.tril(np.moveaxis(inner[(n - 1 - lag) % n], -1, 0))
        want = (dense @ samples[1:]).T + samples[0] * left[::-1]
        k = np.array([n, 1, 7, 2, 9])
        # blocks of 3 rows
        monkeypatch.setattr(quadrature, "_CONV_CHUNK", 3 * n)
        got = _lattice_rows(samples[1:], inner, k, (samples[0], left))
        assert got.shape == (k.size, width)
        assert np.abs(got - want[k - 1]).max() <= 1e-14 * np.abs(want).max()

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
           w=st.floats(0.0, 1.0), count=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_shift_matrices_compose(self, a, b, w, count):
        b0, ba, bb, bab = (_shift_matrix(count, h) for h in (0.0, a, b, a + b))
        assert np.array_equal(b0, np.eye(count))
        assert np.abs(ba @ bb - bab).max() <= 1e-13 * np.abs(bab).max()
        # powers of w times B(a) are the powers of w + a
        want = (w + a) ** np.arange(count)
        got = _power_rows(np.array([w]), count)[:, 0] @ ba
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_pascal_table_built_once_read_only(self):
        binom, gap = _pascal(6)
        assert _pascal(6)[0] is binom
        assert not (binom.flags.writeable or gap.flags.writeable)
        assert binom[2, 4] == 6.0 and gap[1, 4] == 3 and gap[4, 1] == 0

    def test_unforced_solve_makes_no_cvec_call_per_row(self, monkeypatch):
        # the phi convolution and the V3 integral contract whole blocks of
        # time rows (``_lattice_rows``, ``_EtaConv.adjoint``); only
        # whole-grid cvec calls remain
        calls = []
        original = TeleEngine.cvec

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TeleEngine, "cvec", counted)
        prob = _smooth_problem(forcing=False)
        counts = []
        for n, points in ((16, 64), (32, 128)):
            calls.clear()
            TABLES.clear()  # count a cold solve
            solve(prob, n_t=n, n_x=n, quad=QuadPolicy(n_points=points))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.fixture
    def power_row_calls(self, monkeypatch):
        calls = []
        original = goursat._power_rows

        def counted(r, count):
            calls.append(count)
            return original(r, count)

        monkeypatch.setattr(goursat, "_power_rows", counted)
        return calls

    def test_time_rows_build_no_power_tables(self, power_row_calls):
        # grid rows, phi convolution and forcing rows all scale lag tables
        # built once per rule, so the count does not grow with n_t
        prob = _smooth_problem(forcing=True)
        counts = []
        for n_t in (16, 32):
            power_row_calls.clear()
            # count a cold solve: the second would reuse the x-side tables
            TABLES.clear()
            solve(prob, n_t=n_t, n_x=16, quad=QuadPolicy(n_points=64))
            counts.append(len(power_row_calls))
        assert counts[0] == counts[1]

    def test_v3_loop_builds_no_power_tables_per_outer_node(
            self, power_row_calls):
        prob = _smooth_problem(forcing=False)
        eng = TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        counts = []
        for n in (32, 64):
            power_row_calls.clear()
            TABLES.clear()  # count a cold assembly
            volterra.assemble_system(eng, prob.domain, prob.M, prob.phi,
                                     prob.psi, None,
                                     np.linspace(0.0, 1.0, n + 1))
            counts.append(len(power_row_calls))
        assert counts[0] == counts[1]
