"""Tests of the trace-equation assembly and the Nystrom/Picard solvers."""

import math
import warnings

import numpy as np
import pytest

from prabtel.errors import (
    DegenerateNonlocal,
    InvalidData,
    MaxIterExceeded,
    SingularStep,
)
from prabtel.acceptance import _smooth_problem
from prabtel.cache import TABLES
from prabtel.fracops import PrabhakarParams, QuadPolicy
from prabtel.goursat import (
    Domain2D,
    ForcingTerm,
    TeleEngine,
    TelegraphCoeffs,
    _EtaConv,
)
from prabtel.oracle import adaptive_quad
from prabtel.problem import solve
from prabtel.quadrature import _call_on
from prabtel.specfun import SeriesPolicy, ml3
from prabtel.volterra import (
    VolterraSystem,
    _a_integrals,
    _eta_weights,
    _g_values,
    _m1_at,
    _phi_sum,
    _t_rules,
    _trapezoid_weights,
    assemble_system,
    picard_solve,
    solve_tau,
)
from prabtel.goursat import ml3_tele_variant
from test_goursat import _row_weights


PARAMS = PrabhakarParams(alpha=1.0, beta=0.5, gamma=0.5, delta=-1.0)
COEFFS = TelegraphCoeffs(a=-1.0, b=-1.0)
DOMAIN = Domain2D(q=1.0, p=1.0)


def ones(v):
    return np.ones_like(np.asarray(v, dtype=float))


def zeros(v):
    return np.zeros_like(np.asarray(v, dtype=float))


def gamma_e2(eng, s):
    """G(gamma) E2(a s^beta, delta s^alpha): the shifted coefficients
    summed over m."""
    return eng.cvec(s, shifted=True).sum(axis=0)


def fbar(eng, v, s, dx):
    """F_v(a s^beta; b dx; delta s^alpha), shape (n_dx, n_s)."""
    c = eng.cvec(s, shifted=v in ("V1", "V2"))
    return eng.ypowers(dx) @ (eng.jw[v].T @ c)


def assemble(params, coeffs, domain, M, phi, psi, f=None, n=256):
    """``assemble_system`` on a fresh engine of the domain, with n
    x-cells on [0, p]."""
    engine = TeleEngine(params, coeffs, domain.q, domain.p)
    x = np.linspace(0.0, domain.p, n + 1)
    forcing = None if f is None else ForcingTerm(engine, f, 0.0, 0.0, x)
    return assemble_system(engine, domain, M, phi, psi, forcing, x)


def manufactured_system(n: int) -> VolterraSystem:
    """tau*(x) = 1 + x^2 under kernel exp(xi - x) with unit coupling."""
    x = np.linspace(0.0, 1.0, n + 1)
    m2 = np.exp(x[None, :] - x[:, None])
    rhs = 2.0 * x - 2.0 + 3.0 * np.exp(-x)
    return VolterraSystem(A=1.0, x_grid=x, m2=m2, rhs=rhs, coupling=1.0)


class TestSystemValidation:
    def test_degenerate_A_rejected(self):
        with pytest.raises(DegenerateNonlocal):
            VolterraSystem(A=1e-12, x_grid=np.array([0.0, 1.0]),
                           m2=np.zeros((2, 2)), rhs=np.zeros(2),
                           coupling=1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidData):
            VolterraSystem(A=1.0, x_grid=np.array([0.0, 1.0]),
                           m2=np.zeros((3, 3)), rhs=np.zeros(2),
                           coupling=1.0)


class TestSolvers:
    def test_manufactured_second_order(self):
        errors = []
        for n in (32, 64, 128):
            sol = solve_tau(manufactured_system(n))
            exact = 1.0 + sol.x_grid ** 2
            errors.append(np.abs(sol.tau - exact).max())
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5

    def test_discrete_residual_is_algebraic_identity(self):
        sol = solve_tau(manufactured_system(64))
        assert sol.diagnostics["residual"] <= 1e-12

    def test_constant_kernel_resolvent_is_exp(self):
        x = np.linspace(0.0, 1.0, 257)
        sys_ = VolterraSystem(A=1.0, x_grid=x, m2=np.ones((257, 257)),
                              rhs=np.ones(257), coupling=1.0)
        sol = solve_tau(sys_)
        assert np.abs(sol.tau - np.exp(x)).max() <= 5e-5

    def test_singular_pivot_detected(self):
        x = np.array([0.0, 0.5, 1.0])
        m2 = np.full((3, 3), 4.0)  # coupling * (h/2) * 4 = 1 at h = 0.5
        sys_ = VolterraSystem(A=1.0, x_grid=x, m2=m2, rhs=np.ones(3),
                              coupling=1.0)
        with pytest.raises(SingularStep):
            solve_tau(sys_)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("n", [2, 31, 33, 129])
    def test_blocked_solve_matches_forward_substitution(self, n, scale):
        # n nodes: within one block, one block and a node, four blocks and
        # a node; the kernel carries entries above the diagonal, which the
        # trapezoid weights drop.  At scale 1e3 the entries below the
        # diagonal outgrow it, where a pivoting solve would reorder rows
        x = np.linspace(0.0, 1.0, n)
        m2 = scale * (np.exp(x[None, :] - x[:, None])
                      * (1.0 + np.random.default_rng(n).random((n, n))))
        sys_ = VolterraSystem(A=1.0, x_grid=x, m2=m2, rhs=np.cos(3.0 * x),
                              coupling=-1.5)
        sol = solve_tau(sys_)
        w, c = _trapezoid_weights(x), sys_.coupling
        want = np.zeros(n)
        want[0] = sys_.rhs[0]
        for i in range(1, n):
            acc = sys_.rhs[i] + c * (w[i, :i] * m2[i, :i]) @ want[:i]
            want[i] = acc / (1.0 - c * w[i, i] * m2[i, i])
        assert sol.tau[0] == sys_.rhs[0]
        assert np.abs(sol.tau - want).max() <= 1e-14 * np.abs(want).max()
        assert sol.diagnostics["residual"] <= 1e-12 * max(
            1.0, np.abs(want).max())

    def test_zero_pivot_past_the_first_block_detected(self):
        # coupling * (h/2) * m2[40, 40] = 1 at h = 1/64 makes node 40 the
        # only zero pivot
        x = np.linspace(0.0, 1.0, 65)
        m2 = np.zeros((65, 65))
        m2[40, 40] = 128.0
        sys_ = VolterraSystem(A=1.0, x_grid=x, m2=m2, rhs=np.ones(65),
                              coupling=1.0)
        with pytest.raises(SingularStep, match="at node 40 "):
            solve_tau(sys_)

    def test_picard_matches_direct(self):
        sys_ = manufactured_system(64)
        direct = solve_tau(sys_)
        picard = picard_solve(sys_, tol=1e-13)
        assert np.abs(direct.tau - picard.tau).max() <= 1e-8

    def test_picard_zero_kernel_returns_rhs(self):
        x = np.linspace(0.0, 1.0, 9)
        rhs = np.cos(x)
        sys_ = VolterraSystem(A=1.0, x_grid=x, m2=np.zeros((9, 9)),
                              rhs=rhs, coupling=1.0)
        sol = picard_solve(sys_)
        assert np.array_equal(sol.tau, rhs)
        assert sol.diagnostics["iterations"] == 1

    def test_picard_iteration_cap(self):
        with pytest.raises(MaxIterExceeded):
            picard_solve(manufactured_system(32), max_iter=2, tol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 129])
    def test_trapezoid_weights_match_row_loop(self, n):
        x = np.sort(np.random.default_rng(7).random(n)) ** 2
        want = np.zeros((n, n))
        for i in range(1, n):
            cells = np.diff(x[: i + 1])
            want[i, 0] = 0.5 * cells[0]
            want[i, i] = 0.5 * cells[-1]
            if i > 1:
                want[i, 1:i] = 0.5 * (cells[:-1] + cells[1:])
        assert np.array_equal(_trapezoid_weights(x), want)


class TestComputeA:
    """The display constant of the assembly, ``diagnostics["a_display"]``."""

    def test_a_zero_reduces_to_weight_mass(self):
        co = TelegraphCoeffs(a=0.0, b=-1.0)
        with pytest.warns(RuntimeWarning):
            sys_ = assemble(PARAMS, co, DOMAIN, lambda t: np.asarray(t),
                            ones, zeros)
        assert sys_.diagnostics["a_display"] == pytest.approx(0.5, rel=1e-9)

    def test_strict_regime_bound_exceeds_weight_mass(self):
        M = lambda t: 0.5 + 0.5 * np.asarray(t, dtype=float)
        value = assemble(PARAMS, COEFFS, DOMAIN, M, ones,
                         zeros).diagnostics["a_display"]
        mass = 0.75
        assert value > mass - 1e-8

    def test_reference_value_against_oracle_quadrature(self):
        # M = 1, q = 1: A = 1 + G(g) int_0^1 t^b E2(-t^b, -t) dt; the
        # substitution t = u^2 makes the integrand entire in u
        from prabtel.goursat import ml2_tele
        from prabtel.specfun import ml2
        packed = ml2_tele(PARAMS)
        tight = SeriesPolicy(rel_tol=1e-15)
        ref = adaptive_quad(
            lambda u: 2.0 * float(u) ** 2 * math.gamma(0.5)
            * ml2(packed, -float(u), -float(u) ** 2, tight),
            0.0, 1.0, weight_exponent=0.0, tol=1e-12, dps=30)
        got = assemble(PARAMS, COEFFS, DOMAIN, ones, ones,
                       zeros).diagnostics["a_display"]
        assert got == pytest.approx(1.0 + float(ref), abs=5e-7)

    def test_vanishing_weight_rejected(self):
        with pytest.raises(InvalidData):
            assemble(PARAMS, COEFFS, DOMAIN, zeros, ones, zeros)

    def test_cancelling_weight_is_degenerate(self):
        # at a = 0 the divisor is 1 - int M dt, which a weight of unit
        # mass cancels
        co = TelegraphCoeffs(a=0.0, b=-1.0)
        M = lambda t: 1.0 + np.sin(2.0 * np.pi * np.asarray(t, dtype=float))
        with pytest.warns(RuntimeWarning), pytest.raises(DegenerateNonlocal):
            assemble(PARAMS, co, DOMAIN, M, ones, zeros)


class TestKernelM1:
    """M1 from the assembled kernel samples, ``system.m2 * system.A``."""

    def test_translation_invariance(self):
        M = lambda t: 1.0 + 0.5 * np.asarray(t, dtype=float)
        sys_ = assemble(PARAMS, COEFFS, DOMAIN, M, ones, zeros, n=64)
        m1 = sys_.m2 * sys_.A
        # (xi, x) = (0, 0.3125), (0.1875, 0.5) and (0.4375, 0.75)
        vals = [m1[i, j] for j, i in ((0, 20), (12, 32), (28, 48))]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[0] == pytest.approx(vals[2], rel=1e-12)

    def test_value_against_oracle_quadrature(self):
        packed = ml3_tele_variant("V2", PARAMS)
        tight = SeriesPolicy(rel_tol=1e-15)
        ref = adaptive_quad(
            lambda u: 2.0 * float(u) ** 2
            * ml3(packed, -float(u), -0.5, -float(u) ** 2, tight),
            0.0, 1.0, weight_exponent=0.0, tol=1e-12, dps=30)
        sys_ = assemble(PARAMS, COEFFS, DOMAIN, ones, ones, zeros)
        assert sys_.x_grid[128] == 0.5
        got = sys_.m2[128, 0] * sys_.A
        assert got == pytest.approx(float(ref), abs=5e-7)


class TestRhsG:
    """g from the assembled right-hand side, ``system.rhs * system.A``."""

    def test_value_at_origin_under_compatible_data(self):
        M = lambda t: 0.5 + 0.5 * np.asarray(t, dtype=float)
        phi0 = 0.8
        phi = lambda t: phi0 + 0.0 * np.asarray(t, dtype=float)
        mass = 0.75
        psi = lambda x: phi0 * (1.0 - mass) + 0.0 * np.asarray(x)
        sys_ = assemble(PARAMS, COEFFS, DOMAIN, M, phi, psi)
        g0 = sys_.rhs[0] * sys_.A
        a_true = 1.0 - 2.0 * mass + sys_.diagnostics["a_display"]
        assert g0 == pytest.approx(phi0 * a_true, rel=1e-9)

    def test_psi_enters_additively(self):
        psi1 = lambda x: np.sin(np.asarray(x, dtype=float))
        phi = lambda t: 0.0 * np.asarray(t, dtype=float)
        base = assemble(PARAMS, COEFFS, DOMAIN, ones, phi, zeros, n=32)
        with_psi = assemble(PARAMS, COEFFS, DOMAIN, ones, phi, psi1, n=32)
        got = (with_psi.rhs - base.rhs) * base.A
        assert np.abs(got - np.sin(base.x_grid)).max() <= 1e-14


def _g_values_by_row(engine, rules, M, phi, psi, forcing, domain, n,
                     x_arr):
    """``_g_values`` one eta-mesh row at a time: each row t_k = k h of the
    phi and forcing convolutions from its own ``_row_weights``, times its
    weight of ``_eta_weights`` and M(t_k), the row t = 0 by its limit
    weight, and the phi(0) term by ``fbar``."""
    co, m_cap = engine.coeffs, engine.m_cap
    phi0 = float(phi(0.0))
    out = _call_on(psi, x_arr).copy()
    flat = rules.flat
    c_phi = float((flat.weights * rules.m_flat)
                  @ (_call_on(phi, flat.nodes) - phi0))
    out += np.exp(co.b * x_arr) * c_phi
    out -= co.a * phi0 * (fbar(engine, "V1", rules.beta.nodes, x_arr)
                          @ rules.mw)
    conv = _EtaConv(engine, domain.q, n)
    m_eta = _call_on(M, conv.etas)

    def row_sum(samples, eps1):  # sum_k a_k R_k, samples (cells + 1, ncols)
        a = _eta_weights(conv, eps1) * m_eta
        acc = np.zeros((samples.shape[1], m_cap))
        acc[:, 0] = a[0] * samples[0]
        for k in range(1, conv.cells + 1):
            acc += a[k] * (samples.T @ _row_weights(conv, k * conv.h, eps1))
        return acc

    cacc = row_sum(_call_on(phi, conv.etas)[:, None], 0.0)[0]
    out += co.a * co.b * x_arr * (
        engine.ypowers(x_arr) @ (engine.jw["V3"].T @ cacc))
    if forcing is not None:
        facc = row_sum(forcing._sample(conv.etas), forcing.eps1)
        out += forcing.q @ facc.ravel()
    return out


class TestGValues:
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("n_points", [32, 160])
    def test_batched_integrals_match_row_loops(self, forced, n_points):
        prob = _smooth_problem(forcing=forced)
        engine = TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        x = np.linspace(0.0, 1.0, 33)
        forcing = (ForcingTerm(engine, prob.f_smooth, 0.0, 0.0, x)
                   if forced else None)
        rules = _t_rules(engine, prob.M, prob.domain, n_points)
        args = (engine, rules, prob.M, prob.phi, prob.psi, forcing,
                prob.domain, n_points, x)
        want = _g_values_by_row(*args)
        got = _g_values(*args)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("forced, eps", [(False, (0.0, 0.0)),
                                             (True, (0.0, 0.0)),
                                             (True, (0.25, 0.5))])
    def test_converges_at_second_order(self, forced, eps):
        # g of the acceptance problem with psi = 0 against its value at
        # 1024 points: the eta-mesh rows summed with the t^p product rule,
        # the row t = 0 taken as the limit of R / t^p
        prob = _smooth_problem(forcing=forced)
        engine = TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        x = np.linspace(0.0, 1.0, 33)
        forcing = (ForcingTerm(engine, prob.f_smooth, *eps, x)
                   if forced else None)

        def g(n_points):
            rules = _t_rules(engine, prob.M, prob.domain, n_points)
            return _g_values(engine, rules, prob.M, prob.phi, zeros, forcing,
                             prob.domain, n_points, x)

        ref = g(1024)
        errors = [np.abs(g(n) - ref).max() for n in (16, 32, 64)]
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(orders >= 1.8), orders


    @pytest.mark.parametrize("cells", [16, 40])
    def test_phi_sum_matches_adjoint(self, cells):
        # the correlation form of the V3 sum against phi_eta @ W with its
        # t = 0 term, W the adjoint of the eta-mesh rows
        eng = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        conv = _EtaConv(eng, 1.0, cells)
        rng = np.random.default_rng(cells)
        a, phi_eta = rng.standard_normal((2, cells + 1))
        w = conv.adjoint(a)
        w[0, 0] += a[0]
        want = phi_eta @ w
        got = _phi_sum(conv, a, phi_eta)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestShiftedPass:
    def test_fused_forms_match_per_node_forms(self):
        # E2, V1 and V2 read one coefficient vector per level; the forms
        # of ``gamma_e2`` and ``fbar`` sum the same terms per t-node
        prob = _smooth_problem(forcing=False)
        engine = TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        rules = _t_rules(engine, prob.M, prob.domain, 64)
        nodes, x = rules.beta.nodes, np.linspace(0.0, 1.0, 65)
        want = engine.coeffs.a * float(rules.mw @ gamma_e2(engine, nodes))
        assert _a_integrals(engine, rules)[1] == pytest.approx(want,
                                                               rel=1e-14)
        for variant in ("V1", "V2"):
            want = fbar(engine, variant, nodes, x) @ rules.mw
            got = _m1_at(engine, rules, x, variant)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_one_shifted_cvec_per_level(self, monkeypatch):
        calls = []
        cvec = TeleEngine.cvec

        def counted(self, s, shifted):
            calls.append(shifted)
            return cvec(self, s, shifted)

        monkeypatch.setattr(TeleEngine, "cvec", counted)
        prob = _smooth_problem(forcing=True)
        TABLES.clear()  # count a cold assembly
        assemble(prob.params, prob.coeffs, prob.domain, prob.M, prob.phi,
                 prob.psi, prob.f_smooth, n=32)
        # the fine and the coarse level
        assert calls.count(True) == 2


class TestAssemble:
    def test_constant_data_trace(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sys_ = assemble(PARAMS, COEFFS, DOMAIN, ones, ones, zeros,
                            n=1024)
        sol = solve_tau(sys_)
        assert np.abs(sol.tau - 1.0).max() <= 1e-6

    def test_rhs_matches_boundary_at_origin(self):
        phi = lambda t: 0.6 + 0.2 * np.sin(np.asarray(t, dtype=float))
        # psi(0) chosen so the compatibility condition holds exactly
        M = lambda t: 0.5 + 0.5 * np.asarray(t, dtype=float)
        flatrule_mass = adaptive_quad(
            lambda t: (0.5 + 0.5 * float(t)) * (0.6 + 0.2 * math.sin(float(t))),
            0.0, 1.0, weight_exponent=0.0, tol=1e-13, dps=30)
        psi0 = 0.6 - float(flatrule_mass)
        psi = lambda x: psi0 + 0.1 * np.asarray(x, dtype=float)
        sys_ = assemble(PARAMS, COEFFS, DOMAIN, M, phi, psi, n=128)
        assert sys_.rhs[0] == pytest.approx(0.6, abs=1e-6)

    def test_diagnostics_report_refinement(self):
        sys_ = assemble(PARAMS, COEFFS, DOMAIN, ones, ones, zeros,
                        n=64)
        d = sys_.diagnostics
        assert d["a_refinement_delta"] < 1e-4
        assert d["m1_refinement_delta"] < 1e-4
        assert d["g_refinement_delta"] < 1e-3
        assert d["a_true"] == pytest.approx(
            1.0 - 2.0 * d["m_mass"] + d["a_display"])

    def test_out_of_regime_warns(self):
        relaxed = PrabhakarParams(alpha=1.0, beta=0.5, gamma=0.5, delta=0.5)
        with pytest.warns(RuntimeWarning):
            assemble(relaxed, COEFFS, DOMAIN, ones, ones, zeros,
                     n=32)

    def test_strict_note_points_at_the_caller(self):
        # called directly and through solve, the warning names this file
        relaxed = PrabhakarParams(alpha=1.0, beta=0.5, gamma=0.5, delta=0.5)
        engine = TeleEngine(relaxed, COEFFS, 1.0, 1.0)
        with pytest.warns(RuntimeWarning) as direct:
            assemble_system(engine, DOMAIN, ones, ones, zeros, None,
                            np.linspace(0.0, 1.0, 9))
        with pytest.warns(RuntimeWarning) as via_solve:
            solve(_smooth_problem(params=relaxed), n_t=8, n_x=8,
                  quad=QuadPolicy(n_points=32), strict=False)
        for record in (direct, via_solve):
            notes = [w for w in record if "uniqueness" in str(w.message)]
            assert len(notes) == 1 and notes[0].filename == __file__

    def test_grid_and_forcing_must_fit(self):
        engine = TeleEngine(PARAMS, COEFFS, 1.0, 1.0)
        x = np.linspace(0.0, 1.0, 17)
        for bad in (x ** 2, x[1:], x[:1]):
            with pytest.raises(InvalidData):
                assemble_system(engine, DOMAIN, ones, ones, zeros, None, bad)
        f = lambda t, x: t * x
        for other in (ForcingTerm(engine, f, 0.0, 0.0, x[::2]),
                      ForcingTerm(TeleEngine(PARAMS, COEFFS, 1.0, 1.0), f,
                                  0.0, 0.0, x)):
            with pytest.raises(InvalidData):
                assemble_system(engine, DOMAIN, ones, ones, zeros, other, x)

    def test_strict_regime_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assemble(PARAMS, COEFFS, DOMAIN, ones, ones, zeros,
                     n=32)
