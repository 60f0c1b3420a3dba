"""Unit tests for the Prabhakar integral and Caputo-Prabhakar derivative."""

import math

import numpy as np
import pytest

from prabtel.errors import DomainError, InvalidParams, QuadratureFailure
from prabtel.expr import ExprFunction
from prabtel.fracops import (
    PrabhakarParams,
    QuadPolicy,
    _fractional_rows,
    _integral_fixed_n,
    _slope_weights,
    caputo_prabhakar_deriv,
    kernel_cell_moments,
    prabhakar_integral,
)
from prabtel.quadrature import graded_mesh
from prabtel.specfun import SeriesPolicy, ml_prabhakar


ONES = ExprFunction("1")


class TestParams:
    def test_m_is_one_for_unit_interval_beta(self):
        assert PrabhakarParams(1.0, 0.5, 0.5, -1.0).m == 1

    def test_alpha_positive_required(self):
        with pytest.raises(InvalidParams):
            PrabhakarParams(0.0, 0.5, 0.5, -1.0)

    def test_quad_policy_validation(self):
        with pytest.raises(InvalidParams):
            QuadPolicy(n_points=2)
        with pytest.raises(InvalidParams):
            QuadPolicy(tol=0.0)


class TestPrabhakarIntegral:
    @pytest.mark.parametrize("alpha,beta,gamma,delta,t", [
        (1.0, 0.5, 0.5, -1.0, 0.5),
        (0.7, 0.3, 1.2, -2.0, 1.3),
        (1.5, 0.9, -0.8, 0.6, 0.8),
        (2.0, 1.4, 0.3, -0.5, 1.0),
    ])
    def test_unit_data_identity(self, alpha, beta, gamma, delta, t):
        p = PrabhakarParams(alpha, beta, gamma, delta)
        got = prabhakar_integral(p, ONES, t)
        want = t ** beta * ml_prabhakar(alpha, beta + 1.0, gamma, delta * t ** alpha)
        assert got == pytest.approx(want, rel=1e-10)

    def test_gamma_zero_riemann_liouville(self):
        p = PrabhakarParams(1.0, 0.5, 0.0, -1.0)
        got = prabhakar_integral(p, ONES, 0.7)
        assert got == pytest.approx(0.7 ** 0.5 / math.gamma(1.5), rel=1e-12)

    def test_delta_zero_riemann_liouville(self):
        p = PrabhakarParams(1.0, 0.5, 0.7, 0.0)
        got = prabhakar_integral(p, ONES, 0.7)
        assert got == pytest.approx(0.7 ** 0.5 / math.gamma(1.5), rel=1e-12)

    def test_quadratic_data_identity(self):
        # integral of xi^2 has the closed form 2 t^(beta+2) E^g_{a,beta+3}
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        got = prabhakar_integral(p, lambda s: s ** 2, 1.0)
        want = 2.0 * ml_prabhakar(1.0, 3.5, 0.5, -1.0)
        assert got == pytest.approx(want, rel=1e-9)

    def test_linearity(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        quad = QuadPolicy()
        lhs = prabhakar_integral(p, ExprFunction("2*sin(t) - 3*t^2"), 0.8, quad)
        rhs = (2.0 * prabhakar_integral(p, ExprFunction("sin(t)"), 0.8, quad)
               - 3.0 * prabhakar_integral(p, ExprFunction("t^2"), 0.8, quad))
        assert abs(lhs - rhs) <= 10.0 * quad.tol

    def test_doubling_reduces_error(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        want = 2.0 * ml_prabhakar(1.0, 3.5, 0.5, -1.0)
        errs = [abs(_integral_fixed_n(p, lambda s: s ** 2, 1.0, n,
                                      SeriesPolicy())[0] - want)
                for n in (32, 64, 128, 256)]
        for e0, e1 in zip(errs, errs[1:]):
            assert e0 / e1 >= 3.0

    def test_positive_t_required(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        with pytest.raises(DomainError):
            prabhakar_integral(p, ONES, 0.0)

    def test_data_error_surfaces_after_one_call(self):
        # only TypeError/ValueError mean "not vectorized"; any other error
        # of the array call is the data's own and must not be retried
        calls = []

        def y(s):
            calls.append(1)
            raise ZeroDivisionError("data fails")

        with pytest.raises(ZeroDivisionError):
            prabhakar_integral(PrabhakarParams(1.0, 0.5, 0.5, -1.0), y, 1.0)
        assert len(calls) == 1

    def test_nonintegrable_weight_rejected(self):
        p = PrabhakarParams(1.0, -0.2, 0.5, -1.0)
        with pytest.raises(DomainError):
            prabhakar_integral(p, ONES, 1.0)

    def test_unreachable_tol_fails(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        quad = QuadPolicy(n_points=4, tol=1e-16)
        with pytest.raises(QuadratureFailure):
            prabhakar_integral(p, lambda s: np.sin(50.0 * np.asarray(s)), 1.0, quad)


class TestKernelMoments:
    def test_moments_sum_to_unit_data_integral(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        mesh = graded_mesh(0.8, 64, r=2.0)
        m0, _ = kernel_cell_moments(p, mesh.nodes)
        want = 0.8 ** 0.5 * ml_prabhakar(1.0, 1.5, 0.5, -1.0 * 0.8)
        assert float(np.sum(m0)) == pytest.approx(want, rel=1e-11)


class TestCaputoPrabhakarDeriv:
    def test_constant_is_exactly_zero_symbolic(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        assert caputo_prabhakar_deriv(p, ExprFunction("3.5"), 0.8) == 0.0

    def test_constant_is_zero_sampled(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        got = caputo_prabhakar_deriv(
            p, lambda s: 3.5 * np.ones_like(np.asarray(s)), 0.8)
        assert got == 0.0

    def test_identity_data_classical_caputo(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, 0.0)
        t = 0.8
        got = caputo_prabhakar_deriv(p, ExprFunction("t"), t)
        assert got == pytest.approx(t ** 0.5 / math.gamma(1.5), rel=1e-10)

    def test_identity_data_general(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        t = 0.8
        got = caputo_prabhakar_deriv(p, ExprFunction("t"), t)
        want = t ** (1.0 - 0.5) * ml_prabhakar(1.0, 1.5, -0.5, -1.0 * t)
        assert got == pytest.approx(want, rel=1e-10)

    def test_quadratic_data_closed_form(self):
        # D(t^2) = 2 t^(2-beta) E^(-gamma)_{alpha,3-beta}(delta t^alpha),
        # at the beta < 1 parameter sets of test_unit_data_identity
        for alpha, beta, gamma, delta, t in ((1.0, 0.5, 0.5, -1.0, 0.5),
                                             (0.7, 0.3, 1.2, -2.0, 1.3),
                                             (1.5, 0.9, -0.8, 0.6, 0.8)):
            p = PrabhakarParams(alpha, beta, gamma, delta)
            got = caputo_prabhakar_deriv(p, lambda s: s ** 2, t)
            want = 2.0 * t ** (2.0 - beta) * ml_prabhakar(
                alpha, 3.0 - beta, -gamma, delta * t ** alpha)
            assert abs(got - want) <= 2e-8

    def test_callable_matches_expression_twin(self):
        p = PrabhakarParams(1.0, 0.5, 0.5, -1.0)
        got = caputo_prabhakar_deriv(p, lambda s: np.sin(np.asarray(s)), 0.9)
        want = caputo_prabhakar_deriv(p, ExprFunction("sin(t)"), 0.9)
        assert got == want

    def test_beta_range_enforced(self):
        with pytest.raises(InvalidParams):
            caputo_prabhakar_deriv(PrabhakarParams(1.0, 1.5, 0.5, -1.0),
                                   ExprFunction("t"), 0.5)


def _fractional_rows_by_row(params, t_grid, u, series):
    """Uniform-grid derivative rows one at a time: row k dots the first k
    slope weights, reversed, with the first k cell slopes."""
    slopes = (u[1:, :] - u[:-1, :]) / np.diff(t_grid)[:, None]
    w_all = _slope_weights(params, t_grid - t_grid[0], series)
    out = np.zeros_like(u)
    for k in range(1, t_grid.size):
        out[k, :] = w_all[:k][::-1] @ slopes[:k, :]
    return out


class TestFractionalRows:
    @pytest.mark.parametrize("n_t", [1, 2, 3, 64])
    def test_uniform_toeplitz_matches_row_loop(self, n_t):
        p = PrabhakarParams(1.0, 0.5, 0.5, -0.5)
        t = np.linspace(0.0, 1.3, n_t + 1)
        x = np.linspace(0.0, 1.0, 9)
        rng = np.random.default_rng(7)
        u = (np.sqrt(t)[:, None] * np.cos(3.0 * x) + np.exp(-t)[:, None]
             + 1e-3 * rng.standard_normal((t.size, x.size)))
        series = SeriesPolicy()
        want = _fractional_rows_by_row(p, t, u, series)
        got = _fractional_rows(p, t, u, series)
        assert got.shape == want.shape
        assert not got[0].any()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
