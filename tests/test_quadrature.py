"""Unit tests for graded-mesh product integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from prabtel.errors import DomainError, InvalidParams
from prabtel.quadrature import (
    GradedMesh,
    _is_lattice,
    _trapezoid_vec,
    build_rule,
    graded_mesh,
    power_moment,
)


class TestPowerMoment:
    def test_unit(self):
        assert power_moment(0.0, 0.0, 1.0, 0) == 1.0

    def test_inverse_sqrt(self):
        assert power_moment(-0.5, 0.0, 1.0, 0) == pytest.approx(2.0, rel=1e-14)

    def test_inverse_sqrt_first_order(self):
        assert power_moment(-0.5, 0.0, 1.0, 1) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_generic_interval(self):
        mu, a, b = -0.3, 0.2, 0.9
        want, _ = quad(lambda s: s ** mu, a, b)
        assert power_moment(mu, a, b, 0) == pytest.approx(want, rel=1e-10)

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            power_moment(-1.0, 0.0, 1.0, 0)
        with pytest.raises(DomainError):
            power_moment(-1.5, 0.0, 1.0, 0)

    def test_interval_domain(self):
        with pytest.raises(DomainError):
            power_moment(0.0, 1.0, 0.5, 0)


class TestGradedMesh:
    def test_power_law_nodes(self):
        mesh = graded_mesh(2.0, 4, r=2.0)
        want = 2.0 * (np.arange(5) / 4.0) ** 2
        np.testing.assert_allclose(mesh.nodes, want, rtol=0, atol=1e-15)
        assert mesh.length == 2.0
        assert mesh.n_cells == 4

    def test_uniform_when_r_is_one(self):
        mesh = graded_mesh(1.0, 5, r=1.0)
        np.testing.assert_allclose(mesh.nodes, np.linspace(0, 1, 6), atol=1e-15)

    def test_grading_below_one_rejected(self):
        with pytest.raises(InvalidParams):
            graded_mesh(1.0, 4, r=0.5)

    def test_bad_nodes_rejected(self):
        with pytest.raises(InvalidParams):
            GradedMesh(nodes=np.array([0.0, 0.5, 0.5, 1.0]), r=2.0)
        with pytest.raises(InvalidParams):
            GradedMesh(nodes=np.array([0.1, 0.5, 1.0]), r=2.0)


class TestBuildRule:
    def test_trapezoid_limit(self):
        rule = build_rule(0.0, graded_mesh(1.0, 2, r=1.0))
        np.testing.assert_allclose(rule.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_constant_exactness_singular_weight(self):
        # integral of s^(beta-1) over [0,1] with beta = 0.5 is 2
        rule = build_rule(-0.5, graded_mesh(1.0, 16, r=2.0))
        assert rule.apply(np.ones(17)) == pytest.approx(2.0, rel=1e-13)

    def test_linear_exactness_singular_weight(self):
        rule = build_rule(-0.5, graded_mesh(1.0, 16, r=2.0))
        assert rule.apply(rule.nodes) == pytest.approx(2.0 / 3.0, rel=1e-13)

    @given(mu=st.floats(-0.99, 0.0), r=st.floats(1.0, 3.0),
           n=st.integers(1, 40), L=st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_weights_nonnegative(self, mu, r, n, L):
        rule = build_rule(mu, graded_mesh(L, n, r=r))
        assert np.all(rule.weights >= 0.0)

    @given(mu=st.floats(-0.9, 1.5), r=st.floats(1.0, 2.5), n=st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_piecewise_linear_exactness(self, mu, r, n):
        # random continuous piecewise-linear data must be integrated exactly
        mesh = graded_mesh(1.0, n, r=r)
        rng = np.random.default_rng(n + int(10 * r))
        y = rng.standard_normal(n + 1)
        rule = build_rule(mu, mesh)
        want = 0.0
        s = mesh.nodes
        for j in range(n):
            h = s[j + 1] - s[j]
            slope = (y[j + 1] - y[j]) / h
            m0 = power_moment(mu, s[j], s[j + 1], 0)
            m1 = power_moment(mu, s[j], s[j + 1], 1)
            want += (y[j] - slope * s[j]) * m0 + slope * m1
        assert rule.apply(y) == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_second_order_convergence_smooth(self):
        # weight s^(-1/2) against cos(s) on [0,1]
        want, _ = quad(lambda s: s ** -0.5 * np.cos(s), 0.0, 1.0)
        errs = []
        for n in (16, 32, 64, 128):
            rule = build_rule(-0.5, graded_mesh(1.0, n, r=2.0))
            errs.append(abs(rule.integrate(np.cos) - want))
        for e0, e1 in zip(errs, errs[1:]):
            assert e0 / e1 > 3.3

    def test_value_count_checked(self):
        rule = build_rule(0.0, graded_mesh(1.0, 4, r=1.0))
        with pytest.raises(InvalidParams):
            rule.apply(np.ones(3))

    @pytest.mark.parametrize("mu", [-0.75, -0.5, 0.0, 0.5])
    @pytest.mark.parametrize("mesh", [graded_mesh(1.0, 200, r=2.0),
                                      graded_mesh(2.5, 64, r=1.0)],
                             ids=["graded", "uniform"])
    def test_matches_cell_loop(self, mu, mesh):
        # the weights are those of a per-cell loop over power_moment, bit
        # for bit
        s = mesh.nodes
        want = np.zeros(s.size)
        for j in range(mesh.n_cells):
            a, b = s[j], s[j + 1]
            m0 = power_moment(mu, a, b, 0)
            m1 = power_moment(mu, a, b, 1)
            want[j] += (b * m0 - m1) / (b - a)
            want[j + 1] += (m1 - a * m0) / (b - a)
        assert np.array_equal(build_rule(mu, mesh).weights, want)

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            build_rule(-1.0, graded_mesh(1.0, 4))

    @pytest.mark.parametrize("cells", [1024, 2048])
    def test_trapezoid_matches_unit_weight_rule_on_ladder_meshes(self, cells):
        mesh = graded_mesh(1.0, cells, r=1.0)
        assert np.array_equal(_trapezoid_vec(mesh.nodes),
                              build_rule(0.0, mesh).weights)


class TestIsLattice:
    @pytest.mark.parametrize("n", [1, 6, 129, 1000])
    @pytest.mark.parametrize("top", [1.0, 0.7, 3.3e-3, 41.0])
    def test_admits_linspace_and_its_decimal_text(self, n, top):
        grid = np.linspace(0.0, top, n + 1)
        assert _is_lattice(grid)
        for digits in (15, 17):
            assert _is_lattice([float(f"{v:.{digits}g}") for v in grid])

    @pytest.mark.parametrize("nodes", [
        np.round(np.linspace(0.0, 1.0, 7), 10),  # steps off by 3e-11
        np.linspace(0.0, 1.0, 7) ** 2,
        np.linspace(0.1, 1.0, 7),
        np.array([0.0, 2.0, 1.0, 3.0]),
        np.array([0.0, np.nan]),
        np.array([0.0, np.inf]),
        np.array([0.0]),
        np.zeros((2, 2))])
    def test_rejects_other_grids(self, nodes):
        assert not _is_lattice(nodes)
