"""Unit tests for graded-mesh product integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import prabtel.quadrature as quadrature
from prabtel.errors import DomainError, InvalidParams
from prabtel.quadrature import (
    GradedMesh,
    _is_lattice,
    _lattice_rows,
    _toeplitz_matrix,
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


def _rows_by_loop(samples, table, lengths, edge):
    """``_lattice_rows`` one row and one sample at a time, from its
    definition."""
    n = len(table)
    out = np.zeros((len(lengths), *samples.shape[1:], *table.shape[1:]))
    for row, size in zip(out, lengths):
        for e in range(size):
            row += np.multiply.outer(samples[e], table[n - size + e])
        if edge is not None and size > 0:
            row += np.multiply.outer(edge[0], edge[1][n - size])
    return out


class TestLatticeRows:
    @pytest.mark.parametrize("columns", [(), (3,)])
    @pytest.mark.parametrize("with_edge", [False, True])
    @pytest.mark.parametrize("chunk", [1, 2, 5, 16384])
    def test_matches_row_loop(self, columns, with_edge, chunk, monkeypatch):
        # every length 0..n in a shuffled order, some twice; the Hankel
        # blocks of one column hold chunk rows (one when chunk < n), and
        # the table has two trailing axes
        rng = np.random.default_rng(len(columns) + 2 * with_edge + chunk)
        n = 9
        table = rng.standard_normal((n, 2, 3))
        samples = rng.standard_normal((n + 2, *columns))
        edge = ((rng.standard_normal(columns), rng.standard_normal((n, 2, 3)))
                if with_edge else None)
        lengths = rng.permutation(np.concatenate((np.arange(n + 1),
                                                  [0, n, 4])))
        monkeypatch.setattr(quadrature, "_CONV_CHUNK", chunk * n)
        got = _lattice_rows(samples, table, lengths, edge)
        want = _rows_by_loop(samples, table, lengths, edge)
        assert got.shape == (lengths.size, *columns, 2, 3)
        assert not got[lengths == 0].any()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_empty_table_gives_zero_rows(self):
        for samples in (np.ones(3), np.ones((3, 2))):
            got = _lattice_rows(samples, np.zeros((0, 4)), np.zeros(2, int))
            assert got.shape == (2, *samples.shape[1:], 4) and not got.any()


class TestToeplitzMatrix:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matches_definition(self, n):
        values = np.random.default_rng(n).standard_normal(n)
        want = np.array([[values[i - j] if i >= j else 0.0
                          for j in range(n)] for i in range(n)])
        got = _toeplitz_matrix(values)
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous and got.flags.writeable
