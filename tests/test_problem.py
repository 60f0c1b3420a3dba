"""End-to-end driver tests: data validation, strict gates, solve, verify."""

import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import prabtel.fracops as fracops
import prabtel.goursat as goursat
import prabtel.problem as problem_mod
import prabtel.volterra as volterra
from prabtel.acceptance import cli_env
from prabtel.cache import TABLES, exact_key
from prabtel.cli import load_config
from prabtel.errors import (
    DomainError,
    InvalidData,
    InvalidParams,
    RegimeViolation,
)
from prabtel.fracops import (
    PrabhakarParams,
    QuadPolicy,
    _fractional_rows,
    caputo_prabhakar_deriv,
)
from prabtel.goursat import Domain2D, TelegraphCoeffs
from prabtel.oracle import adaptive_quad
from prabtel.problem import (
    GridSolution,
    ProblemN,
    ResidualReport,
    compatibility_check,
    solve,
    verify,
)
from prabtel.quadrature import _trapezoid_vec
from prabtel.specfun import SeriesPolicy
from prabtel.volterra import assemble_system, solve_tau

ROOT = Path(__file__).resolve().parents[1]

PARAMS = PrabhakarParams(alpha=1.0, beta=0.5, gamma=0.5, delta=-1.0)
COEFFS = TelegraphCoeffs(a=-1.0, b=-1.0)
DOMAIN = Domain2D(q=1.0, p=1.0)

QUICK = QuadPolicy(n_points=64)

# int_0^1 (0.5 + 0.5 t) (0.6 + 0.2 sin t) dt, for compatible smooth data
_SMOOTH_MASS = 0.5260866373071617


def constant(c):
    return lambda s: c + 0.0 * np.asarray(s, dtype=float)


def make_problem(params=PARAMS, coeffs=COEFFS, phi=None, psi=None, M=None,
                 **kw):
    return ProblemN(params, coeffs, DOMAIN,
                    phi=phi if phi is not None else constant(1.0),
                    psi=psi if psi is not None else constant(0.25),
                    M=M if M is not None else lambda t: 0.5 + 0.5 * np.asarray(t),
                    **kw)


def smooth_problem(params=PrabhakarParams(1.0, 0.5, 0.5, -0.5),
                   coeffs=TelegraphCoeffs(-0.25, -0.5), scale=1.0,
                   forcing=True):
    phi = lambda t: scale * (0.6 + 0.2 * np.sin(np.asarray(t, dtype=float)))
    psi = lambda x: scale * ((0.6 - _SMOOTH_MASS)
                             + 0.1 * np.asarray(x) * (1.0 - np.asarray(x)))
    f = (lambda t, x: scale * np.asarray(t) * np.asarray(x) / 10.0) if forcing else None
    return ProblemN(params, coeffs, DOMAIN, phi=phi, psi=psi,
                    M=lambda t: 0.5 + 0.5 * np.asarray(t), f_smooth=f)


class TestProblemValidation:
    def test_eps1_must_stay_below_beta(self):
        with pytest.raises(InvalidParams):
            make_problem(eps1=0.5)
        with pytest.raises(InvalidParams):
            make_problem(eps1=-0.1)

    def test_eps2_must_stay_below_one(self):
        with pytest.raises(InvalidParams):
            make_problem(eps2=1.0)

    def test_beta_restricted_to_unit_interval(self):
        with pytest.raises(InvalidParams):
            make_problem(params=PrabhakarParams(1.0, 1.0, 0.5, -1.0))

    def test_vanishing_weight_rejected(self):
        with pytest.raises(InvalidData):
            make_problem(M=constant(0.0))

    def test_non_finite_boundary_data_rejected(self):
        blow_up = lambda t: np.full_like(np.asarray(t, dtype=float), np.inf)
        with pytest.raises(InvalidData):
            make_problem(phi=blow_up)

    def test_strict_regime_flag(self):
        assert make_problem().strict_regime
        out = make_problem(params=PrabhakarParams(1.0, 0.5, 0.5, 0.5))
        assert not out.strict_regime

    def test_forcing_row_combines_singular_factors(self):
        prob = make_problem(f_smooth=lambda t, x: np.ones_like(np.asarray(x)),
                            eps1=0.25, eps2=0.5)
        x = np.array([0.25, 1.0])
        got = prob.forcing_grid(np.array([0.5]), x)[0]
        assert got == pytest.approx(0.5 ** -0.25 * x ** -0.5)


class TestCompatibility:
    def test_constant_data_is_compatible(self):
        assert compatibility_check(make_problem(), QUICK) <= 1e-12

    def test_unit_defect_detected(self):
        prob = make_problem(phi=constant(0.0), psi=constant(1.0))
        assert compatibility_check(prob, QUICK) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_quadrature_on_smooth_data(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            c = rng.uniform(-1.0, 1.0, size=4)
            phi = lambda t, c=c: c[0] + c[1] * np.asarray(t) + 0.3 * np.sin(np.asarray(t))
            M = lambda t, c=c: c[2] + 0.2 * np.cos(c[3] * np.asarray(t))
            prob = make_problem(phi=phi, psi=constant(0.0), M=M)
            ref = adaptive_quad(
                lambda t: float(M(float(t))) * float(phi(float(t))),
                0.0, 1.0, weight_exponent=0.0, tol=1e-11, dps=30)
            want = abs(float(phi(0.0)) - float(ref))
            assert compatibility_check(prob, QUICK) == pytest.approx(want, abs=1e-8)


class TestSolve:
    def test_grid_size_validated(self):
        with pytest.raises(InvalidParams):
            solve(make_problem(), n_t=1, n_x=8, quad=QUICK)

    @pytest.mark.parametrize("params,coeffs", [
        (PARAMS, TelegraphCoeffs(1.0, -1.0)),
        (PARAMS, TelegraphCoeffs(-1.0, 0.0)),
        (PrabhakarParams(1.0, 0.5, 0.5, 0.0), COEFFS),
        (PrabhakarParams(2.0, 0.5, 0.5, -1.0), COEFFS),
        (PrabhakarParams(1.0, 0.5, 0.7, -1.0), COEFFS),
    ])
    def test_strict_mode_rejects_out_of_regime(self, params, coeffs):
        with pytest.raises(RegimeViolation):
            solve(make_problem(params=params, coeffs=coeffs),
                  n_t=4, n_x=4, quad=QuadPolicy(n_points=16))

    def test_relaxed_mode_warns_and_completes(self):
        prob = make_problem(params=PrabhakarParams(1.0, 0.5, 0.5, 0.0))
        with pytest.warns(RuntimeWarning):
            sol = solve(prob, n_t=8, n_x=8, quad=QuadPolicy(n_points=32),
                        strict=False)
        assert np.abs(sol.u - 1.0).max() <= 5e-3

    def test_zero_data_gives_zero_solution(self):
        prob = make_problem(phi=constant(0.0), psi=constant(0.0),
                            M=constant(1.0))
        sol = solve(prob, n_t=8, n_x=8, quad=QuadPolicy(n_points=32))
        assert np.abs(sol.u).max() <= 1e-10

    def test_constant_data_gives_constant_solution(self):
        sol = solve(make_problem(), n_t=16, n_x=16, quad=QUICK)
        assert np.abs(sol.u - 1.0).max() <= 1e-3

    def test_trace_is_initial_row_exactly(self):
        sol = solve(make_problem(), n_t=8, n_x=8, quad=QuadPolicy(n_points=32))
        assert np.array_equal(sol.tau.tau, sol.u[0, :])
        assert np.array_equal(sol.tau.x_grid, sol.x_grid)

    def test_records_constants_and_compatibility(self):
        sol = solve(make_problem(), n_t=8, n_x=8, quad=QuadPolicy(n_points=32))
        d = sol.diagnostics
        assert sol.A == pytest.approx(d["m_mass"] - d["e2_moment"], rel=1e-12)
        assert d["a_true"] == pytest.approx(1.0 - d["m_mass"] - d["e2_moment"],
                                            rel=1e-12)
        assert sol.compatibility <= 1e-12
        assert d["strict_regime"]

    def test_incompatible_data_strict_raises_relaxed_warns(self):
        prob = make_problem(psi=constant(0.35))
        with pytest.raises(RegimeViolation):
            solve(prob, n_t=8, n_x=8, quad=QuadPolicy(n_points=32))
        with pytest.warns(RuntimeWarning):
            sol = solve(prob, n_t=8, n_x=8, quad=QuadPolicy(n_points=32),
                        strict=False)
        assert sol.u.shape == (9, 9)

    def test_pipeline_is_linear_in_the_data(self):
        s = 3.7
        base = solve(smooth_problem(), n_t=10, n_x=10, quad=QUICK)
        scaled = solve(smooth_problem(scale=s), n_t=10, n_x=10, quad=QUICK)
        assert np.abs(scaled.u - s * base.u).max() <= 1e-10 * s

    @pytest.mark.parametrize("name, rank", [("tx", 1), ("noise", 65)])
    def test_forcing_rank_in_diagnostics(self, name, rank):
        # the grid fill convolves the cross-approximated columns of f, or
        # all n_x + 1 when the factorization gives up; seeded noise, one
        # table entry per sample of the fill's 256 x 64 mesh, is full rank
        table = np.random.default_rng(5).standard_normal((257, 65))
        f = {"tx": lambda t, x: np.asarray(t) * np.asarray(x) / 10.0,
             "noise": lambda t, x: table[
                 np.rint(256.0 * np.asarray(t)).astype(int) % 257,
                 np.rint(64.0 * np.asarray(x)).astype(int) % 65] / 10.0}[name]
        prob = replace(smooth_problem(), f_smooth=f)
        sol = solve(prob, n_t=64, n_x=64, quad=QuadPolicy(n_points=256))
        assert sol.diagnostics["forcing_rank"] == rank
        unforced = solve(smooth_problem(forcing=False), n_t=8, n_x=8,
                         quad=QuadPolicy(n_points=32))
        assert "forcing_rank" not in unforced.diagnostics

    def test_non_finite_forcing_sample_raises(self):
        # one NaN on the grid fill's mesh (t = x = 0.5 are nodes of it)
        # reaches the grid: the factorization gives up on it
        f = lambda t, x: np.where((np.asarray(t) == 0.5)
                                  & (np.asarray(x) == 0.5), np.nan,
                                  np.asarray(t) * np.asarray(x) / 10.0)
        prob = replace(smooth_problem(), f_smooth=f)
        with pytest.raises(InvalidData):
            solve(prob, n_t=16, n_x=16, quad=QuadPolicy(n_points=64))
        engine = goursat.TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        forcing = goursat.ForcingTerm(engine, f, 0.0, 0.0,
                                      np.linspace(0.0, 1.0, 17))
        got = forcing.fill(goursat._EtaConv(engine, 1.0, 64),
                           np.linspace(0.0, 1.0, 17))
        assert np.isnan(got).any() and forcing.rank == 17

    def test_all_zero_forcing_gives_the_unforced_grid(self):
        prob = replace(smooth_problem(),
                       f_smooth=lambda t, x: 0.0 * np.asarray(t) * np.asarray(x))
        quad = QuadPolicy(n_points=64)
        sol = solve(prob, n_t=16, n_x=16, quad=quad)
        want = solve(smooth_problem(forcing=False), n_t=16, n_x=16, quad=quad)
        assert sol.diagnostics["forcing_rank"] == 0
        assert np.array_equal(sol.u, want.u)

    def test_nonlinear_forcing_self_convergence(self):
        # the forcing is sampled on the solution x-grid; refinement must
        # still shrink the self-difference on the shared nodes
        prob = replace(smooth_problem(), f_smooth=lambda t, x: (
            np.cos(3.0 * x) * (1.0 + t) + np.sqrt(x + 0.01)) / 5.0)
        u = {n: solve(prob, n_t=n, n_x=n, quad=QuadPolicy(n_points=4 * n)).u
             for n in (32, 64, 128)}
        d_coarse = np.abs(u[64][::2, ::2] - u[32]).max()
        d_fine = np.abs(u[128][::2, ::2] - u[64]).max()
        assert d_coarse >= 3.0 * d_fine


class TestGridSolutionValidation:
    def _sol(self):
        return solve(make_problem(), n_t=4, n_x=4, quad=QuadPolicy(n_points=16))

    def test_shape_mismatch_rejected(self):
        sol = self._sol()
        with pytest.raises(InvalidData):
            GridSolution(t_grid=sol.t_grid, x_grid=sol.x_grid,
                         u=sol.u[:, :-1], tau=sol.tau, A=sol.A,
                         compatibility=0.0)

    def test_grid_must_ascend_from_zero(self):
        # and be uniform: verify's time derivative is one Toeplitz product
        sol = self._sol()
        for t in (sol.t_grid + 1.0, sol.t_grid ** 2):
            with pytest.raises(InvalidData):
                GridSolution(t_grid=t, x_grid=sol.x_grid, u=sol.u,
                             tau=sol.tau, A=sol.A, compatibility=0.0)


class TestVerify:
    def test_reports_the_solved_compatibility(self, monkeypatch):
        import prabtel.problem as problem
        calls = []
        check = problem.compatibility_check

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(problem, "compatibility_check", counted)
        prob = smooth_problem()
        TABLES.clear()  # count a cold solve
        sol = solve(prob, n_t=16, n_x=16, quad=QUICK)
        report = verify(prob, sol, quad=QUICK)
        assert len(calls) == 1
        assert report.compatibility == sol.compatibility

    def test_needs_interior_nodes(self):
        sol = solve(make_problem(), n_t=4, n_x=4, quad=QuadPolicy(n_points=16))
        small = GridSolution(t_grid=sol.t_grid[:2], x_grid=sol.x_grid,
                             u=sol.u[:2, :], tau=sol.tau, A=sol.A,
                             compatibility=0.0)
        with pytest.raises(InvalidData):
            verify(make_problem(), small)

    def test_zero_data_residuals_vanish(self):
        prob = make_problem(phi=constant(0.0), psi=constant(0.0),
                            M=constant(1.0))
        sol = solve(prob, n_t=8, n_x=8, quad=QuadPolicy(n_points=32))
        r = verify(prob, sol, QUICK)
        assert max(r.boundary, r.nonlocal_defect, r.pde, r.compatibility) <= 1e-10

    def test_constant_data_residuals_small(self):
        prob = make_problem()
        r = verify(prob, solve(prob, n_t=16, n_x=16, quad=QUICK), QUICK)
        assert r.boundary <= 1e-3
        assert r.nonlocal_defect <= 1e-3
        assert r.pde <= 5e-2
        assert r.passes()

    def test_report_attached_to_solution(self):
        prob = make_problem()
        sol = solve(prob, n_t=8, n_x=8, quad=QuadPolicy(n_points=32))
        assert sol.residuals is None
        r = verify(prob, sol, QUICK)
        assert sol.residuals is r

    def test_smooth_forcing_problem_passes_thresholds(self):
        prob = smooth_problem()
        sol = solve(prob, n_t=16, n_x=16, quad=QUICK)
        r = verify(prob, sol, QUICK)
        assert r.passes()
        assert r.compatibility <= 1e-6

    def test_corrupted_solution_is_detected(self):
        prob = make_problem(M=lambda t: 0.5 * np.asarray(t, dtype=float),
                            psi=constant(0.75))
        sol = solve(prob, n_t=12, n_x=12, quad=QUICK)
        sol.u = sol.u + 0.1 * sol.x_grid[None, :]
        r = verify(prob, sol, QUICK)
        assert r.nonlocal_defect >= 0.05

    def test_grid_rows_match_pointwise_derivative(self):
        # u = t g(x) is linear in t, so the slope rule is exact on the
        # t-grid and each row is D(t)(t_k) g(x)
        t = np.linspace(0.0, 1.0, 7)
        g = 1.0 + np.linspace(0.0, 1.0, 5) ** 2
        rows = _fractional_rows(PARAMS, t, t[:, None] * g[None, :],
                                SeriesPolicy())
        assert np.all(rows[0] == 0.0)
        for k in range(1, t.size):
            want = caputo_prabhakar_deriv(PARAMS, lambda s: s, t[k]) * g
            np.testing.assert_allclose(rows[k], want, rtol=0.0, atol=1e-12)

    def test_residuals_decrease_under_refinement(self):
        # near-classical orders keep the equation defect grid-dominated
        # rather than pinned at the first-layer reconstruction floor
        prob = smooth_problem(params=PrabhakarParams(1.0, 0.9, 0.9, -0.5),
                              coeffs=TelegraphCoeffs(-0.5, -0.5),
                              forcing=False)
        coarse = verify(prob, solve(prob, n_t=12, n_x=12,
                                    quad=QuadPolicy(n_points=48)))
        fine = verify(prob, solve(prob, n_t=24, n_x=24,
                                  quad=QuadPolicy(n_points=96)))
        assert fine.nonlocal_defect <= 0.5 * coarse.nonlocal_defect
        assert fine.boundary <= coarse.boundary
        assert fine.pde <= coarse.pde + 1e-4


def _fractional_rows_by_view(params, t_grid, u, series):
    """``_fractional_rows`` by its earlier formula: the slope weights
    rebuilt on every call, multiplied as a reversed
    ``sliding_window_view``."""
    n = t_grid.size - 1
    w_all = fracops._slope_weights(params, t_grid, series)
    padded = np.concatenate((w_all[::-1], np.zeros(n - 1)))
    out = np.zeros_like(u)
    out[1:] = sliding_window_view(padded, n)[::-1] @ (
        (u[1:] - u[:-1]) / np.diff(t_grid)[:, None])
    return out


class TestVerifyRows:
    @pytest.mark.parametrize("case", [
        (False, 32), (False, 64), (False, 128), (True, 32), (True, 64),
        "run_config", "singular_config"])
    def test_reports_equal_the_view_formula(self, case, monkeypatch):
        # the ladder rungs (n, 4 n) and both demo configs; an unforced
        # verify no longer subtracts a zero grid, which changed no bit
        if isinstance(case, str):
            cfg = load_config(str(ROOT / "demos" / f"{case}.json"))
            prob, n_t, n_x = cfg["problem"], cfg["n_t"], cfg["n_x"]
            quad, series = cfg["quad"], cfg["series"]
        else:
            prob = smooth_problem(forcing=case[0])
            n_t = n_x = case[1]
            quad, series = QuadPolicy(n_points=4 * n_t), SeriesPolicy()
        sol = solve(prob, n_t=n_t, n_x=n_x, quad=quad, series=series)
        got = verify(prob, sol, quad, series).as_dict()
        monkeypatch.setattr(problem_mod, "_fractional_rows",
                            _fractional_rows_by_view)
        assert verify(prob, sol, quad, series).as_dict() == got


class TestNonlocalSum:
    def test_strided_u_gives_the_same_report(self):
        # the t-sum adds the weighted rows in their order: a u laid out in
        # columns gives the contiguous report bit for bit, and the
        # nonlocal defect is the row-by-row sum's (65 rows, enough for a
        # pairwise sum to take another order)
        prob = smooth_problem()
        sol = solve(prob, n_t=64, n_x=16, quad=QUICK)
        want = verify(prob, sol, QUICK).as_dict()
        w_t = _trapezoid_vec(sol.t_grid) * prob.M(sol.t_grid)
        integral = w_t[0] * sol.u[0]
        for w, row in zip(w_t[1:], sol.u[1:]):
            integral += w * row
        defect = sol.u[0] - integral - prob.psi(sol.x_grid)
        assert want["nonlocal"] == np.abs(defect).max()
        sol.u = np.asfortranarray(sol.u)
        assert verify(prob, sol, QUICK).as_dict() == want


class TestResidualReport:
    def test_passes_thresholds(self):
        good = ResidualReport(1e-5, 1e-5, 1e-3, 0.0)
        assert good.passes()
        assert not ResidualReport(2e-3, 1e-5, 1e-3, 0.0).passes()
        assert not ResidualReport(1e-5, 2e-3, 1e-3, 0.0).passes()
        assert not ResidualReport(1e-5, 1e-5, 0.1, 0.0).passes()

    def test_as_dict_keys(self):
        d = ResidualReport(1.0, 2.0, 3.0, 4.0).as_dict()
        assert d == {"boundary": 1.0, "nonlocal": 2.0, "pde": 3.0,
                     "compatibility": 4.0}


class TestVerifyForcing:
    def test_one_call_of_f_and_the_per_row_report(self):
        # the grid call and the per-row fallback give the same report,
        # bit for bit
        calls = []

        def f(t, x):
            calls.append(1)
            return t * x / 10.0 + x * x - 0.5 * t

        def per_row(t, x):
            if np.ndim(t):
                raise TypeError("scalar t only")
            return f(t, x)

        prob = replace(smooth_problem(), f_smooth=f, eps1=0.25, eps2=0.5)
        sol = solve(prob, n_t=16, n_x=16, quad=QUICK)
        calls.clear()
        report = verify(prob, sol, QUICK)
        assert len(calls) == 1
        twin = verify(replace(prob, f_smooth=per_row), sol, QUICK)
        assert twin.as_dict() == report.as_dict()


class TestConstantData:
    def test_scalar_results_fill_the_grid(self):
        # data callables are pointwise, so a Python scalar for array input
        # fills the array: the same grid as the broadcasting twins, and
        # one call of f per sampling, not one per point
        calls = []

        def f(t, x):
            calls.append(1)
            return 0.1

        quad = QuadPolicy(n_points=128)
        got = solve(make_problem(phi=lambda t: 1.0, f_smooth=f), n_t=32,
                    n_x=32, quad=quad)
        assert len(calls) <= 4
        want = solve(make_problem(phi=constant(1.0),
                                  f_smooth=lambda t, x: 0.1 + 0.0 * t * x),
                     n_t=32, n_x=32, quad=quad)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.tau.tau, want.tau.tau)


class TestUnitSolution:
    def test_error_at_a_minus_4_is_pinned(self):
        # u = 1 solves this problem exactly; at a = -4 the series cancel by
        # about 4e9, so a change of their truncation shows in the error
        prob = ProblemN(PARAMS, TelegraphCoeffs(-4.0, -1.0), DOMAIN,
                        phi=lambda t: 1.0, psi=lambda x: 0.5,
                        M=lambda t: 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve(prob, n_t=32, n_x=32,
                        quad=QuadPolicy(n_points=128), strict=False)
        assert abs(np.abs(sol.u - 1.0).max() / 6.332e-4 - 1.0) <= 0.01


class TestSharedSetup:
    def test_coarse_assembly_estimates_its_refinement(self):
        # at n_x = 8 the assembly's two levels used to be one and the same
        sol = solve(make_problem(), n_t=8, n_x=8, quad=QuadPolicy(n_points=32))
        assert sol.diagnostics["g_refinement_delta"] > 0.0

    def test_one_engine_and_one_xi_table_per_solve(self, monkeypatch):
        counts = {"engine": 0, "xi": 0}
        init, xi_moments = goursat.TeleEngine.__init__, goursat._xi_moments

        def counted_init(self, *args, **kwargs):
            counts["engine"] += 1
            init(self, *args, **kwargs)

        def counted_xi(*args):
            counts["xi"] += 1
            return xi_moments(*args)

        monkeypatch.setattr(goursat.TeleEngine, "__init__", counted_init)
        monkeypatch.setattr(goursat, "_xi_moments", counted_xi)
        TABLES.clear()  # count a cold solve
        solve(smooth_problem(), n_t=16, n_x=16, quad=QUICK)
        assert counts == {"engine": 1, "xi": 1}

    def test_solve_runs_each_public_stage_once(self, monkeypatch):
        # the stages by the names that ``solve`` looks up; a benchmark
        # tracer that wraps them sees every solve
        counts = dict.fromkeys(("TeleEngine", "assemble_system", "solve_tau",
                                "goursat_grid"), 0)
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(problem_mod, name),
                        **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(problem_mod, name, counted)
        TABLES.clear()  # count a cold solve
        solve(smooth_problem(), n_t=16, n_x=16, quad=QUICK)
        assert counts == dict.fromkeys(counts, 1)

    def test_f_called_once_per_assembly_level_and_grid_fill(self):
        # a broadcasting f: the fine and the coarse assembly level sample
        # it once each, on (their outer nodes x the x-grid), and the grid
        # fill once on its eta-mesh, whatever the grid size
        counts = []
        for n in (16, 32):
            calls = []

            def f(t, x):
                calls.append(np.size(t))
                return np.asarray(t) * np.asarray(x) / 10.0

            prob = replace(smooth_problem(), f_smooth=f)
            calls.clear()  # the probe of ProblemN
            solve(prob, n_t=n, n_x=n, quad=QuadPolicy(n_points=4 * n))
            counts.append(len(calls))
            points = max(n, 16)
            assert max(calls[:2]) <= (points + 1) * (n + 1)
        assert counts == [3, 3]

    @pytest.mark.parametrize("forcing, n, points", [(False, 128, 512),
                                                    (True, 64, 256)])
    def test_solve_and_verify_peak_memory(self, forcing, n, points):
        # the top rungs of the benchmark ladders peak near 1.0 and 1.9 MiB;
        # a batching change that would move their peak RSS by 10% (about
        # 4 MB) fails here first
        prob = smooth_problem(forcing=forcing)
        quad = QuadPolicy(n_points=points)
        verify(prob, solve(prob, n_t=n, n_x=n, quad=quad))
        tracemalloc.start()
        try:
            verify(prob, solve(prob, n_t=n, n_x=n, quad=quad))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20

    def test_cold_solve_loads_neither_scipy_nor_mpmath(self, tmp_path):
        # the solver needs numpy only: scipy serves the tests, mpmath the
        # series rescue and the oracle
        code = "\n".join((
            "import sys",
            "import prabtel",
            "from prabtel.acceptance import _smooth_problem",
            "loaded = lambda: sorted({'scipy', 'mpmath'} & set(sys.modules))",
            "print(loaded())",
            # the benchmark's fixture workload reads the stored values
            "from prabtel.oracle import load_fixtures",
            "assert len(load_fixtures()['ml3']) > 0",
            "print(loaded())",
            "prob = _smooth_problem()",
            "sol = prabtel.solve(prob, 16, 16, prabtel.QuadPolicy(n_points=64))",
            "prabtel.verify(prob, sol)",
            # the README's CLI example points of ml2 and ml3
            "p2 = prabtel.ML2Params(0.5, 1, 0.5, 0, 1, 0.5, 1.5, 0.5, 0.5, 0.5, 1, 1)",
            "prabtel.ml2(p2, 0.25, -0.5)",
            "p3 = prabtel.ml3_tele_variant(",
            "    'V1', prabtel.PrabhakarParams(1.0, 0.5, 0.5, -1.0))",
            "prabtel.ml3(p3, 0.5, -0.25, -0.125)",
            "print(loaded())",
        ))
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, cwd=tmp_path,
                                env=cli_env(), timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "[]", "[]"]


def _counted(fn, counts, name):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_builds(monkeypatch, counts):
    """Count engine builds, xi-moment tables and slope-weight moments."""
    for owner, attr, name in ((goursat.TeleEngine, "__init__", "engine"),
                              (goursat, "_xi_moments", "xi"),
                              (fracops, "kernel_cell_moments", "moments")):
        monkeypatch.setattr(owner, attr,
                            _counted(getattr(owner, attr), counts, name))


def _run(prob, n_t, n_x, quad):
    sol = solve(prob, n_t=n_t, n_x=n_x, quad=quad)
    report = verify(prob, sol, quad)
    return sol, report


def _assert_same_run(got, want):
    (sol, report), (sol_w, report_w) = got, want
    assert np.array_equal(sol.u, sol_w.u)
    assert np.array_equal(sol.tau.tau, sol_w.tau.tau)
    assert sol.diagnostics == sol_w.diagnostics
    assert report.as_dict() == report_w.as_dict()


class TestWarmSolve:
    """A second solve of one operator reads the engine and the grid tables
    that the first one kept, and returns the cold numbers bit for bit."""

    @pytest.mark.parametrize("forcing, eps, n_t, n_x, points", [
        (False, (0.0, 0.0), 16, 16, 64),
        (True, (0.0, 0.0), 16, 16, 64),
        (True, (0.25, 0.5), 16, 16, 64),
        (False, (0.0, 0.0), 5, 7, 64),  # a non-dyadic x step
        (True, (0.0, 0.0), 5, 7, 64)])
    def test_warm_solve_equals_cold(self, forcing, eps, n_t, n_x, points,
                                    monkeypatch):
        counts = dict.fromkeys(("phi", "psi", "M", "f", "engine", "xi",
                                "moments"), 0)
        base = smooth_problem(forcing=forcing)
        fields = {"phi": "phi", "psi": "psi", "M": "M", "f_smooth": "f"}
        prob = replace(base, eps1=eps[0], eps2=eps[1], **{
            field: _counted(getattr(base, field), counts, name)
            for field, name in fields.items()
            if getattr(base, field) is not None})
        quad = QuadPolicy(n_points=points)
        TABLES.clear()
        counts.update(dict.fromkeys(counts, 0))
        cold = _run(prob, n_t, n_x, quad)
        cold_counts = dict(counts)
        _count_builds(monkeypatch, counts)
        counts.update(dict.fromkeys(counts, 0))
        warm = _run(prob, n_t, n_x, quad)
        _assert_same_run(warm, cold)
        # each data callable as often as cold, and nothing built
        assert counts == dict(cold_counts, engine=0, xi=0, moments=0)

    @pytest.mark.parametrize("forcing", [False, True])
    def test_warm_solve_builds_no_moment_tables(self, forcing, monkeypatch):
        # the hat moments of the trace, and the shift matrices of the
        # forced xi table, are built by a cold solve only
        counts = dict.fromkeys(("_hat_moments", "_shift_matrix"), 0)
        for name in counts:
            monkeypatch.setattr(goursat, name,
                                _counted(getattr(goursat, name), counts, name))
        prob = smooth_problem(forcing=forcing)
        TABLES.clear()
        solve(prob, n_t=16, n_x=16, quad=QUICK)
        assert counts["_hat_moments"] == 1
        assert (counts["_shift_matrix"] > 0) == forcing
        counts.update(dict.fromkeys(counts, 0))
        solve(prob, n_t=16, n_x=16, quad=QUICK)
        assert counts == {"_hat_moments": 0, "_shift_matrix": 0}

    def test_warm_singular_fill_builds_no_end_pieces(self, monkeypatch):
        # eps1 = 0.25, eps2 = 0.5: the end pieces of the grid fill's rows
        # and of the assembly's rows, and the series columns, are built by
        # the cold solve only
        cfg = load_config(str(ROOT / "demos" / "singular_config.json"))
        prob, quad = cfg["problem"], cfg["quad"]
        counts = dict.fromkeys(("cvec", "_ends"), 0)
        monkeypatch.setattr(goursat.TeleEngine, "cvec", _counted(
            goursat.TeleEngine.cvec, counts, "cvec"))
        monkeypatch.setattr(goursat._EtaConv, "_ends", _counted(
            goursat._EtaConv._ends, counts, "_ends"))
        TABLES.clear()
        cold = solve(prob, n_t=cfg["n_t"], n_x=cfg["n_x"], quad=quad,
                     series=cfg["series"])
        assert counts["cvec"] > 0 and counts["_ends"] > 0
        counts.update(dict.fromkeys(counts, 0))
        warm = solve(prob, n_t=cfg["n_t"], n_x=cfg["n_x"], quad=quad,
                     series=cfg["series"])
        assert counts == {"cvec": 0, "_ends": 0}
        assert np.array_equal(warm.u, cold.u)
        assert np.array_equal(warm.tau.tau, cold.tau.tau)

    def test_large_cap_operator_builds_no_rules_again(self, monkeypatch):
        # caps (431, 57, 80): every table of the assembly's eta-mesh and
        # t-rules is built by the cold solve only
        prob = ProblemN(PrabhakarParams(0.7, 0.3, 1.3, -2.0),
                        TelegraphCoeffs(-3.0, 2.0), DOMAIN,
                        phi=lambda t: 1.0, psi=lambda x: 0.3,
                        M=lambda t: 0.5 + 0.5 * np.asarray(t, dtype=float))
        counts = dict.fromkeys(("build_rule", "cvec"), 0)
        monkeypatch.setattr(volterra, "build_rule", _counted(
            volterra.build_rule, counts, "build_rule"))
        monkeypatch.setattr(goursat.TeleEngine, "cvec", _counted(
            goursat.TeleEngine.cvec, counts, "cvec"))
        TABLES.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cold = solve(prob, n_t=4, n_x=128, quad=QUICK, strict=False)
            assert counts["build_rule"] > 0 and counts["cvec"] > 0
            counts.update(dict.fromkeys(counts, 0))
            warm = solve(prob, n_t=4, n_x=128, quad=QUICK, strict=False)
        assert counts == {"build_rule": 0, "cvec": 0}
        assert np.array_equal(warm.u, cold.u)

    @pytest.mark.parametrize("n", [32, 6])
    def test_stages_on_a_rounded_grid_after_a_warm_solve(self, n):
        # np.round(linspace, 13) passes the lattice check of linspace; at
        # n = 6 (not at 32, a dyadic step) it has other node values, which
        # get tables of their own
        prob = smooth_problem()
        quad = QuadPolicy(n_points=128)
        rounded = np.round(np.linspace(0.0, 1.0, n + 1), 13)

        def stages():
            engine = goursat.TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
            forcing = goursat.ForcingTerm(engine, prob.f_smooth, 0.0, 0.0,
                                          rounded)
            system = assemble_system(engine, prob.domain, prob.M, prob.phi,
                                     prob.psi, forcing, rounded)
            u = goursat.goursat_grid(engine, solve_tau(system), prob.phi,
                                     forcing, rounded, rounded, quad,
                                     corner_tol=1e-4)
            return u, _fractional_rows(prob.params, rounded, u,
                                       SeriesPolicy())

        for _ in range(2):
            _run(prob, n, n, quad)
        got = stages()
        TABLES.clear()
        want = stages()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_stages_reject_a_grid_rounded_to_10_digits(self):
        # the Toeplitz products of the grid fill are exact on an exact
        # lattice only: steps 3e-11 off it are refused by every stage
        prob = smooth_problem()
        engine = goursat.TeleEngine(prob.params, prob.coeffs, 1.0, 1.0)
        rounded = np.round(np.linspace(0.0, 1.0, 7), 10)
        exact = np.linspace(0.0, 1.0, 7)
        with pytest.raises(DomainError):
            goursat.ForcingTerm(engine, prob.f_smooth, 0.0, 0.0, rounded)
        with pytest.raises(InvalidData):
            assemble_system(engine, prob.domain, prob.M, prob.phi, prob.psi,
                            None, rounded)
        trace = solve_tau(assemble_system(engine, prob.domain, prob.M,
                                          prob.phi, prob.psi, None, exact))
        for t_nodes, x_nodes in ((rounded, exact), (exact, rounded)):
            with pytest.raises(DomainError):
                goursat.goursat_grid(engine, trace, prob.phi, None, t_nodes,
                                     x_nodes, QUICK)
        with pytest.raises(InvalidData):
            GridSolution(t_grid=rounded, x_grid=exact,
                         u=np.ones((7, 7)), tau=trace, A=1.0,
                         compatibility=0.0)

    @pytest.mark.parametrize("change", [
        {"coeffs": TelegraphCoeffs(-0.25, -0.75)},
        {"domain": Domain2D(1.0, 0.8)},
        {"eps2": 0.5}])
    def test_another_operator_after_a_warm_solve(self, change):
        base = replace(smooth_problem(), eps2=0.25)
        other = replace(base, **change)
        quad = QuadPolicy(n_points=64)
        for _ in range(2):
            _run(base, 16, 16, quad)
        got = _run(other, 16, 16, quad)
        TABLES.clear()
        _assert_same_run(got, _run(other, 16, 16, quad))

    def test_engine_is_shared_across_rel_tol(self, monkeypatch):
        # the engine reads max_terms_per_index alone: a solve at another
        # rel_tol takes the engine and grid tables of the first
        counts = dict.fromkeys(("engine", "xi", "moments"), 0)
        _count_builds(monkeypatch, counts)
        prob = smooth_problem()
        TABLES.clear()
        first = solve(prob, n_t=16, n_x=16, quad=QUICK,
                      series=SeriesPolicy(rel_tol=1e-12))
        second = solve(prob, n_t=16, n_x=16, quad=QUICK,
                       series=SeriesPolicy(rel_tol=1e-14))
        assert counts["engine"] == 1 and counts["xi"] == 1
        assert np.array_equal(first.u, second.u)
        assert np.array_equal(first.tau.tau, second.tau.tau)

    def test_kept_arrays_are_read_only(self):
        prob = smooth_problem()
        sol = solve(prob, n_t=16, n_x=16, quad=QUICK)
        engine = TABLES.get(
            exact_key(prob.params, prob.coeffs, 1.0, 1.0,
                      SeriesPolicy().max_terms_per_index),
            pytest.fail)
        conv = goursat._EtaConv(engine, 1.0, 64)
        forcing = goursat.ForcingTerm(engine, prob.f_smooth, 0.0, 0.0,
                                      sol.x_grid)
        for table in (engine.kt["base"], engine.jw["V4"], conv.inner,
                      conv.left, engine.ypowers(sol.x_grid), forcing.q):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_a_table_above_the_budget_is_dropped(self, monkeypatch):
        # the 65 x 65 x m_cap xi table of a forced 64 x 64 solve is 676 kB,
        # and every other table of the solve (425 kB) fits in the budget
        # beside it
        counts = dict.fromkeys(("engine", "xi", "moments"), 0)
        _count_builds(monkeypatch, counts)
        monkeypatch.setattr(TABLES, "budget", 500_000)
        TABLES.clear()
        prob = smooth_problem()
        cold = _run(prob, 64, 64, QUICK)
        assert 0 < TABLES.nbytes <= TABLES.budget
        warm = _run(prob, 64, 64, QUICK)
        assert TABLES.nbytes <= TABLES.budget
        assert counts == {"engine": 1, "xi": 2, "moments": 1}
        _assert_same_run(warm, cold)
