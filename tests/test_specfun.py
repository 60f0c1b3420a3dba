"""Unit tests for the Mittag-Leffler series evaluators."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prabtel import specfun
from prabtel.errors import InvalidParams, NonConvergence
from prabtel.fracops import PrabhakarParams
from prabtel.goursat import _VARIANTS, ml3_tele_variant
from prabtel.oracle import _tele_ml2, load_fixtures
from prabtel.specfun import (
    GammaRatio,
    ML2Params,
    ML3Params,
    SeriesPolicy,
    SeriesTensors,
    discriminants2,
    discriminants3,
    ml2,
    ml2_ratio,
    ml3,
    ml3_ratios,
    ml_prabhakar,
    pochhammer,
    rgamma,
)


def tele_ml2_params(alpha, beta, gamma):
    return ML2Params(a1=gamma, b1=1.0, g1=gamma, a2=0.0, g2=1.0,
                     a3=beta, b2=alpha, d1=beta + 1.0, a4=gamma, d2=gamma,
                     b3=1.0, d3=1.0)


def tele_ml3_v1_params(alpha, beta, gamma):
    return ML3Params(a1=gamma, b1=1.0, d1=gamma, a2=1.0, g1=1.0, d2=2.0,
                     a3=beta, b2=alpha, d3=beta + 1.0, a4=gamma, d4=gamma,
                     a5=1.0, d5=2.0, b3=1.0, d6=1.0, g2=1.0, d7=1.0,
                     g3=1.0, d8=1.0)


class TestRgamma:
    def test_one(self):
        assert rgamma(1.0) == 1.0

    def test_poles_exactly_zero(self):
        for n in range(0, 20):
            assert rgamma(-float(n)) == 0.0

    def test_half(self):
        assert rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_matches_gamma_on_positives(self):
        for x in (0.1, 0.9, 1.5, 3.7, 10.0, 30.0):
            assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-13)

    def test_negative_noninteger_sign(self):
        # Gamma is negative on (-1, 0) and positive on (-2, -1)
        assert rgamma(-0.5) < 0
        assert rgamma(-1.5) > 0


class TestPochhammer:
    def test_rising_product(self):
        assert pochhammer(3.0, 2) == 12.0

    def test_empty_product(self):
        assert pochhammer(5.5, 0) == 1.0

    def test_zero_base(self):
        assert pochhammer(0.0, 5) == 0.0

    def test_matches_gamma_ratio(self):
        g, m = 2.3, 7
        assert pochhammer(g, m) == pytest.approx(
            math.gamma(g + m) / math.gamma(g), rel=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidParams):
            pochhammer(1.0, -1)


class TestMlPrabhakar:
    def test_exp_reduction(self):
        for z in (-20.0, -7.3, -1.0, 0.0, 1.0, 5.0):
            assert ml_prabhakar(1.0, 1.0, 1.0, z) == pytest.approx(
                math.exp(z), rel=1e-10)

    def test_cosh_reduction(self):
        # E^1_{2,1}(z) = cosh(sqrt(z)), which is cos(sqrt(-z)) for z < 0
        assert ml_prabhakar(2.0, 1.0, 1.0, 1.0) == pytest.approx(
            math.cosh(1.0), rel=1e-12)
        for z in (-20.0, -4.0, 2.25):
            want = math.cosh(math.sqrt(z)) if z >= 0 else math.cos(math.sqrt(-z))
            assert ml_prabhakar(2.0, 1.0, 1.0, z) == pytest.approx(want, rel=1e-10)

    def test_zero_argument(self):
        assert ml_prabhakar(0.7, 1.3, 2.2, 0.0) == pytest.approx(
            1.0 / math.gamma(1.3), rel=1e-13)

    def test_gamma_zero_collapses(self):
        for z in (-5.0, 0.0, 7.0):
            assert ml_prabhakar(1.0, 1.3, 0.0, z) == pytest.approx(
                1.0 / math.gamma(1.3), rel=1e-14)

    def test_negative_integer_gamma_terminates(self):
        # (-2)_m vanishes for m >= 3: a polynomial of degree 2 in z
        z = 0.7
        want = sum(pochhammer(-2.0, m) * z ** m / (math.gamma(0.5 * m + 1.0)
                   * math.factorial(m)) for m in range(3))
        assert ml_prabhakar(0.5, 1.0, -2.0, z) == pytest.approx(want, rel=1e-13)

    def test_alpha_must_be_positive(self):
        with pytest.raises(InvalidParams):
            ml_prabhakar(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(InvalidParams):
            ml_prabhakar(-1.0, 1.0, 1.0, 0.5)

    def test_nonconvergence_on_tiny_cap(self):
        with pytest.raises(NonConvergence):
            ml_prabhakar(1.0, 1.0, 1.0, 3.0,
                         SeriesPolicy(rel_tol=1e-12, max_terms_per_index=4))

    @given(alpha=st.floats(0.1, 3.0), beta=st.floats(0.05, 4.0),
           gamma=st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_value_at_zero_times_gamma_beta_is_one(self, alpha, beta, gamma):
        assert abs(ml_prabhakar(alpha, beta, gamma, 0.0) * math.gamma(beta)
                   - 1.0) <= 1e-12

    def test_monotone_truncation(self):
        lo = SeriesPolicy(rel_tol=1e-12, max_terms_per_index=500)
        hi = SeriesPolicy(rel_tol=1e-12, max_terms_per_index=2000)
        for z in (-2.5, 0.3, 4.0):
            assert ml_prabhakar(1.0, 0.5, 0.5, z, lo) == \
                ml_prabhakar(1.0, 0.5, 0.5, z, hi)


class TestML2:
    def test_value_at_origin(self):
        p = tele_ml2_params(1.0, 0.5, 0.5)
        want = 1.0 / (math.gamma(p.d1) * math.gamma(p.d2) * math.gamma(p.d3))
        assert ml2(p, 0.0, 0.0) == pytest.approx(want, rel=1e-13)

    def test_separable_product(self):
        # a1=a3, g1=d1, b1=b2 cancels the coupled gamma ratio and the double
        # series factors into two independent single series
        p = ML2Params(a1=1.0, b1=1.0, g1=1.5, a2=1.0, g2=2.0,
                      a3=1.0, b2=1.0, d1=1.5, a4=2.5, d2=1.0, b3=1.0, d3=1.0)
        x, y = -0.8, 0.6
        s_m = sum(math.gamma(m + 2.0) * x ** m
                  / (math.gamma(2.0) * math.gamma(2.5 * m + 1.0))
                  for m in range(60))
        s_k = sum(y ** k / math.gamma(k + 1.0) for k in range(60))
        assert ml2(p, x, y) == pytest.approx(
            s_m * s_k / math.gamma(1.5), rel=1e-11)

    def test_discriminants_telegraph(self):
        alpha, beta, gamma = 1.0, 0.5, 0.5
        assert discriminants2(tele_ml2_params(alpha, beta, gamma)) == \
            pytest.approx((beta, alpha))

    def test_zero_discriminant_rejected(self):
        with pytest.raises(InvalidParams):
            ML2Params(a1=1.0, b1=1.0, g1=1.0, a2=1.0, g2=1.0,
                      a3=1.0, b2=1.0, d1=1.0, a4=1.0, d2=1.0, b3=1.0, d3=1.0)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(InvalidParams):
            ML2Params(a1=-0.5, b1=1.0, g1=1.0, a2=0.0, g2=1.0,
                      a3=1.0, b2=1.0, d1=1.0, a4=1.0, d2=1.0, b3=1.0, d3=1.0)

    def test_a2_zero_accepted(self):
        tele_ml2_params(1.0, 0.5, 0.5)

    def test_numerator_pole_raises(self):
        p = ML2Params(a1=1.0, b1=1.0, g1=-1.0, a2=0.0, g2=1.0,
                      a3=1.0, b2=1.0, d1=1.0, a4=1.5, d2=1.0, b3=1.0, d3=1.0)
        with pytest.raises(InvalidParams):
            ml2(p, 0.5, 0.5)

    def test_denominator_pole_zeroes_terms(self):
        # d3 = 0 puts Gamma(k) in the denominator, killing every k = 0 term;
        # at y = 0 only k = 0 survives, so the whole sum is exactly 0
        p = ML2Params(a1=1.0, b1=1.0, g1=1.0, a2=0.0, g2=1.0,
                      a3=1.0, b2=1.0, d1=1.0, a4=1.5, d2=1.0, b3=1.0, d3=0.0)
        assert ml2(p, 0.7, 0.0) == 0.0

    def test_positivity_telegraph_instance(self):
        # strict-regime positivity: a < 0, delta < 0, alpha = 1, gamma = beta
        a, delta = -1.0, -1.0
        for beta in [0.1 * i for i in range(1, 10)]:
            p = tele_ml2_params(1.0, beta, beta)
            for t in [0.1 * i for i in range(1, 11)]:
                assert ml2(p, a * t ** beta, delta * t) > 0.0

    def test_monotone_truncation(self):
        p = tele_ml2_params(1.0, 0.5, 0.5)
        lo = SeriesPolicy(rel_tol=1e-12, max_terms_per_index=600)
        hi = SeriesPolicy(rel_tol=1e-12, max_terms_per_index=2000)
        assert ml2(p, -1.2, -0.8, lo) == ml2(p, -1.2, -0.8, hi)


class TestML3:
    def test_value_at_origin(self):
        p = tele_ml3_v1_params(1.0, 0.5, 0.5)
        want = (math.gamma(p.d1) * math.gamma(p.d2)
                / (math.gamma(p.d3) * math.gamma(p.d4) * math.gamma(p.d5)
                   * math.gamma(p.d6) * math.gamma(p.d7) * math.gamma(p.d8)))
        assert ml3(p, 0.0, 0.0, 0.0) == pytest.approx(want, rel=1e-13)

    def test_single_series_restriction(self):
        # y = z = 0 leaves the j = k = 0 slice
        p = tele_ml3_v1_params(1.0, 0.5, 0.5)
        x = -0.9
        want = sum(
            math.gamma(p.a1 * m + p.d1) * math.gamma(p.a2 * m + p.d2) * x ** m
            / (math.gamma(p.a3 * m + p.d3) * math.gamma(p.a4 * m + p.d4)
               * math.gamma(p.a5 * m + p.d5) * math.gamma(p.d6)
               * math.gamma(p.d7) * math.gamma(p.d8))
            for m in range(120))
        assert ml3(p, x, 0.0, 0.0) == pytest.approx(want, rel=1e-11)

    def test_discriminants_v1(self):
        assert discriminants3(tele_ml3_v1_params(1.0, 0.5, 0.5)) == \
            pytest.approx((0.5, 1.0, 1.0))

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(InvalidParams):
            tele_ml3_v1_params(1.0, 0.5, -0.5)

    def test_zero_discriminant_rejected(self):
        with pytest.raises(InvalidParams):
            ML3Params(a1=1.0, b1=1.0, d1=1.0, a2=1.0, g1=1.0, d2=1.0,
                      a3=1.0, b2=1.0, d3=1.0, a4=0.5, d4=1.0, a5=0.5, d5=1.0,
                      b3=1.0, d6=1.0, g2=0.5, d7=1.0, g3=0.5, d8=1.0)

    def test_lemma_regime_bounded_on_negative_grid(self):
        # variant parameters with a5 >= 1, d5 >= 1: the truncated series must
        # converge and stay bounded for negative arguments; the grid maximum
        # is the empirical counterpart of the boundedness constant
        p = tele_ml3_v1_params(1.0, 0.5, 0.5)
        pol = SeriesPolicy(rel_tol=1e-9, max_terms_per_index=2000)
        grid = [-1.5 + 0.16 * i for i in range(10)]
        running_max = 0.0
        for x in grid:
            for y in grid:
                for z in grid:
                    v = ml3(p, x, y, z, pol)
                    assert math.isfinite(v)
                    running_max = max(running_max, abs(v))
        assert math.isfinite(running_max) and running_max > 0.0

    def test_monotone_truncation(self):
        p = tele_ml3_v1_params(1.0, 0.5, 0.5)
        lo = SeriesPolicy(rel_tol=1e-12, max_terms_per_index=600)
        hi = SeriesPolicy(rel_tol=1e-12, max_terms_per_index=2000)
        assert ml3(p, -0.9, -0.5, -0.7, lo) == ml3(p, -0.9, -0.5, -0.7, hi)


def _whole_sum(tensors, ratio, u, w, shape):
    """ratio * u^m w^i on shape (m, i) as one sum over the kept grids of
    ``tensors``: the factors of m alone, of i alone (or neither) and of
    both each add up in the order of the ratio's forms, numerators first,
    then (m part + i part) + both part; the sign is their product."""
    m, i = np.arange(shape[0]), np.arange(shape[1])

    def powers(v, idx):
        if v == 0.0:
            return (idx == 0) * 1.0, np.where(idx == 0, 0.0, -math.inf)
        return (np.where((v < 0.0) & (idx % 2 == 1), -1.0, 1.0),
                idx * math.log(abs(v)))

    (us, ul), (ws, wl) = powers(u, m), powers(w, i)
    row, col, full = [us[:, None], ul[:, None]], [ws, wl], [1.0, 0.0]
    for form, up in [(f, True) for f in ratio.num] + [(f, False) for f in ratio.den]:
        cm, ci, c = form
        rows, cols = (m if cm else m[:1]), (i if ci else i[:1])
        args = (cm * rows + c)[:, None] + ci * cols
        sign = np.where((args < 0.0) & (np.floor(args) % 2 == 1), -1.0, 1.0)
        sign[(args <= 0.0) & (args == np.floor(args))] = 0.0
        grid = tensors._grids[form][:rows.size, :cols.size]
        part = col if not cm else row if not ci else full
        part[0] = part[0] * sign
        part[1] = part[1] + grid if up else part[1] - grid
    return row[0] * col[0] * full[0], row[1] + col[1] + full[1]


def _assert_same_terms(got, want):
    """Two ``logs`` results agree bit for bit: the logs everywhere, the
    signs where the log is finite (a sign of None is +1)."""
    for g_side, w_side in zip(got, want):
        assert g_side.keys() == w_side.keys()
        for name in g_side:
            (gs, gl), (ws, wl) = g_side[name], w_side[name]
            assert gl.shape == wl.shape and np.array_equal(gl, wl)
            finite = np.isfinite(wl)
            assert np.array_equal(
                np.where(finite, 1.0 if gs is None else gs, 0.0),
                np.where(finite, 1.0 if ws is None else ws, 0.0))


class TestSeriesTensors:
    # the doubling schedule of _fit_caps from _START_CAPS
    SCHEDULE = ((24, 16, 16), (48, 32, 32), (96, 32, 64))

    @staticmethod
    def _case(name):
        """(k_ratios, j_ratios, (x, y, z)) of one series."""
        fx = load_fixtures()
        if name == "ml2":
            e = fx["ml2"][1]
            return ({"k": ml2_ratio(ML2Params(**e["params"]))},
                    {"j": GammaRatio()}, (e["x"], 0.0, e["y"]))
        if name == "ml3":
            e = fx["ml3"][2]
            k, j = ml3_ratios(ML3Params(**e["params"]))
            return {"k": k}, {"j": j}, (e["x"], e["y"], e["z"])
        if name == "prabhakar_poles":
            # ml_prabhakar's ratio at gamma = -3: Gamma(4 - m) in the
            # denominator has poles from m = 4 on
            ratio = GammaRatio(((0.0, 0.0, 4.0),),
                               ((-1.0, 0.0, 4.0), (0.7, 0.0, 0.4), (1.0, 0.0, 1.0)))
            return {"k": ratio}, {"j": GammaRatio()}, (2.5, 0.0, 0.0)
        # a denominator of both indices through negative arguments and
        # poles; no unit steps, whose running sums restart at each block
        ratio = GammaRatio(((0.5, 0.7, 0.75),), ((0.5, 0.7, -1.5), (1.0, 0.0, 1.0)))
        return {"k": ratio}, {"j": GammaRatio()}, (-0.8, 0.0, 0.6)

    def _whole_sums(self, tensors, k_ratios, j_ratios, args):
        m, j, k = self.SCHEDULE[-1]
        return ({n: _whole_sum(tensors, r, args[0], args[2], (m, k))
                 for n, r in k_ratios.items()},
                {n: _whole_sum(tensors, r, 1.0, args[1], (m, j))
                 for n, r in j_ratios.items()})

    @pytest.mark.parametrize("case", ["ml2", "ml3", "prabhakar_poles", "full_poles"])
    def test_grown_tensors_match_fresh_ones(self, case):
        k_ratios, j_ratios, args = self._case(case)
        grown = SeriesTensors(k_ratios, j_ratios, *args)
        for caps in self.SCHEDULE:
            got = grown.logs(caps)
        fresh = SeriesTensors(k_ratios, j_ratios, *args)
        _assert_same_terms(got, fresh.logs(self.SCHEDULE[-1]))
        _assert_same_terms(got, self._whole_sums(grown, k_ratios, j_ratios, args))
        # and a second call at the same caps reads the same tensors
        _assert_same_terms(grown.logs(self.SCHEDULE[-1]), got)

    def test_prabhakar_poles_are_exact_zeros(self):
        k_ratios, j_ratios, args = self._case("prabhakar_poles")
        tensors = SeriesTensors(k_ratios, j_ratios, *args)
        (sign, log), = tensors.logs((24, 1, 1))[0].values()
        assert np.all(sign[4:] == 0.0) and np.all(log[4:] == -math.inf)
        assert np.all(sign[:4] != 0.0) and np.all(np.isfinite(log[:4]))

    def test_grown_engine_tensors_match_a_whole_sum_of_their_grids(self):
        # the engine's unit-step forms take running sums of log(a), which
        # restart at each block their grid grows by, so a grown tensor is
        # compared with one sum over the same grids, not with a fresh build
        p = PrabhakarParams(1.0, 0.5, 0.5, -0.5)
        ratios = {v: ml3_ratios(ml3_tele_variant(v, p)) for v in _VARIANTS}
        k_ratios = {"base": ratios["V3"][0], "shifted": ratios["V1"][0]}
        j_ratios = {v: r[1] for v, r in ratios.items()}
        args = (0.25, 0.5, 0.5)
        grown = SeriesTensors(k_ratios, j_ratios, *args)
        for caps in self.SCHEDULE:
            got = grown.logs(caps)
        _assert_same_terms(got, self._whole_sums(grown, k_ratios, j_ratios, args))
        fresh = SeriesTensors(k_ratios, j_ratios, *args).logs(self.SCHEDULE[-1])
        for g_side, f_side in zip(got, fresh):
            for name in g_side:
                assert np.abs(g_side[name][1] - f_side[name][1]).max() <= 1e-12


class TestSeriesPolicy:
    def test_defaults(self):
        pol = SeriesPolicy()
        assert pol.rel_tol == 1e-12
        assert pol.max_terms_per_index == 2000

    def test_validation(self):
        with pytest.raises(InvalidParams):
            SeriesPolicy(rel_tol=0.0)
        with pytest.raises(InvalidParams):
            SeriesPolicy(max_terms_per_index=0)


class TestOracleFixtures:
    @pytest.mark.parametrize("family, index", [("ml3", 71), ("ml2", 34)])
    def test_cancelled_points_hold_tight_tolerance(self, family, index):
        # float64 sums of these points cancel by about 1e9 and 1e15, so
        # their values come from the mpmath rescue, which must carry its
        # tail to rel_tol * |sum| at whatever precision the sum needs
        entry = load_fixtures()[family][index]
        tight = SeriesPolicy(rel_tol=1e-14)
        if family == "ml2":
            got = ml2(ML2Params(**entry["params"]), entry["x"], entry["y"], tight)
        else:
            got = ml3(ML3Params(**entry["params"]), entry["x"], entry["y"],
                      entry["z"], tight)
        want = float(entry["value"])
        assert abs(got - want) <= 1e-13 * abs(want)


# the fixture points whose float64 sum the mpmath rescue replaces at
# rel_tol 1e-14 (cancellation past 1e3 or a term past float64 range)
RESCUED = (
    [("ml2", i) for i in (2, 29, 30, 34, 57, 70, 71, 88, 95)]
    + [("ml3", i) for i in (1, 2, 5, 7, 10, 11, 12, 16, 17, 20, 27, 29, 32,
                            34, 35, 38, 39, 40, 46, 47, 49, 50, 52, 55, 57,
                            58, 62, 64, 66, 70, 71, 74, 78, 86)])
# the u = 1 telegraph instance at a = -10, t = 1: E2 cancels by about 1e44
# and the rescue rectangle grows to (601, 1, 46); U1_HP is
# oracle.hp_ml2(U1_PARAMS, -10.0, -1.0, dps=80), stored because it takes
# 83 s. Gamma(1/2) E2 = 0.0904118 is the u = 1 figure of the ROADMAP.
U1_PARAMS = _tele_ml2(1, 0.5, 0.5)
U1_HP = "0.0510093948590395903024792361903418788"


def fixture_value(family, index, policy):
    entry = load_fixtures()[family][index]
    if family == "ml2":
        got = ml2(ML2Params(**entry["params"]), entry["x"], entry["y"], policy)
    else:
        got = ml3(ML3Params(**entry["params"]), entry["x"], entry["y"],
                  entry["z"], policy)
    return got, float(entry["value"])


def last_rescue(monkeypatch, evaluate):
    """The arguments of the last ``_mp_sum`` that ``evaluate()`` makes."""
    calls = []
    inner = specfun._mp_sum

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(specfun, "_mp_sum", spy)
    evaluate()
    assert calls, "the value took no rescue"
    return calls[-1]


def worst_float_error(ratio, u, w, floats, log_scale, in_mp):
    """max |F / exact - 1| over the entries F of ``floats`` that ``in_mp``
    leaves to float64. F stands for the term ratio u^m w^i scaled by
    e^(-log_scale[m]); a denominator pole must give F = 0. The exact log
    takes one 30-digit mpmath log-gamma per argument and is summed in long
    double."""
    memo = {}

    def log_gamma(a):
        if a not in memo:
            pole = a <= 0.0 and a == math.floor(a)
            memo[a] = np.nan if pole else np.longdouble(
                mpmath.nstr(mpmath.re(mpmath.loggamma(mpmath.mpf(a))), 25))
        return memo[a]

    def log_abs(v):
        return np.longdouble(mpmath.nstr(mpmath.log(abs(mpmath.mpf(v))), 25))

    m, i = np.nonzero(~in_mp)
    f = floats[m, i]
    with mpmath.workdps(30):
        exact = np.zeros(m.size, dtype=np.longdouble)
        for forms, sign in ((ratio.num, 1), (ratio.den, -1)):
            for cm, ci, c in forms:
                exact += sign * np.array([log_gamma(a) for a in (cm * m + ci * i + c)],
                                         dtype=np.longdouble)
        if u:
            exact += m * log_abs(u)
        if w:
            exact += i * log_abs(w)
    pole = np.isnan(exact)
    assert np.all(f[pole] == 0.0)
    got = (np.log(np.abs(f[~pole]).astype(np.longdouble))
           + np.asarray(log_scale, dtype=np.longdouble)[m[~pole]])
    return float(np.abs(np.expm1(got - exact[~pole])).max(initial=0.0))


class TestRescue:
    @pytest.mark.parametrize("family, index", RESCUED)
    def test_rescued_points_at_tight_tolerance(self, family, index):
        got, want = fixture_value(family, index, SeriesPolicy(rel_tol=1e-14))
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-14])
    def test_large_cap_rescue(self, rel_tol):
        got = ml2(U1_PARAMS, -10.0, -1.0, SeriesPolicy(rel_tol=rel_tol))
        want = float(U1_HP)
        assert abs(got - want) <= rel_tol * abs(want)
        assert abs(math.gamma(0.5) * got - 0.0904118) < 1e-7

    def test_large_cap_out_of_range_raises(self):
        with pytest.raises(NonConvergence):
            ml2(U1_PARAMS, -20.0, -1.0, SeriesPolicy(rel_tol=1e-12))

    @pytest.mark.parametrize("case", RESCUED + [("u1", -10.0)], ids=str)
    def test_float_error_bound_holds(self, monkeypatch, case):
        # every entry that a rescue leaves to float64 must be within a
        # tenth of the delta the code derives for its rectangle, so delta
        # bounds the error of the float64 part with room to spare
        tight = SeriesPolicy(rel_tol=1e-14)
        if case[0] == "u1":
            tensors, rect, _, scaled, keep = last_rescue(
                monkeypatch, lambda: ml2(U1_PARAMS, case[1], -1.0, tight))
        else:
            tensors, rect, _, scaled, keep = last_rescue(
                monkeypatch, lambda: fixture_value(*case, tight))
        k, j, off, top = scaled
        m_n, j_n, k_n = rect
        delta = specfun._split(scaled, rect, 0.0)[2]
        x, y, z = tensors.args
        (k_ratio,), (j_ratio,) = tensors.k_ratios.values(), tensors.j_ratios.values()
        k_err = worst_float_error(k_ratio, x, z, k[:m_n, :k_n],
                                  top - off[:m_n, 0], keep[0])
        j_err = worst_float_error(j_ratio, 1.0, y, j[:m_n, :j_n],
                                  off[:m_n, 0], keep[1])
        assert max(k_err, j_err) <= delta / 10

    def test_float_error_past_limit_forces_another_sum(self, monkeypatch):
        # ml2:2 settles after one rescue; an error bound of its float64
        # part past the limit of the mpmath |sum| must force one more sum,
        # though the rectangle and the digits have settled
        tight = SeriesPolicy(rel_tol=1e-14)
        want = fixture_value("ml2", 2, tight)[0]
        inner, errors = specfun._split, []

        def first_too_large(*args):
            *keep, delta, error = inner(*args)
            errors.append(error)
            return (*keep, delta, math.inf if len(errors) == 1 else error)

        monkeypatch.setattr(specfun, "_split", first_too_large)
        assert fixture_value("ml2", 2, tight)[0] == want
        assert len(errors) == 2

    def test_rescue_sums_large_terms_only(self, monkeypatch):
        # a rescue of the whole (172, 1, 67) rectangle of ml2:34 made
        # 23,290 mpmath gamma calls; the float64 share leaves them the
        # entries that float64 cannot carry
        calls = [0]
        for name in ("gamma", "rgamma"):
            fn = getattr(mpmath, name)

            def counted(*args, fn=fn):
                calls[0] += 1
                return fn(*args)

            monkeypatch.setattr(mpmath, name, counted)
        fixture_value("ml2", 34, SeriesPolicy(rel_tol=1e-14))
        assert 0 < calls[0] <= 0.6 * 23290
