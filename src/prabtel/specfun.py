"""Mittag-Leffler type functions by controlled series summation.

Implements the three-parameter (Prabhakar) Mittag-Leffler function and the
bivariate and trivariate Mittag-Leffler type functions that appear in the
closed-form solution of the fractional telegraph problem. All three are
entire functions defined by gamma-ratio power series; the discriminants
recorded on the parameter types are the standard convergence conditions.

Numerical strategy. Terms are always assembled in signed log space
(math.lgamma plus sign tracking), so individual terms cannot overflow and
gamma denominators at poles contribute exactly zero. For alternating series
the summation itself can be ill-conditioned: the float64 pass tracks the sum
of absolute terms, and when the cancellation ratio exceeds a threshold the
sum is repeated once in mpmath at a precision chosen from that ratio. The
rescue never triggers for the small-argument kernel evaluations on the hot
path; it exists so that badly cancelled corners (e.g. exp(-20) through the
series) still come out to full relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams, NonConvergence

__all__ = [
    "SeriesPolicy",
    "ML2Params",
    "ML3Params",
    "rgamma",
    "pochhammer",
    "ml_prabhakar",
    "ml2",
    "ml3",
    "discriminants2",
    "discriminants3",
]

_TINY = 1e-300

# cancellation ratios (sum of |terms| over |sum|) above which the float64
# pass is not trusted and the summation is repeated in mpmath
_RESCUE_KAPPA_ML = 1e3
_RESCUE_KAPPA_ML23 = 3e3


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy shared by all series evaluators.

    rel_tol is the relative tolerance on the partial sum; a summation index
    stops once `consecutive_small` successive terms fall below
    rel_tol * |partial sum|; max_terms_per_index caps each index.
    """

    rel_tol: float = 1e-12
    max_terms_per_index: int = 2000
    consecutive_small: int = 3

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise InvalidParams("rel_tol must be > 0")
        if self.max_terms_per_index < 1:
            raise InvalidParams("max_terms_per_index must be >= 1")
        if self.consecutive_small < 1:
            raise InvalidParams("consecutive_small must be >= 1")


@dataclass(frozen=True)
class ML2Params:
    """Parameters of the bivariate Mittag-Leffler type function.

    Field order follows the definition: the double series

        E2(x, y) = sum_{m,k} G(a1 m + b1 k + g1) G(a2 m + g2)
                   / [G(g1) G(g2) G(a3 m + b2 k + d1)]
                   * x^m / G(a4 m + d2) * y^k / G(b3 k + d3)

    converges when both discriminants are positive:
    D1 = a3 + a4 - a1 - a2 and D2 = b2 + b3 - b1.

    a2 = 0 is accepted even though the classical definition asks for strictly
    positive exponents; the solution formula of the telegraph problem needs
    that degenerate instance (the factor collapses to the constant G(g2)).
    """

    a1: float
    b1: float
    g1: float
    a2: float
    g2: float
    a3: float
    b2: float
    d1: float
    a4: float
    d2: float
    b3: float
    d3: float

    def __post_init__(self):
        for name in ("a1", "a3", "a4", "b1", "b2", "b3"):
            if not (getattr(self, name) > 0):
                raise InvalidParams(f"ML2Params.{name} must be > 0")
        if self.a2 < 0:
            raise InvalidParams("ML2Params.a2 must be >= 0")
        d1, d2 = discriminants2(self)
        if not (d1 > 0 and d2 > 0):
            raise InvalidParams(
                f"bivariate series discriminants must be positive, got "
                f"D1 = {d1}, D2 = {d2}"
            )


@dataclass(frozen=True)
class ML3Params:
    """Parameters of the trivariate Mittag-Leffler type function.

    Field order follows the definition: the triple series

        F(x, y, z) = sum_{m,j,k} G(a1 m + b3... )

        term(m, j, k) = G(a1 m + b1 k + d1) G(a2 m + g1 j + d2)
                        * x^m y^j z^k
                        / [G(a3 m + b2 k + d3) G(a4 m + d4) G(a5 m + d5)
                           G(b3 k + d6) G(g2 j + d7) G(g3 j + d8)]

    converges when D1 = a3 + a4 + a5 - a1 - a2, D2 = g2 + g3 - g1 and
    D3 = b2 + b3 - b1 are all positive.
    """

    a1: float
    b1: float
    d1: float
    a2: float
    g1: float
    d2: float
    a3: float
    b2: float
    d3: float
    a4: float
    d4: float
    a5: float
    d5: float
    b3: float
    d6: float
    g2: float
    d7: float
    g3: float
    d8: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "g1", "g2", "g3"):
            if not (getattr(self, name) > 0):
                raise InvalidParams(f"ML3Params.{name} must be > 0")
        d1, d2, d3 = discriminants3(self)
        if not (d1 > 0 and d2 > 0 and d3 > 0):
            raise InvalidParams(
                f"trivariate series discriminants must be positive, got "
                f"D1 = {d1}, D2 = {d2}, D3 = {d3}"
            )


def discriminants2(params: ML2Params) -> tuple:
    """Convergence discriminants (D1, D2) of the bivariate series."""
    return (
        params.a3 + params.a4 - params.a1 - params.a2,
        params.b2 + params.b3 - params.b1,
    )


def discriminants3(params: ML3Params) -> tuple:
    """Convergence discriminants (D1, D2, D3) of the trivariate series."""
    return (
        params.a3 + params.a4 + params.a5 - params.a1 - params.a2,
        params.g2 + params.g3 - params.g1,
        params.b2 + params.b3 - params.b1,
    )


# ---------------------------------------------------------------------------
# Gamma helpers
# ---------------------------------------------------------------------------

def _is_pole(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _lgamma_sign(x: float) -> tuple:
    """(sign, log|Gamma(x)|); sign is 0 at the poles."""
    if _is_pole(x):
        return 0, math.inf
    if x > 0.0:
        return 1, math.lgamma(x)
    # Gamma alternates sign between consecutive negative poles
    sign = 1 if math.floor(x) % 2 == 0 else -1
    return sign, math.lgamma(x)


def rgamma(x: float) -> float:
    """Reciprocal gamma function 1/Gamma(x), exactly 0 at the poles of Gamma.

    Total on the reals: never raises, never overflows (1/Gamma is entire).
    """
    s, la = _lgamma_sign(x)
    if s == 0:
        return 0.0
    if la < -700.0:
        # |Gamma| underflows, reciprocal would overflow; only reachable just
        # left of a pole where 1/Gamma genuinely exceeds float range
        return math.inf if s > 0 else -math.inf
    return s * math.exp(-la)


def pochhammer(g: float, m: int) -> float:
    """Rising factorial (g)_m = g (g+1) ... (g+m-1) by product recurrence."""
    if m < 0:
        raise InvalidParams("pochhammer order m must be >= 0")
    out = 1.0
    for i in range(m):
        out *= g + i
    return out


def _log_abs(v: float) -> tuple:
    """(sign, log|v|) with sign 0 for v == 0."""
    if v == 0.0:
        return 0, -math.inf
    return (1 if v > 0 else -1), math.log(abs(v))


# ---------------------------------------------------------------------------
# Three-parameter Mittag-Leffler function
# ---------------------------------------------------------------------------

def ml_prabhakar(alpha: float, beta: float, gamma: float, z: float,
                 policy: SeriesPolicy = SeriesPolicy()) -> float:
    """Generalized Mittag-Leffler function E^gamma_{alpha,beta}(z).

    Sums sum_m (gamma)_m z^m / (Gamma(alpha m + beta) m!) under the policy.
    alpha must be positive; beta and gamma are unrestricted (a negative
    integer gamma terminates the series, denominator poles contribute 0).
    """
    if not (alpha > 0):
        raise InvalidParams(f"ml_prabhakar requires alpha > 0, got {alpha}")
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("z", z)):
        if not math.isfinite(v):
            raise InvalidParams(f"ml_prabhakar argument {name} must be finite")

    sz, lz = _log_abs(z)
    total = 0.0
    total_abs = 0.0
    small = 0
    overflowed = False
    spoch, lpoch = 1, 0.0  # running sign/log of (gamma)_m
    converged = False
    for m in range(policy.max_terms_per_index):
        if spoch == 0:
            converged = True  # series terminates exactly
            break
        if m > 0 and sz == 0:
            converged = True  # z = 0: only the m = 0 term
            break
        sden, lden = _lgamma_sign(alpha * m + beta)
        if sden == 0:
            term = 0.0
            term_abs = 0.0
        else:
            # m * lz is nan for m = 0, z = 0 (0 * -inf); the power is 1 there
            lt = lpoch + (m * lz if m else 0.0) - lden - math.lgamma(m + 1)
            if lt > 700.0:
                overflowed = True
                break
            term_abs = math.exp(lt)
            term = spoch * sz ** m * sden * term_abs
        total += term
        total_abs += term_abs
        if term_abs <= policy.rel_tol * max(abs(total), _TINY):
            small += 1
            if small >= policy.consecutive_small:
                converged = True
                break
        else:
            small = 0
        f = gamma + m
        sf, lf = _log_abs(f)
        spoch *= sf
        lpoch += lf
    if not converged and not overflowed:
        raise NonConvergence(
            f"ml_prabhakar did not converge within {policy.max_terms_per_index} terms"
        )

    kappa = total_abs / max(abs(total), _TINY)
    if overflowed or kappa > _RESCUE_KAPPA_ML:
        return _mp_ml(alpha, beta, gamma, z, policy, _rescue_dps(kappa, overflowed))
    return total


# ---------------------------------------------------------------------------
# Bivariate series
# ---------------------------------------------------------------------------

def ml2(params: ML2Params, x: float, y: float,
        policy: SeriesPolicy = SeriesPolicy()) -> float:
    """Bivariate Mittag-Leffler type function E2(x, y).

    Double series summed with m outermost and k innermost; each index stops
    after `consecutive_small` negligible contributions relative to its own
    partial sum. Denominator gamma poles zero the term; a numerator gamma at
    a pole raises InvalidParams.
    """
    for name, v in (("x", x), ("y", y)):
        if not math.isfinite(v):
            raise InvalidParams(f"ml2 argument {name} must be finite")
    p = params
    sx, lx = _log_abs(x)
    sy, ly = _log_abs(y)
    _, lg1 = _require_num(p.g1, "g1")
    _, lg2 = _require_num(p.g2, "g2")
    d3_cache = {}  # k -> _lgamma_sign(b3*k + d3), reused across rows

    total = 0.0
    total_abs = 0.0
    small_m = 0
    overflowed = False
    converged = False
    for m in range(policy.max_terms_per_index):
        if m > 0 and sx == 0:
            converged = True
            break
        # factors depending on m only
        sn2, ln2 = _require_num(p.a2 * m + p.g2, "a2*m + g2")
        sd2, ld2 = _lgamma_sign(p.a4 * m + p.d2)
        row = 0.0
        row_abs = 0.0
        small_k = 0
        row_done = False
        for k in range(policy.max_terms_per_index):
            if k > 0 and sy == 0:
                row_done = True
                break
            term = 0.0
            term_abs = 0.0
            if sd2 != 0:
                sn1, ln1 = _require_num(p.a1 * m + p.b1 * k + p.g1, "a1*m + b1*k + g1")
                sd1, ld1 = _lgamma_sign(p.a3 * m + p.b2 * k + p.d1)
                if k not in d3_cache:
                    d3_cache[k] = _lgamma_sign(p.b3 * k + p.d3)
                sd3, ld3 = d3_cache[k]
                if sd1 != 0 and sd3 != 0:
                    lt = (ln1 + ln2 - lg1 - lg2 - ld1 - ld2 - ld3
                          + (m * lx if m else 0.0) + (k * ly if k else 0.0))
                    if lt > 700.0:
                        overflowed = True
                        break
                    term_abs = math.exp(lt)
                    sign = (sn1 * sn2 * sd1 * sd2 * sd3
                            * sx ** m * sy ** k)
                    term = sign * term_abs
            row += term
            row_abs += term_abs
            if term_abs <= policy.rel_tol * max(abs(row), _TINY):
                small_k += 1
                if small_k >= policy.consecutive_small:
                    row_done = True
                    break
            else:
                small_k = 0
        if overflowed:
            break
        if not row_done:
            raise NonConvergence(
                f"ml2 inner index did not converge within {policy.max_terms_per_index} terms"
            )
        total += row
        total_abs += row_abs
        if row_abs <= policy.rel_tol * max(abs(total), _TINY):
            small_m += 1
            if small_m >= policy.consecutive_small:
                converged = True
                break
        else:
            small_m = 0
    if not converged and not overflowed:
        raise NonConvergence(
            f"ml2 outer index did not converge within {policy.max_terms_per_index} terms"
        )

    kappa = total_abs / max(abs(total), _TINY)
    if overflowed or kappa > _RESCUE_KAPPA_ML23:
        return _mp_ml2(params, x, y, policy, _rescue_dps(kappa, overflowed))
    return total


# ---------------------------------------------------------------------------
# Trivariate series
# ---------------------------------------------------------------------------

def ml3(params: ML3Params, x: float, y: float, z: float,
        policy: SeriesPolicy = SeriesPolicy()) -> float:
    """Trivariate Mittag-Leffler type function F(x, y, z).

    Triple series summed with nested loops (m outermost, then j, then k),
    each index with its own early-termination count. Pole conventions as in
    ml2.
    """
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not math.isfinite(v):
            raise InvalidParams(f"ml3 argument {name} must be finite")
    p = params
    sx, lx = _log_abs(x)
    sy, ly = _log_abs(y)
    sz, lz = _log_abs(z)
    d6_cache = {}  # k -> _lgamma_sign(b3*k + d6)
    j_cache = {}  # j -> combined sign/log of the two j-only denominators

    total = 0.0
    total_abs = 0.0
    small_m = 0
    overflowed = False
    converged = False
    for m in range(policy.max_terms_per_index):
        if m > 0 and sx == 0:
            converged = True
            break
        sd4, ld4 = _lgamma_sign(p.a4 * m + p.d4)
        sd5, ld5 = _lgamma_sign(p.a5 * m + p.d5)
        m_zero = sd4 == 0 or sd5 == 0
        k_cache = {}  # k -> combined sign/log of all (m,k) factors, fixed m
        plane = 0.0
        plane_abs = 0.0
        small_j = 0
        plane_done = False
        for j in range(policy.max_terms_per_index):
            if j > 0 and sy == 0:
                plane_done = True
                break
            sn2, ln2 = _require_num(p.a2 * m + p.g1 * j + p.d2, "a2*m + g1*j + d2")
            if j not in j_cache:
                s7, l7 = _lgamma_sign(p.g2 * j + p.d7)
                s8, l8 = _lgamma_sign(p.g3 * j + p.d8)
                j_cache[j] = (s7 * s8, l7 + l8)
            sd78, ld78 = j_cache[j]
            j_zero = m_zero or sd78 == 0
            row = 0.0
            row_abs = 0.0
            small_k = 0
            row_done = False
            for k in range(policy.max_terms_per_index):
                if k > 0 and sz == 0:
                    row_done = True
                    break
                term = 0.0
                term_abs = 0.0
                if not j_zero:
                    if k not in k_cache:
                        sn1, ln1 = _require_num(p.a1 * m + p.b1 * k + p.d1,
                                                "a1*m + b1*k + d1")
                        sd3, ld3 = _lgamma_sign(p.a3 * m + p.b2 * k + p.d3)
                        if k not in d6_cache:
                            d6_cache[k] = _lgamma_sign(p.b3 * k + p.d6)
                        sd6, ld6 = d6_cache[k]
                        k_cache[k] = (
                            sn1 * sd3 * sd6 * sz ** k,
                            ln1 - ld3 - ld6 + (k * lz if k else 0.0),
                        )
                    sk, lk = k_cache[k]
                    if sk != 0:
                        lt = (lk + ln2 - ld4 - ld5 - ld78
                              + (m * lx if m else 0.0) + (j * ly if j else 0.0))
                        if lt > 700.0:
                            overflowed = True
                            break
                        term_abs = math.exp(lt)
                        sign = (sk * sn2 * sd4 * sd5 * sd78
                                * sx ** m * sy ** j)
                        term = sign * term_abs
                row += term
                row_abs += term_abs
                if term_abs <= policy.rel_tol * max(abs(row), _TINY):
                    small_k += 1
                    if small_k >= policy.consecutive_small:
                        row_done = True
                        break
                else:
                    small_k = 0
            if overflowed:
                break
            if not row_done:
                raise NonConvergence(
                    f"ml3 k index did not converge within {policy.max_terms_per_index} terms"
                )
            plane += row
            plane_abs += row_abs
            if row_abs <= policy.rel_tol * max(abs(plane), _TINY):
                small_j += 1
                if small_j >= policy.consecutive_small:
                    plane_done = True
                    break
            else:
                small_j = 0
        if overflowed:
            break
        if not plane_done:
            raise NonConvergence(
                f"ml3 j index did not converge within {policy.max_terms_per_index} terms"
            )
        total += plane
        total_abs += plane_abs
        if plane_abs <= policy.rel_tol * max(abs(total), _TINY):
            small_m += 1
            if small_m >= policy.consecutive_small:
                converged = True
                break
        else:
            small_m = 0
    if not converged and not overflowed:
        raise NonConvergence(
            f"ml3 outer index did not converge within {policy.max_terms_per_index} terms"
        )

    kappa = total_abs / max(abs(total), _TINY)
    if overflowed or kappa > _RESCUE_KAPPA_ML23:
        return _mp_ml3(params, x, y, z, policy, _rescue_dps(kappa, overflowed))
    return total


def _require_num(arg: float, what: str) -> tuple:
    """_lgamma_sign for a numerator gamma; poles are a parameter error."""
    s, la = _lgamma_sign(arg)
    if s == 0:
        raise InvalidParams(f"numerator gamma pole: {what} = {arg}")
    return s, la


# ---------------------------------------------------------------------------
# High-precision rescue for cancelled sums; mpmath is imported here only,
# so a solve that never needs the rescue never loads it
# ---------------------------------------------------------------------------

def _rescue_dps(kappa: float, overflowed: bool) -> int:
    if overflowed or not math.isfinite(kappa):
        return 60
    return min(120, 25 + int(math.log10(max(kappa, 1.0))))


def _mp_pole(arg) -> bool:
    # int() truncates toward zero, which for arg <= 0 matches floor
    # exactly at the integers; it takes floats and mpf alike
    return arg <= 0 and arg == int(arg)


def _mp_gamma_div(num_args, den_args):
    """Product of numerator gammas over denominator gammas in mpf; returns
    None when a denominator pole zeroes the term."""
    import mpmath
    val = mpmath.mpf(1)
    for a in num_args:
        if _mp_pole(a):
            raise InvalidParams(f"numerator gamma pole at {a}")
        val *= mpmath.gamma(a)
    for a in den_args:
        if _mp_pole(a):
            return None
        val /= mpmath.gamma(a)
    return val


def _mp_ml(alpha, beta, gamma, z, policy, dps):
    import mpmath
    with mpmath.workdps(dps):
        a, b, g, zz = (mpmath.mpf(v) for v in (alpha, beta, gamma, z))
        total = mpmath.mpf(0)
        poch = mpmath.mpf(1)
        small = 0
        for m in range(policy.max_terms_per_index):
            if poch == 0 or (m > 0 and zz == 0):
                return float(total)
            darg = a * m + b
            if _mp_pole(darg):
                term = mpmath.mpf(0)
            else:
                term = poch * zz ** m / (mpmath.gamma(darg) * mpmath.factorial(m))
            total += term
            if abs(term) <= policy.rel_tol * max(abs(total), mpmath.mpf(_TINY)):
                small += 1
                if small >= policy.consecutive_small:
                    return float(total)
            else:
                small = 0
            poch *= g + m
    raise NonConvergence(
        f"ml_prabhakar did not converge within {policy.max_terms_per_index} terms"
    )


def _mp_ml2(params, x, y, policy, dps):
    import mpmath
    p = params
    with mpmath.workdps(dps):
        xx, yy = mpmath.mpf(x), mpmath.mpf(y)
        norm = mpmath.gamma(p.g1) * mpmath.gamma(p.g2)
        total = mpmath.mpf(0)
        small_m = 0
        for m in range(policy.max_terms_per_index):
            if m > 0 and xx == 0:
                return float(total)
            row = mpmath.mpf(0)
            small_k = 0
            row_done = False
            for k in range(policy.max_terms_per_index):
                if k > 0 and yy == 0:
                    row_done = True
                    break
                val = _mp_gamma_div(
                    (p.a1 * m + p.b1 * k + p.g1, p.a2 * m + p.g2),
                    (p.a3 * m + p.b2 * k + p.d1, p.a4 * m + p.d2, p.b3 * k + p.d3),
                )
                term = mpmath.mpf(0) if val is None else val / norm * xx ** m * yy ** k
                row += term
                if abs(term) <= policy.rel_tol * max(abs(row), mpmath.mpf(_TINY)):
                    small_k += 1
                    if small_k >= policy.consecutive_small:
                        row_done = True
                        break
                else:
                    small_k = 0
            if not row_done:
                break
            total += row
            if abs(row) <= policy.rel_tol * max(abs(total), mpmath.mpf(_TINY)):
                small_m += 1
                if small_m >= policy.consecutive_small:
                    return float(total)
            else:
                small_m = 0
    raise NonConvergence(
        f"ml2 did not converge within {policy.max_terms_per_index} terms"
    )


def _mp_inner_sum(coef, arg, policy):
    """sum_i coef(i) * arg^i with the policy's early termination.

    coef returns an mpf or None (zeroed term). Used by the ml3 rescue, where
    the j and k sums are independent for fixed m.
    """
    import mpmath
    total = mpmath.mpf(0)
    small = 0
    for i in range(policy.max_terms_per_index):
        if i > 0 and arg == 0:
            return total
        c = coef(i)
        term = mpmath.mpf(0) if c is None else c * arg ** i
        total += term
        if abs(term) <= policy.rel_tol * max(abs(total), mpmath.mpf(_TINY)):
            small += 1
            if small >= policy.consecutive_small:
                return total
        else:
            small = 0
    raise NonConvergence(
        f"ml3 inner index did not converge within {policy.max_terms_per_index} terms"
    )


def _mp_ml3(params, x, y, z, policy, dps):
    import mpmath
    # for fixed m the triple series factorizes into a product of a j-sum and
    # a k-sum, so the rescue costs O(M*(J+K)) gamma evaluations
    p = params
    with mpmath.workdps(dps):
        xx, yy, zz = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(z)
        total = mpmath.mpf(0)
        small_m = 0
        for m in range(policy.max_terms_per_index):
            if m > 0 and xx == 0:
                return float(total)
            mcoef = _mp_gamma_div((), (p.a4 * m + p.d4, p.a5 * m + p.d5))
            if mcoef is None:
                plane = mpmath.mpf(0)
            else:
                jsum = _mp_inner_sum(
                    lambda j: _mp_gamma_div(
                        (p.a2 * m + p.g1 * j + p.d2,),
                        (p.g2 * j + p.d7, p.g3 * j + p.d8),
                    ),
                    yy, policy,
                )
                ksum = _mp_inner_sum(
                    lambda k: _mp_gamma_div(
                        (p.a1 * m + p.b1 * k + p.d1,),
                        (p.a3 * m + p.b2 * k + p.d3, p.b3 * k + p.d6),
                    ),
                    zz, policy,
                )
                plane = mcoef * jsum * ksum * xx ** m
            total += plane
            if abs(plane) <= policy.rel_tol * max(abs(total), mpmath.mpf(_TINY)):
                small_m += 1
                if small_m >= policy.consecutive_small:
                    return float(total)
            else:
                small_m = 0
    raise NonConvergence(
        f"ml3 did not converge within {policy.max_terms_per_index} terms"
    )
