"""Slow, trustworthy reference implementations.

Every fast summation or quadrature path in this package has a partner
here that favours transparency over speed: plain shell-by-shell
summation in mpmath arbitrary precision with an explicit geometric tail
bound, and adaptive-bisection quadrature on an explicitly desingularised
integrand.  Production modules never import this file; tests and the
fixture generator do.  mpmath is imported by the functions that use it,
so reading the stored fixtures (``load_fixtures``) does not load it.

"BigReal" values returned by ``hp_ml``, ``hp_ml2``, ``hp_ml3`` and
``adaptive_quad`` are mpmath.mpf numbers computed at a working precision
of ``dps`` decimal digits (at least 30, default 60).  Summations stop
once a geometric-ratio estimate of the absolute tail drops below
10^(5-dps) on three consecutive shells, keeping truncation error
subdominant to the working precision.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    InvalidParams,
    NonConvergence,
    QuadratureFailure,
)
from .specfun import ML2Params, ML3Params

DEFAULT_DPS = 60
_MIN_DPS = 30
_FIXTURE_SEED = 20260814
_REGEN_COMMAND = "prabtel selftest --regen-fixtures"


def _check_dps(dps: int) -> None:
    if dps < _MIN_DPS:
        raise InvalidParams(
            f"oracle precision must be at least {_MIN_DPS} digits, got {dps}")


def _gamma_num(arg):
    """Gamma for a numerator factor; a pole there is a parameter error."""
    from mpmath import mp

    if arg <= 0 and mp.isint(arg):
        raise InvalidParams(f"gamma pole in numerator at argument {arg}")
    return mp.gamma(arg)


def _tail_done(shell, prev, tol) -> bool:
    """Geometric-ratio tail estimate: shell*r/(1-r) below tol."""
    if shell == 0:
        return True
    if prev is None or prev == 0 or shell >= prev:
        return False
    r = shell / prev
    return shell * r / (1 - r) < tol


def hp_ml(alpha: float, beta: float, gamma: float, z,
          dps: int = DEFAULT_DPS, max_terms: int = 5000):
    """Univariate generalized Mittag-Leffler sum in high precision."""
    from mpmath import mp

    _check_dps(dps)
    if not alpha > 0:
        raise InvalidParams(f"alpha must be positive, got {alpha}")
    with mp.workdps(dps):
        tol = mp.mpf(10) ** -(dps - 5)
        z = mp.mpf(z)
        total = mp.mpf(0)
        zm = mp.mpf(1)
        prev = None
        ok = 0
        for m in range(max_terms):
            term = mp.rf(gamma, m) * zm / mp.factorial(m) \
                * mp.rgamma(alpha * m + beta)
            total += term
            shell = abs(term)
            # poles of the denominator gamma zero out early terms; do not
            # let those transient zeros end the sum
            if alpha * m + beta > 1 and _tail_done(shell, prev, tol):
                ok += 1
            else:
                ok = 0
            if ok >= 3:
                return total
            if shell != 0:
                prev = shell
            zm *= z
        raise NonConvergence(f"hp_ml did not converge in {max_terms} terms")


def hp_ml2(params: ML2Params, x, y,
           dps: int = DEFAULT_DPS, max_shells: int = 900):
    """Bivariate Mittag-Leffler type sum by total-degree shells."""
    from mpmath import mp

    _check_dps(dps)
    p = params
    with mp.workdps(dps):
        tol = mp.mpf(10) ** -(dps - 5)
        x = mp.mpf(x)
        y = mp.mpf(y)
        pref = mp.rgamma(p.g1) * mp.rgamma(p.g2)
        xs = [mp.mpf(1)]
        ys = [mp.mpf(1)]
        total = mp.mpf(0)
        prev = None
        ok = 0
        seen_nonzero = False
        for n in range(max_shells):
            xs.append(xs[-1] * x)
            ys.append(ys[-1] * y)
            shell = mp.mpf(0)
            for m in range(n + 1):
                k = n - m
                term = (pref
                        * _gamma_num(p.a1 * m + p.b1 * k + p.g1)
                        * _gamma_num(p.a2 * m + p.g2)
                        * mp.rgamma(p.a3 * m + p.b2 * k + p.d1)
                        * xs[m] * mp.rgamma(p.a4 * m + p.d2)
                        * ys[k] * mp.rgamma(p.b3 * k + p.d3))
                total += term
                shell += abs(term)
            if shell != 0:
                seen_nonzero = True
            if seen_nonzero and n >= 3 and _tail_done(shell, prev, tol):
                ok += 1
            else:
                ok = 0
            if ok >= 3:
                return total
            if shell != 0:
                prev = shell
        raise NonConvergence(
            f"hp_ml2 did not converge in {max_shells} shells")


def hp_ml3(params: ML3Params, x, y, z,
           dps: int = DEFAULT_DPS, max_shells: int = 400):
    """Trivariate Mittag-Leffler type sum by total-degree shells.

    Single-index gamma factors are cached per index and the two-index
    numerator/denominator factors per index pair; the summation order
    (plain shells) stays independent of the production evaluator.
    """
    from mpmath import mp

    _check_dps(dps)
    p = params
    with mp.workdps(dps):
        tol = mp.mpf(10) ** -(dps - 5)
        x = mp.mpf(x)
        y = mp.mpf(y)
        z = mp.mpf(z)
        xs = [mp.mpf(1)]
        ys = [mp.mpf(1)]
        zs = [mp.mpf(1)]
        num_mk: dict = {}
        num_mj: dict = {}
        den_mk: dict = {}
        fac_m: list = []
        fac_j: list = []
        fac_k: list = []
        total = mp.mpf(0)
        prev = None
        ok = 0
        seen_nonzero = False
        for n in range(max_shells):
            xs.append(xs[-1] * x)
            ys.append(ys[-1] * y)
            zs.append(zs[-1] * z)
            fac_m.append(mp.rgamma(p.a4 * n + p.d4)
                         * mp.rgamma(p.a5 * n + p.d5))
            fac_j.append(mp.rgamma(p.g2 * n + p.d7)
                         * mp.rgamma(p.g3 * n + p.d8))
            fac_k.append(mp.rgamma(p.b3 * n + p.d6))
            shell = mp.mpf(0)
            for m in range(n + 1):
                xm = xs[m] * fac_m[m]
                if xm == 0:
                    continue
                for j in range(n + 1 - m):
                    k = n - m - j
                    g1 = num_mk.get((m, k))
                    if g1 is None:
                        g1 = _gamma_num(p.a1 * m + p.b1 * k + p.d1)
                        num_mk[(m, k)] = g1
                    g2 = num_mj.get((m, j))
                    if g2 is None:
                        g2 = _gamma_num(p.a2 * m + p.g1 * j + p.d2)
                        num_mj[(m, j)] = g2
                    g3 = den_mk.get((m, k))
                    if g3 is None:
                        g3 = mp.rgamma(p.a3 * m + p.b2 * k + p.d3)
                        den_mk[(m, k)] = g3
                    term = (g1 * g2 * g3 * xm
                            * ys[j] * fac_j[j]
                            * zs[k] * fac_k[k])
                    total += term
                    shell += abs(term)
            if shell != 0:
                seen_nonzero = True
            if seen_nonzero and n >= 3 and _tail_done(shell, prev, tol):
                ok += 1
            else:
                ok = 0
            if ok >= 3:
                return total
            if shell != 0:
                prev = shell
        raise NonConvergence(
            f"hp_ml3 did not converge in {max_shells} shells")


_GL_DEGREE = 20
_gl_cache = None


def _gl_rule():
    global _gl_cache
    if _gl_cache is None:
        _gl_cache = np.polynomial.legendre.leggauss(_GL_DEGREE)
    return _gl_cache


def _panel(g, lo, hi, nodes, weights):
    from mpmath import mp

    c = (lo + hi) / 2
    h = (hi - lo) / 2
    return h * mp.fsum(w * g(c + h * t) for t, w in zip(nodes, weights))


def adaptive_quad(f, a, b, weight_exponent: float,
                  tol: float = 1e-12, dps: int = DEFAULT_DPS,
                  max_depth: int = 32):
    """Reference value of the weighted integral of f over [a, b].

    Computes the integral of (s - a)^weight_exponent * f(s).  The power
    singularity at the left endpoint is removed exactly by the
    substitution v = (s - a)^(1 + weight_exponent) before an adaptive
    bisection with Gauss-Legendre panels is applied.
    """
    from mpmath import mp

    _check_dps(dps)
    mu = weight_exponent
    if not mu > -1:
        raise DomainError(f"weight exponent must exceed -1, got {mu}")
    if not b > a:
        raise DomainError(f"empty integration interval [{a}, {b}]")
    raw_nodes, raw_weights = _gl_rule()
    with mp.workdps(dps):
        nodes = [mp.mpf(v) for v in raw_nodes]
        weights = [mp.mpf(v) for v in raw_weights]
        a_mp = mp.mpf(a)
        tol_mp = mp.mpf(tol)
        if mu == 0:
            lo, hi = a_mp, mp.mpf(b)
            g = lambda s: mp.mpf(f(s))
        else:
            c = mp.mpf(mu) + 1
            lo, hi = mp.mpf(0), (mp.mpf(b) - a_mp) ** c
            g = lambda v: mp.mpf(f(a_mp + v ** (1 / c))) / c

        def bisect(left, right, budget, depth):
            whole = _panel(g, left, right, nodes, weights)
            mid = (left + right) / 2
            fine = (_panel(g, left, mid, nodes, weights)
                    + _panel(g, mid, right, nodes, weights))
            if abs(whole - fine) <= budget:
                return fine
            if depth >= max_depth:
                raise QuadratureFailure(
                    f"adaptive bisection stalled on [{float(left)}, "
                    f"{float(right)}] with error estimate "
                    f"{float(abs(whole - fine))}")
            return (bisect(left, mid, budget / 2, depth + 1)
                    + bisect(mid, right, budget / 2, depth + 1))

        return bisect(lo, hi, tol_mp, 0)


def classical_telegraph_fd(coeffs, domain, phi, tau, f, n: int) -> np.ndarray:
    """Second-order box-scheme solution of u_tx - a u_x - b u_t = f.

    Goursat data: u(t, 0) = phi(t), u(0, x) = tau(x).  ``coeffs`` needs
    attributes ``a`` and ``b``; ``domain`` needs ``q`` and ``p``.  The
    returned array U has shape (n+1, n+1) with U[i, j] = u(t_i, x_j) on
    the uniform grid.
    """
    if n < 1:
        raise InvalidParams(f"grid size must be at least 1, got {n}")
    a = float(coeffs.a)
    b = float(coeffs.b)
    q = float(domain.q)
    p = float(domain.p)
    k = q / n
    h = p / n
    a0 = 1.0 / (k * h)
    ax = a / (2.0 * h)
    bt = b / (2.0 * k)
    den = a0 - ax - bt
    if not math.isfinite(den) or abs(den) < 1e-300:
        raise InvalidParams("degenerate box-scheme step")
    u = np.empty((n + 1, n + 1))
    u[0, :] = [float(tau(j * h)) for j in range(n + 1)]
    u[:, 0] = [float(phi(i * k)) for i in range(n + 1)]
    for i in range(n):
        tc = (i + 0.5) * k
        for j in range(n):
            fc = float(f(tc, (j + 0.5) * h))
            u[i + 1, j + 1] = (fc
                               + u[i + 1, j] * (a0 - ax + bt)
                               + u[i, j + 1] * (a0 + ax - bt)
                               - u[i, j] * (a0 + ax + bt)) / den
    return u


def fixtures_path() -> Path:
    return Path(__file__).parent / "_fixtures" / "oracle_fixtures.json"


def load_fixtures(path: Path | None = None) -> dict:
    with open(path or fixtures_path()) as fh:
        return json.load(fh)


def _mlstr(value) -> str:
    from mpmath import mp

    return mp.nstr(value, 36)


# discriminants below ~0.4 make total-degree shells decay only after
# thousands of terms at |args| = 3; fixtures sample the comfortable regime
_MIN_DISCRIMINANT = 0.4


def _draw_ml2(rng: random.Random) -> ML2Params:
    while True:
        a1, b1, a3, b2, a4, b3 = (rng.uniform(0.3, 1.8) for _ in range(6))
        a2 = 0.0 if rng.random() < 0.5 else rng.uniform(0.3, 1.2)
        if (a3 + a4 - a1 - a2 < _MIN_DISCRIMINANT
                or b2 + b3 - b1 < _MIN_DISCRIMINANT):
            continue
        g1, g2, d1, d2, d3 = (rng.uniform(0.2, 2.2) for _ in range(5))
        return ML2Params(a1, b1, g1, a2, g2, a3, b2, d1, a4, d2, b3, d3)


_PROBE_DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                     (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5),
                     (1 / 3, 1 / 3, 1 / 3), (0.7, 0.2, 0.1),
                     (0.2, 0.7, 0.1), (0.1, 0.2, 0.7))


def _ml3_turnover_estimate(p: ML3Params, x: float, y: float,
                           z: float) -> float:
    """Stirling estimate of the total-degree shell where terms peak.

    Along direction (t1, t2, t3) the shell-n term magnitude behaves like
    exp(-d n log n + c n); the peak sits near exp(c / d).  Draws whose worst
    direction peaks late would need thousands of shells to reach the tail.
    """
    logs = (math.log(max(abs(x), 1e-300)),
            math.log(max(abs(y), 1e-300)),
            math.log(max(abs(z), 1e-300)))
    worst = 0.0
    for t1, t2, t3 in _PROBE_DIRECTIONS:
        num = (p.a1 * t1 + p.b1 * t3, p.a2 * t1 + p.g1 * t2)
        den = (p.a3 * t1 + p.b2 * t3, p.a4 * t1, p.a5 * t1,
               p.b3 * t3, p.g2 * t2, p.g3 * t2)
        d = sum(den) - sum(num)
        if d <= 0.0:
            return math.inf
        c = d + t1 * logs[0] + t2 * logs[1] + t3 * logs[2]
        c += sum(v * math.log(v) for v in num if v > 0.0)
        c -= sum(v * math.log(v) for v in den if v > 0.0)
        worst = max(worst, math.exp(c / d))
    return worst


def _draw_ml3(rng: random.Random) -> tuple[ML3Params, float, float, float]:
    while True:
        a1, a2, a3, a4, a5 = (rng.uniform(0.3, 1.5) for _ in range(5))
        b1, b2, b3 = (rng.uniform(0.3, 1.5) for _ in range(3))
        g1, g2, g3 = (rng.uniform(0.3, 1.5) for _ in range(3))
        if (a3 + a4 + a5 - a1 - a2 < _MIN_DISCRIMINANT
                or g2 + g3 - g1 < _MIN_DISCRIMINANT
                or b2 + b3 - b1 < _MIN_DISCRIMINANT):
            continue
        d = [rng.uniform(0.2, 2.0) for _ in range(8)]
        p = ML3Params(a1, b1, d[0], a2, g1, d[1], a3, b2, d[2],
                      a4, d[3], a5, d[4], b3, d[5], g2, d[6], g3, d[7])
        x = rng.uniform(-3.0, 1.0)
        y = rng.uniform(-3.0, 1.0)
        z = rng.uniform(-3.0, 1.0)
        if _ml3_turnover_estimate(p, x, y, z) <= 120.0:
            return p, x, y, z


def _tele_ml2(alpha: float, beta: float, gamma: float) -> ML2Params:
    return ML2Params(gamma, 1.0, gamma, 0.0, 1.0,
                     beta, alpha, beta + 1.0, gamma, gamma, 1.0, 1.0)


def _tele_ml3(variant: str, alpha: float, beta: float,
              gamma: float) -> ML3Params:
    d2 = 1.0 if variant == "V4" else 2.0
    d3 = beta if variant in ("V3", "V4") else beta + 1.0
    d5 = 2.0 if variant in ("V1", "V3") else 1.0
    d8 = 2.0 if variant in ("V2", "V3") else 1.0
    return ML3Params(gamma, 1.0, gamma,
                     1.0, 1.0, d2,
                     beta, alpha, d3,
                     gamma, gamma,
                     1.0, d5,
                     1.0, 1.0,
                     1.0, 1.0,
                     1.0, d8)


def generate_fixtures(path: Path | None = None,
                      dps: int = DEFAULT_DPS) -> dict:
    """Regenerate every stored oracle value; returns the fixture dict.

    Writes JSON to ``path`` (default: the packaged fixture file) so the
    stored references stay reproducible from one seeded command.
    """
    from mpmath import mp

    rng = random.Random(_FIXTURE_SEED)
    out: dict = {
        "meta": {
            "command": _REGEN_COMMAND,
            "seed": _FIXTURE_SEED,
            "dps": dps,
            "digits_stored": 36,
        },
        "ml2": [],
        "ml3": [],
        "prabhakar": [],
    }

    for _ in range(100):
        p = _draw_ml2(rng)
        x = rng.uniform(-3.0, 1.0)
        y = rng.uniform(-3.0, 1.0)
        out["ml2"].append({"params": asdict(p), "x": x, "y": y,
                           "value": _mlstr(hp_ml2(p, x, y, dps=dps))})
    for _ in range(20):
        alpha = rng.uniform(0.5, 1.0)
        beta = rng.uniform(0.3, 0.95)
        gamma = rng.uniform(0.15, beta)
        t = rng.uniform(0.1, 1.0)
        a = rng.uniform(-2.0, -0.1)
        delta = rng.uniform(-2.0, -0.05)
        p = _tele_ml2(alpha, beta, gamma)
        x = a * t ** beta
        y = delta * t ** alpha
        out["ml2"].append({"params": asdict(p), "x": x, "y": y,
                           "value": _mlstr(hp_ml2(p, x, y, dps=dps))})

    kept = 0
    while kept < 76:
        p, x, y, z = _draw_ml3(rng)
        try:
            value = hp_ml3(p, x, y, z, dps=dps)
        except NonConvergence:
            continue
        out["ml3"].append({"params": asdict(p), "x": x, "y": y, "z": z,
                           "value": _mlstr(value)})
        kept += 1
    for variant in ("V1", "V2", "V3", "V4"):
        for _ in range(6):
            alpha = rng.uniform(0.5, 1.0)
            beta = rng.uniform(0.4, 0.9)
            gamma = rng.uniform(0.15, beta)
            t = rng.uniform(0.1, 1.0)
            a = rng.uniform(-1.5, -0.1)
            b = rng.uniform(-1.5, -0.1)
            delta = rng.uniform(-1.5, -0.05)
            p = _tele_ml3(variant, alpha, beta, gamma)
            x = a * t ** beta
            y = b * rng.uniform(0.1, 1.0)
            z = delta * t ** alpha
            out["ml3"].append({"params": asdict(p), "x": x, "y": y, "z": z,
                               "value": _mlstr(hp_ml3(p, x, y, z, dps=dps))})

    for _ in range(12):
        alpha = rng.uniform(0.4, 1.6)
        beta = rng.uniform(0.2, 1.8)
        gamma = rng.uniform(-1.0, 1.5)
        delta = rng.uniform(-2.0, 0.5)
        t = rng.uniform(0.2, 1.5)
        with mp.workdps(dps):
            val = mp.mpf(t) ** beta * hp_ml(
                alpha, beta + 1.0, gamma, delta * mp.mpf(t) ** alpha, dps=dps)
        out["prabhakar"].append({
            "alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta,
            "t": t, "integral_of_one": _mlstr(val)})

    target = Path(path) if path is not None else fixtures_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    tmp.replace(target)
    return out
