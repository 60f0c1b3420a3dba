"""Mittag-Leffler type functions by controlled series summation.

Implements the three-parameter (Prabhakar) Mittag-Leffler function and the
bivariate and trivariate Mittag-Leffler type functions that appear in the
closed-form solution of the fractional telegraph problem. All three are
entire functions defined by gamma-ratio power series; the discriminants
recorded on the parameter types are the standard convergence conditions.

Numerical strategy. The three series, and the tensors of ``TeleEngine``
in ``goursat``, are one separable form

    S = sum_m x^m [sum_k K(m, k) z^k] [sum_j J(m, j) y^j]

with K and J gamma ratios of arguments linear in the indices
(``GammaRatio``): ``ml3`` is the full form, ``ml2`` has no j-sum and
``ml_prabhakar`` neither inner sum.

- ``SeriesTensors`` builds K x^m z^k and J y^j in signed logs from one
  log-gamma grid per argument form (``math.lgamma`` and G(a + 1) =
  a G(a); no scipy). Each ratio keeps its log tensor, and the grids and
  tensors grow in place: larger caps compute only the new rows and
  columns. A running sum restarts at each block a grid grows by, so
  the entries depend on the cap schedule in their last bits. Denominator
  poles give exact zeros; numerator poles raise InvalidParams.
- ``_fit_caps``: the caps (m, j, k) start at (24, 16, 16) and double while
  the last ``_CONSECUTIVE_SMALL`` (3) rows of any index carry more
  positive-majorant mass than a limit: rel_tol * |sum| for a value here,
  1e-15 * majorant for the engine (``fit_tensors``). Each doubling reads
  slices of the kept tensors, so a build costs the new entries and its
  scaling. A value sums every term within the caps in float64, each
  scaled by the largest term. The engine then trims the doubled caps to
  the smallest whose left-out tails carry at most its limit together
  (suffix sums, as ``_rectangle`` reads them for the rescue) and slices
  its tensors to them, so that every contraction of a solve pays only
  for the terms it needs; a rebuild at the trimmed caps would not give
  the same entries.
- Rescue: when majorant / |sum| is more than float64 can hold to rel_tol,
  or a term is beyond float64 range, ``_mp_sum`` re-sums the smallest
  rectangle that the majorant's suffix sums allow, at a precision taken
  from that ratio: mpmath gammas for the terms of largest majorant share,
  float64 values for those that ``_split`` finds float64 can carry.
  ``_series_value`` widens the rectangle, raises the precision or moves
  terms to mpmath until the mpmath |sum| asks for no more. mpmath is
  imported there only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, InvalidParams, NonConvergence

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

# a cap stops doubling once this many trailing rows of its index carry
# mass below the tail limit
_CONSECUTIVE_SMALL = 3


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy shared by all series evaluators.

    - rel_tol: the target relative accuracy of a value of ``ml_prabhakar``,
      ``ml2`` or ``ml3``. It is the tail limit (the majorant mass left out
      along each index is at most rel_tol * |sum|) and it sets when and at
      what precision the mpmath rescue runs, and which of its terms may
      keep their float64 values. Below 1e-12 a value is only
      as accurate as rounding allows at a cancellation ratio of 1e3: about
      1e-12 relative at worst. ``TeleEngine`` serves many arguments from
      one set of tensors and uses the fixed limit 1e-15 * majorant.
    - max_terms_per_index: the largest cap of any index; a tail still above
      the limit at this cap raises NonConvergence.

    Both fields also truncate the kernel series of
    ``fracops.kernel_cell_moments``: it stops once ``_CONSECUTIVE_SMALL``
    terms in a row are below rel_tol of the moments, and raises
    NonConvergence after max_terms_per_index terms.  Those moments are
    verify's slope weights (``fracops._slope_weights``,
    ``_fractional_rows``), so both fields move the ``pde`` residual.

    A cap stops doubling once the last ``_CONSECUTIVE_SMALL`` rows of its
    index carry mass below the limit, in the values and in the engine
    alike.
    """

    rel_tol: float = 1e-12
    max_terms_per_index: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise InvalidParams("rel_tol must be > 0")
        if self.max_terms_per_index < 1:
            raise InvalidParams("max_terms_per_index must be >= 1")


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

def rgamma(x: float) -> float:
    """Reciprocal gamma function 1/Gamma(x), exactly 0 at the poles of Gamma.

    Total on the reals: never raises, never overflows (1/Gamma is entire).
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    # Gamma alternates sign between consecutive negative poles
    s = 1.0 if x > 0.0 or math.floor(x) % 2 == 0 else -1.0
    la = math.lgamma(x)
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


# ---------------------------------------------------------------------------
# Separable series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaRatio:
    """prod Gamma(num) / prod Gamma(den). Each argument is a form
    (c_m, c_i, s) for Gamma(c_m m + c_i i + s), i the inner index."""

    num: tuple = ()
    den: tuple = ()


def _args(form: tuple, m: range, i: range) -> np.ndarray:
    """Gamma arguments c_m m + c_i i + s of a form on the index ranges."""
    cm, ci, s = form
    m, i = np.arange(m.start, m.stop), np.arange(i.start, i.stop)
    return (cm * m + s)[:, None] + ci * i


def _low(form: tuple, m: range, i: range) -> float:
    """The least of ``_args`` on non-empty ranges, rounded as it rounds
    (a corner: rounding keeps the order)."""
    cm, ci, s = form
    return ((min(cm * m.start, cm * (m.stop - 1)) + s)
            + min(ci * i.start, ci * (i.stop - 1)))


def _gamma_sign(args: np.ndarray) -> np.ndarray:
    """Sign of Gamma on an array, 0 at the poles."""
    # Gamma is negative on (-1, 0), (-3, -2), ...
    sign = np.where((args < 0.0) & (np.floor(args) % 2 == 1), -1.0, 1.0)
    sign[(args <= 0.0) & (args == np.floor(args))] = 0.0
    return sign


def _lgamma(args: list, low: float) -> np.ndarray:
    """log|Gamma| of a list of arguments whose least is low, as a 1-D
    array; inf at the poles."""
    if low <= 0.0:
        a = np.array(args)
        pole = (a <= 0.0) & (a == np.floor(a))
        args = np.where(pole, 1.0, a).tolist()
    log = np.fromiter(map(math.lgamma, args), float, len(args))
    if low <= 0.0:
        log[pole] = math.inf
    return log


def _log_powers(v: float, i: range, signs: bool) -> tuple:
    """(sign, log|v|^i) of v^i at the indices i, with v^0 = 1 also at v = 0;
    sign None unless ``signs``."""
    i = np.arange(i.start, i.stop)
    if v == 0.0:
        return ((i == 0) * 1.0 if signs else None), np.where(i == 0, 0.0, -math.inf)
    sign = (None if not signs else np.ones(i.size) if v > 0.0
            else np.where(i & 1, -1.0, 1.0))
    return sign, i * math.log(abs(v))


_EMPTY = np.empty((0, 0))


class _Term:
    """ratio * u^m w^i of one GammaRatio in signed logs, kept on the
    largest (m, i) asked for so far.

    Its factors are sorted once into those of m alone (``row``), of i
    alone or of neither (``col``) and of both (``full``), each with a
    flag for an argument that may be nonpositive. Each part sums its
    factors in the order of the ratio's forms, numerators first; an entry
    is (row + col) + full, its sign the product of theirs.
    """

    def __init__(self, ratio: GammaRatio, u: float, w: float):
        self.u, self.w = u, w
        self.forms = ([(f, True) for f in ratio.num]
                      + [(f, False) for f in ratio.den])
        parts = {"row": [], "col": [], "full": []}
        for f, up in self.forms:
            key = "col" if not f[0] else "row" if not f[1] else "full"
            parts[key].append((f, up, min(f) < 0.0 or f[2] <= 0.0))
        self.row, self.col, self.full = parts["row"], parts["col"], parts["full"]
        # numerators that may meet a pole
        self.poles = [f for f, up, signed in self.row + self.col + self.full
                      if up and signed]
        # every sign +1 where the log is finite (v^i at v = 0 has sign 0
        # only where its log is -inf): no signs are kept
        self.positive = u >= 0.0 and w >= 0.0 and not any(
            signed for *_, signed in self.row + self.col + self.full)
        # (sign, log) of the row part (m, 1) and of the col part (1, i);
        # the logs of the entries, and the sign of their full part if a
        # factor of both indices may be negative
        self.rows = (_EMPTY.reshape(0, 1), _EMPTY.reshape(0, 1))
        self.cols = (_EMPTY.reshape(1, 0), _EMPTY.reshape(1, 0))
        self.log = _EMPTY
        self.fsign = _EMPTY if any(signed for *_, signed in self.full) else None


class SeriesTensors:
    """K(m, k) x^m z^k and J(m, j) y^j of separable series, in signed logs.

    ``k_ratios`` and ``j_ratios`` map names to GammaRatio. Each ratio
    keeps its log tensor, and larger caps add only its new rows and
    columns (``_extend``); ``logs`` returns slices of the kept tensors.
    Each argument form has one log|Gamma| grid that grows the same way.
    Positive arguments use G(a + 1) = a G(a): a form one above another
    form is that form's grid plus log(a - 1), and a form with unit step
    along an index a running sum of log(a) along it. Other entries take
    one ``math.lgamma`` call each.
    """

    def __init__(self, k_ratios: dict, j_ratios: dict,
                 x: float, y: float, z: float):
        self.k_ratios, self.j_ratios = k_ratios, j_ratios
        self.args = (x, y, z)
        self._grids = {}
        self._k = {name: _Term(r, x, z) for name, r in k_ratios.items()}
        self._j = {name: _Term(r, 1.0, y) for name, r in j_ratios.items()}

    def _log_gamma(self, form: tuple, m: range, i: range) -> np.ndarray:
        """log|Gamma| of a form on the index ranges."""
        cm, ci, s = form
        low = _low(form, m, i)
        if not (cm and ci):
            # one index: the arguments in floats, rounded as _args rounds them
            args = [cm * a + s for a in m] if cm else [ci * b + s for b in i]
            return _lgamma(args, low).reshape(len(m), len(i))
        a = _args(form, m, i)
        if low > 0.0:
            below = next((g for (bm, bi, bs), g in self._grids.items()
                          if (bm, bi) == (cm, ci) and abs(s - bs - 1.0) < 1e-12
                          and g.shape[0] >= m.stop and g.shape[1] >= i.stop),
                         None)
            if below is not None and low > 1.0:
                return below[m.start:m.stop, i.start:i.stop] + np.log(a - 1.0)
            if ci == 1.0 or cm == 1.0:
                first = a[:, :1] if ci == 1.0 else a[:1]
                log = np.log(a)
                return (np.cumsum(log, axis=int(ci == 1.0)) - log
                        + _lgamma(first.ravel().tolist(), low).reshape(first.shape))
        return _lgamma(a.ravel().tolist(), low).reshape(a.shape)

    def _grow(self, form: tuple, m_n: int, i_n: int) -> None:
        """Grow the form's grid to (m_n, i_n), 1 along an index it does not
        read: the new rows, then the new columns of the old rows."""
        m_n, i_n = (m_n if form[0] else 1), (i_n if form[1] else 1)
        grid = self._grids.get(form, _EMPTY)
        m0, i0 = grid.shape
        if m0 >= m_n and i0 >= i_n:
            return
        m1, i1 = max(m_n, m0), max(i_n, i0)
        if not grid.size:
            self._grids[form] = self._log_gamma(form, range(m1), range(i1))
            return
        old, grid = grid, np.empty((m1, i1))
        grid[:m0, :i0] = old
        for rows, cols in ((range(m0, m1), range(i1)), (range(m0), range(i0, i1))):
            if rows and cols:
                grid[rows.start:rows.stop, cols.start:cols.stop] = (
                    self._log_gamma(form, rows, cols))
        self._grids[form] = grid

    def _fold(self, forms: list, sign, log, m: range, i: range) -> tuple:
        """(sign, log) times the gammas of the forms (numerators) or over
        them (denominators) on the block m x i of their grids; a sign of
        None is not kept."""
        for form, up, signed in forms:
            rows, cols = (m if form[0] else range(1)), (i if form[1] else range(1))
            lg = self._grids[form][rows.start:rows.stop, cols.start:cols.stop]
            if signed and sign is not None and _low(form, rows, cols) <= 0.0:
                sign = sign * _gamma_sign(_args(form, rows, cols))
            log = log + lg if up else log - lg
        return sign, log

    def _part(self, forms: list, v: float, signs: bool, old: tuple,
              new: range, axis: int) -> tuple:
        """The (sign, log) part ``old`` of one index (axis 0: m, shape
        (n, 1); axis 1: i, shape (1, n)) of a term, extended by its new
        indices: v^idx times the gammas of its forms; signs kept if
        ``signs``."""
        sign, log = _log_powers(v, new, signs)
        shape, block = (((-1, 1), (new, range(1))) if axis == 0
                        else ((1, -1), (range(1), new)))
        sign, log = self._fold(forms, None if sign is None else sign.reshape(shape),
                               log.reshape(shape), *block)
        return (old[0] if sign is None else np.concatenate((old[0], sign), axis),
                np.concatenate((old[1], log), axis))

    def _extend(self, term: _Term, shape: tuple) -> None:
        """Grow a term's tensor to cover shape (m, i): the grids of its
        forms in their order, then the row part of the new m, the col part
        of the new i, and the entries of the new rows and of the new
        columns of the old rows."""
        m0, i0 = term.log.shape
        m1, i1 = max(shape[0], m0), max(shape[1], i0)
        for form, _ in term.forms:
            self._grow(form, m1, i1)
        for form in term.poles:
            rows, cols = range(m1 if form[0] else 1), range(i1 if form[1] else 1)
            if _low(form, rows, cols) <= 0.0 and not np.all(
                    _gamma_sign(_args(form, rows, cols))):
                raise InvalidParams(
                    f"numerator gamma pole: Gamma({form[0]} m + {form[1]} i "
                    f"+ {form[2]}) for some m, i >= 0")
        new_m, new_i, signs = range(m0, m1), range(i0, i1), not term.positive
        if new_m:
            term.rows = self._part(term.row, term.u, signs, term.rows, new_m, 0)
        if new_i:
            term.cols = self._part(term.col, term.w, signs, term.cols, new_i, 1)
        rl, cl = term.rows[1], term.cols[1]
        log, fsign = np.empty((m1, i1)), term.fsign
        log[:m0, :i0] = term.log
        if fsign is not None:
            fsign = np.empty((m1, i1))
            fsign[:m0, :i0] = term.fsign
        for m, i in ((new_m, range(i1)), (range(m0), new_i)):
            if m and i:
                fs, fl = self._fold(term.full, 1.0, 0.0, m, i)
                block = slice(m.start, m.stop), slice(i.start, i.stop)
                log[block] = rl[block[0]] + cl[:, block[1]] + fl
                if fsign is not None:
                    fsign[block] = fs
        term.log, term.fsign = log, fsign

    def logs(self, caps: tuple) -> tuple:
        """({name: (sign, log)} of K, the same of J) at caps (m, j, k):
        slices of the kept tensors, extended first where caps are new.
        The sign is None for a term of no negative factor."""
        out = []
        for terms, (m, i) in ((self._k, (caps[0], caps[2])), (self._j, caps[:2])):
            part = {}
            for name, term in terms.items():
                if term.log.shape[0] < m or term.log.shape[1] < i:
                    self._extend(term, (m, i))
                sign = None
                if not term.positive:
                    sign = term.rows[0][:m] * term.cols[0][:, :i]
                    if term.fsign is not None:
                        sign = sign * term.fsign[:m, :i]
                part[name] = sign, term.log[:m, :i]
            out.append(part)
        return tuple(out)


def _signed(sign, values: np.ndarray) -> np.ndarray:
    """values times a ``logs`` sign (None: all +1), in place."""
    if sign is not None:
        values *= sign
    return values


def _fit_caps(build, caps: tuple, growable: tuple, policy: SeriesPolicy) -> tuple:
    """Double caps (m, j, k) until every tail is below a limit.

    ``build(caps)`` returns (kmaj, jmaj, sk, sj, limit, ...): positive
    (m, k) and (m, j) majorants, their row sums and the limit. A growable
    index is done when its last ``_CONSECUTIVE_SMALL`` rows carry at most
    ``limit`` of majorant mass. Returns the caps and the last build.
    """
    n, top = _CONSECUTIVE_SMALL, policy.max_terms_per_index
    caps = tuple(min(c, top) for c in caps)
    while True:
        out = build(caps)
        kmaj, jmaj, sk, sj, limit = out[:5]
        # the tails of the growable indices only
        bad = (growable[0] and float(sk[-n:] @ sj[-n:]) > limit,
               growable[1] and float(sk @ jmaj[:, -n:].sum(axis=1)) > limit,
               growable[2] and float(kmaj[:, -n:].sum(axis=1) @ sj) > limit)
        if not any(bad):
            return caps, out
        if not any(b and c < top for b, c in zip(bad, caps)):
            raise NonConvergence(
                f"series still carries mass at caps (m, j, k) = {caps}")
        caps = tuple(min(2 * c, top) if b else c for b, c in zip(bad, caps))


def fit_tensors(tensors: SeriesTensors, policy: SeriesPolicy) -> tuple:
    """(caps, {name: K}, {name: J}) for an evaluator of many arguments:
    the majorant is the entrywise maximum over the K and over the J
    tensors, and the limit 1e-15 times its total mass. Each cap doubling
    extends the kept tensors of ``tensors`` by their new rows and columns
    and reads them whole. The doubled caps are then trimmed to the
    smallest extents whose left-out majorant mass along each index is at
    most a third of the limit (``_rectangle``), so the three tails carry
    at most the limit together, and the tensors are sliced to them: every
    kept entry is the doubling fit's, bit for bit. A mass that overflows
    raises ArgumentOutOfRange."""
    def build(caps):
        k, j = tensors.logs(caps)
        with np.errstate(over="ignore"):
            kmaj, jmaj = (np.exp(np.maximum.reduce(
                [lg for _, lg in t.values()])) for t in (k, j))
            sk, sj = kmaj.sum(axis=1), jmaj.sum(axis=1)
            mass = float(sk @ sj)
        if not math.isfinite(mass):
            raise ArgumentOutOfRange(f"series majorant overflows at {caps}")
        return kmaj, jmaj, sk, sj, 1e-15 * (mass + 1e-300), k, j

    _, (kmaj, jmaj, _, _, limit, k, j) = _fit_caps(
        build, _START_CAPS, (True, True, True), policy)
    caps = _rectangle(kmaj, jmaj, limit / 3.0)
    k, j = ({name: np.ascontiguousarray(_signed(s, np.exp(lg))[:caps[0], :c])
             for name, (s, lg) in t.items()}
            for t, c in ((k, caps[2]), (j, caps[1])))
    return caps, k, j


def _rectangle(k: np.ndarray, j: np.ndarray, limit: float) -> tuple:
    """Smallest extents (m, j, k) whose left-out majorant mass along each
    index is at most limit (from suffix sums)."""
    sk, sj = np.abs(k).sum(axis=1), np.abs(j).sum(axis=1)

    def extent(mass):
        beyond = np.append(np.cumsum(mass[::-1])[::-1][1:], 0.0)
        return int(np.argmax(beyond <= limit)) + 1

    return extent(sk * sj), extent(sk @ np.abs(j)), extent(sj @ np.abs(k))


def _scaled(tensors: SeriesTensors, caps: tuple) -> tuple:
    """((K, J, off, top), (|K|, |J|)): the signed tensors of a one-ratio
    SeriesTensors scaled to a largest term of 1, and their magnitudes.
    Each row's largest J entry moves into K first, so that neither
    overflows on its own: K(m, k) x^m z^k is K[m, k] e^(top - off[m]) and
    J(m, j) y^j is J[m, j] e^(off[m])."""
    k, j = tensors.logs(caps)
    ((ks, kl),), ((js, jl),) = k.values(), j.values()
    off = jl.max(axis=1, keepdims=True)
    off[~np.isfinite(off)] = 0.0
    kl = kl + off
    top = float(kl.max())
    top = top if math.isfinite(top) else 0.0  # every term is zero
    k, j = _signed(ks, np.exp(kl - top)), _signed(js, np.exp(jl - off))
    return (k, j, off, top), tuple(t if s is None else np.abs(t)
                                   for s, t in ((ks, k), (js, j)))


def _split(scaled: tuple, rect: tuple, budget: float) -> tuple:
    """(K mask, J mask, delta, error) in rect: the ``_scaled`` entries that
    mpmath sums, the relative error of the others and its bound on the sum.
    delta = 4 eps (M + J + K) max(1, max |log term|), as each log sums
    log-gammas and running sums of logs. On each side the entries of least
    share (|K[m, k]| sum_j |J[m, j]|, or its mirror) stay float64 while
    delta times their share, the error, is at most budget."""
    k, j, off, top = scaled
    m_n, j_n, k_n = rect
    ak, aj = np.abs(k[:m_n, :k_n]), np.abs(j[:m_n, :j_n])
    with np.errstate(divide="ignore"):
        logs = (np.log(ak) + (top - off[:m_n]), np.log(aj) + off[:m_n])
    big = max(float(np.abs(lg[np.isfinite(lg)]).max(initial=0.0)) for lg in logs)
    delta = 4.0 * np.finfo(float).eps * sum(rect) * max(1.0, big)
    shares = (ak * aj.sum(axis=1, keepdims=True), aj * ak.sum(axis=1, keepdims=True))
    masks = [np.empty(s.shape, dtype=bool) for s in shares]
    for s, mp in zip(shares, masks):
        order = np.argsort(s, axis=None)
        mp.flat[order] = np.cumsum(s.flat[order]) > budget / delta
    return (*masks, delta,
            delta * sum(float(s[~mp].sum()) for s, mp in zip(shares, masks)))


def _masses(k: np.ndarray, j: np.ndarray, rect: tuple) -> tuple:
    """(signed sum, majorant) of scaled tensors over m < M, j < J, k < K."""
    k, j = k[:rect[0], :rect[2]], j[:rect[0], :rect[1]]
    return (float(k.sum(axis=1) @ j.sum(axis=1)),
            float(np.abs(k).sum(axis=1) @ np.abs(j).sum(axis=1)))


# starting caps (m, j, k); each doubles while its tail carries mass
_START_CAPS = (24, 16, 16)
# a float64 sum carries up to ~1e-15 of its majorant in rounding (1e-16
# to 1e-15 on the stored fixtures), so it holds rel_tol to a majorant /
# |sum| ratio of rel_tol / 1e-15. The float64 sum is kept up to the
# larger of that ratio and 1e3; past it, or with a term log past _LOG_MAX,
# mpmath sums the value (at most _MAX_DPS digits). The 1e3 floor acts
# below rel_tol 1e-12 only, and keeps float64 sums accurate to ~1e-12
# there: rescuing them too costs half again the time on the fixtures.
_FLOAT_NOISE = 1e-15
_RESCUE_RATIO = 1e3
_LOG_MAX = 700.0
_MAX_DPS = 300


def _series_value(k_ratio: GammaRatio, j_ratio: GammaRatio, args: tuple,
                  policy: SeriesPolicy) -> float:
    """sum_m x^m [sum_k K(m, k) z^k] [sum_j J(m, j) y^j] at args (x, y, z).

    A zero argument fixes its cap at 1. Float64 sums every term within
    the caps (those past the rectangle are free and carry digits below
    rel_tol). A rescue sums the rectangle in mpmath but for the float64
    terms that ``_split`` allows; after each such sum the rectangle, the
    precision and the split follow from its |sum|, until all settle.
    """
    if not all(math.isfinite(v) for v in args):
        raise InvalidParams(f"series arguments must be finite, got {args}")
    tensors = SeriesTensors({"k": k_ratio}, {"j": j_ratio}, *args)
    growable = tuple(v != 0.0 for v in args)
    caps = tuple(c if g else 1 for c, g in zip(_START_CAPS, growable))
    # the last mpmath sum, its rectangle, digits and float64 error bound
    total, rect, dps, float_error = None, (0, 0, 0), 0, 0.0

    def build(caps):
        scaled, (kmaj, jmaj) = _scaled(tensors, caps)
        k, j, off, top = scaled
        sk, sj = kmaj.sum(axis=1), jmaj.sum(axis=1)
        # a term of no negative factor is its own majorant
        value = float((sk if kmaj is k else k.sum(axis=1))
                      @ (sj if jmaj is j else j.sum(axis=1)))
        mass = float(sk @ sj)
        # |sum| in units of the largest term; rounding leaves at least
        # ~1e-17 of the majorant in a float64 sum
        size = (max(abs(value), 1e-17 * mass) if total is None
                else float(abs(total) * total.context.exp(-top)))
        return kmaj, jmaj, sk, sj, policy.rel_tol * size, scaled, value, mass, size

    while True:
        caps, (*_, limit, scaled, value, mass, size) = _fit_caps(
            build, caps, growable, policy)
        k, j, _, top = scaled
        if total is None and top <= _LOG_MAX and mass <= max(
                _RESCUE_RATIO, policy.rel_tol / _FLOAT_NOISE) * size:
            return value * math.exp(top)
        # a float |sum| past the rescue threshold is known to a digit at
        # best: the first mpmath sum takes one digit of margin
        margin = 10.0 if total is None else 1.0
        wider = _rectangle(k, j, limit / margin)
        ratio = margin * _masses(k, j, wider)[1] / size if size else math.inf
        need = 10 + math.log10(max(ratio, 1.0)) - math.log10(policy.rel_tol)
        if not need <= _MAX_DPS:
            raise NonConvergence(f"series cancellation ratio {ratio:.3g} "
                                 f"needs more than {_MAX_DPS} digits")
        if (total is not None and need <= dps and float_error <= limit
                and all(w <= r for w, r in zip(wider, rect))):
            return float(total)
        rect = tuple(map(max, wider, rect))
        dps = max(dps, int(need) + 1)
        *keep, _, float_error = _split(scaled, rect, limit / (2.0 * margin))
        total = _mp_sum(tensors, rect, dps, scaled, keep)


def _mp_ratio(ratio: GammaRatio, m_n: int, i_n: int, w) -> tuple:
    """A GammaRatio times w^i on the (m_n, i_n) grid in mpf, as (per_m,
    row): row m summed over the indices idx is per_m[m] * row(m, idx).

    The factors in m or in i alone are evaluated once per index; ``row``
    evaluates the others at the indices idx of row m, so no grid of mpf is
    held. The arguments are rounded to float64 first, as the oracle forms
    them: a sum that cancels by 1e15 moves at O(1) under a one-ulp change
    of its arguments.
    """
    import mpmath

    forms = ([(mpmath.gamma, f) for f in ratio.num]
             + [(mpmath.rgamma, f) for f in ratio.den])
    # with dyadic c_m and c_i (1, 0.5, ...) the arguments are exact and
    # recur across rows; their values are kept, no others
    dyadic = {f: all(c * 1024 % 1 == 0 for c in f[:2]) for _, f in forms}
    memo = {}

    def factor(fn, form, m, i):
        a = form[0] * m + form[1] * i + form[2]
        if not dyadic[form]:
            return fn(mpmath.mpf(a))
        if (fn, a) not in memo:
            memo[fn, a] = fn(mpmath.mpf(a))
        return memo[fn, a]

    def product(m, i, keep):
        return math.prod(factor(fn, f, m, i)
                         for fn, f in forms if keep(*f[:2]))

    per_m = [product(m, 0, lambda cm, ci: not ci) for m in range(m_n)]
    per_i = [product(0, i, lambda cm, ci: ci and not cm) * w ** i for i in range(i_n)]
    both = [(fn, f) for fn, f in forms if f[0] and f[1]]
    return per_m, lambda m, idx: mpmath.fdot(
        [math.prod(factor(fn, f, m, i) for fn, f in both) for i in idx],
        [per_i[i] for i in idx])


def _mp_sum(tensors: SeriesTensors, rect: tuple, dps: int, scaled: tuple, keep: tuple):
    """The one-ratio series of ``tensors`` over m < M, j < J, k < K at dps
    digits (an mpf), with the entries that ``keep`` marks in mpmath and
    the others from ``scaled``: row m is (mp K + float K e^(top - off[m]))
    (mp J + float J e^(off[m])). mpmath is imported here only, so a solve
    that never needs the rescue never loads it."""
    import mpmath

    m_n, j_n, k_n = rect
    k, j, off, top = scaled
    (k_ratio,), (j_ratio,) = tensors.k_ratios.values(), tensors.j_ratios.values()
    with mpmath.workdps(dps):
        x, y, z = (mpmath.mpf(v) for v in tensors.args)
        k_m, k_row = _mp_ratio(k_ratio, m_n, k_n, z)
        j_m, j_row = _mp_ratio(j_ratio, m_n, j_n, y)

        def side(per_m, row, m, floats, mp, log_scale):
            return (per_m * row(m, np.flatnonzero(mp).tolist())
                    + mpmath.mpf(float(floats[~mp].sum())) * mpmath.exp(log_scale))

        top = mpmath.mpf(top)
        return mpmath.fsum(
            side(x ** m * k_m[m], k_row, m, k[m, :k_n], keep[0][m], top - off[m, 0])
            * side(j_m[m], j_row, m, j[m, :j_n], keep[1][m], off[m, 0])
            for m in range(m_n))


# ---------------------------------------------------------------------------
# The three series
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
    if not all(math.isfinite(v) for v in (alpha, beta, gamma)):
        raise InvalidParams("ml_prabhakar parameters must be finite")
    den = ((alpha, 0.0, beta), (1.0, 0.0, 1.0))
    if gamma <= 0.0 and gamma == math.floor(gamma):
        # (gamma)_m = (-1)^m Gamma(1 - gamma) / Gamma(1 - gamma - m), which
        # vanishes for m > -gamma
        ratio = GammaRatio(((0.0, 0.0, 1.0 - gamma),),
                           ((-1.0, 0.0, 1.0 - gamma),) + den)
        z = -z
    else:
        ratio = GammaRatio(((1.0, 0.0, gamma),), ((0.0, 0.0, gamma),) + den)
    return _series_value(ratio, GammaRatio(), (z, 0.0, 0.0), policy)


def ml2_ratio(params: ML2Params) -> GammaRatio:
    """K GammaRatio of the bivariate series, y the k-argument."""
    p = params
    return GammaRatio(
        ((p.a1, p.b1, p.g1), (p.a2, 0.0, p.g2)),
        ((0.0, 0.0, p.g1), (0.0, 0.0, p.g2), (p.a3, p.b2, p.d1),
         (p.a4, 0.0, p.d2), (0.0, p.b3, p.d3)))


def ml2(params: ML2Params, x: float, y: float,
        policy: SeriesPolicy = SeriesPolicy()) -> float:
    """Bivariate Mittag-Leffler type function E2(x, y): the separable
    form (``ml2_ratio``) with y as the k-argument and no j-sum.
    Denominator gamma poles zero the term; a numerator gamma at a pole
    raises InvalidParams."""
    return _series_value(ml2_ratio(params), GammaRatio(), (x, 0.0, y), policy)


def ml3_ratios(params: ML3Params) -> tuple:
    """(K, J) GammaRatio of the trivariate series: 1/Gamma(a4 m + d4)
    rides with K and 1/Gamma(a5 m + d5) with J, as in ``TeleEngine``."""
    p = params
    k = GammaRatio(((p.a1, p.b1, p.d1),),
                   ((p.a3, p.b2, p.d3), (0.0, p.b3, p.d6), (p.a4, 0.0, p.d4)))
    j = GammaRatio(((p.a2, p.g1, p.d2),),
                   ((0.0, p.g2, p.d7), (0.0, p.g3, p.d8), (p.a5, 0.0, p.d5)))
    return k, j


def ml3(params: ML3Params, x: float, y: float, z: float,
        policy: SeriesPolicy = SeriesPolicy()) -> float:
    """Trivariate Mittag-Leffler type function F(x, y, z): the full
    separable form (``ml3_ratios``); pole conventions as in ml2."""
    return _series_value(*ml3_ratios(params), (x, y, z), policy)
