"""Singular-weight product integration on graded meshes and lattice products.

The fractional operators and the solution formula all integrate products
w(s) y(s) where w is a power weight (possibly singular at 0) and y is only
known at mesh nodes. The rules built here integrate w exactly against the
piecewise-linear interpolant of y, which keeps second-order accuracy in the
mesh size even when the weight blows up at an endpoint. Meshes are power
graded toward 0 to resolve the singularity.

On the lattice from 0 of every solver stage (``_is_lattice``) a weight
depends on its lag alone: ``_lattice_rows`` and ``_toeplitz_matrix`` do
every lag gather of the solver; ``_toeplitz_product`` and
``_toeplitz_solve`` apply and invert one from its first column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, InvalidParams

__all__ = ["GradedMesh", "WeightedRule", "graded_mesh", "power_moment", "build_rule"]

# floats (128 KB) per temporary block of rows, lags or end pieces
_CONV_CHUNK = 16384

# ``_lattice_rows`` takes up to this many columns one at a time in its
# one-column form: on the grid fill's rows, one product per row wins from
# 5-7 columns with eps1 = 0 and from 2-3 with eps1 > 0 (32/128 to 128/512)
_HANKEL_COLS = 4

# the power r of every graded mesh of the solver (``volterra`` raises it
# to 1/beta where beta is below 1/2)
_GRADING = 2.0


@dataclass(frozen=True)
class GradedMesh:
    """Power-graded mesh node_i = L * (i/n)^r on [0, L], r >= 1."""

    nodes: np.ndarray
    r: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if self.r < 1.0:
            raise InvalidParams(f"mesh grading must be >= 1, got {self.r}")
        if nodes.ndim != 1 or nodes.size < 2:
            raise InvalidParams("mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise InvalidParams("mesh must start at 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise InvalidParams("mesh nodes must be strictly increasing")

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1


def graded_mesh(L: float, n: int, r: float = _GRADING) -> GradedMesh:
    """Build the n-cell graded mesh node_i = L * (i/n)^r on [0, L]."""
    if not (L > 0.0):
        raise InvalidParams(f"mesh length must be positive, got {L}")
    if n < 1:
        raise InvalidParams(f"mesh needs at least one cell, got n={n}")
    i = np.arange(n + 1, dtype=float)
    nodes = L * (i / n) ** r
    nodes[-1] = L  # guard rounding in the power map
    return GradedMesh(nodes=nodes, r=r)


@dataclass(frozen=True)
class WeightedRule:
    """Nodes and weights with sum(w_i y(node_i)) = int_0^L w(s) y(s) ds for
    every continuous piecewise-linear y on the nodes."""

    nodes: np.ndarray
    weights: np.ndarray

    def apply(self, values) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise InvalidParams(
                f"rule expects {self.nodes.size} values, got {values.size}")
        return float(self.weights @ values)

    def integrate(self, fn) -> float:
        return float(self.weights @ np.asarray(fn(self.nodes), dtype=float))


def power_moment(mu: float, a: float, b: float, k: int) -> float:
    """Closed-form moment int_a^b s^(mu+k) ds for mu > -1, k in {0, 1}."""
    if mu <= -1.0:
        raise DomainError(f"power weight exponent must exceed -1, got {mu}")
    if not (0.0 <= a < b):
        raise DomainError(f"moment interval must satisfy 0 <= a < b, got [{a}, {b}]")
    if k not in (0, 1):
        raise DomainError(f"moment order k must be 0 or 1, got {k}")
    p = mu + k + 1.0
    return (b ** p - a ** p) / p


def build_rule(weight_exponent: float, mesh: GradedMesh) -> WeightedRule:
    """Product-integration rule for the weight s^weight_exponent on a mesh.

    Each cell [s_j, s_{j+1}] contributes the exact weighted integrals of the
    two linear hat-function pieces, so the rule integrates w times any
    piecewise-linear function exactly.  The cell moments are those of
    ``power_moment``; the node powers go through Python's float pow, as
    in ``power_moment``, because numpy's vectorized pow may round the
    last bit differently and the weights would no longer be the same.
    """
    if weight_exponent <= -1.0:
        raise DomainError(
            f"power weight exponent must exceed -1, got {weight_exponent}")
    s = mesh.nodes
    a, b = s[:-1], s[1:]
    h = b - a
    p0, p1 = weight_exponent + 1.0, weight_exponent + 2.0
    sp0 = np.array([v ** p0 for v in s.tolist()])
    sp1 = np.array([v ** p1 for v in s.tolist()])
    m0 = (sp0[1:] - sp0[:-1]) / p0
    m1 = (sp1[1:] - sp1[:-1]) / p1
    w = np.zeros(s.size)
    w[:-1] += (b * m0 - m1) / h
    w[1:] += (m1 - a * m0) / h
    return WeightedRule(nodes=s, weights=w)


def _trapezoid_vec(grid: np.ndarray) -> np.ndarray:
    """Trapezoid weights on an ascending grid: ``build_rule(0.0, ...)``
    without its float pows."""
    h = np.diff(grid)
    w = np.zeros(grid.size)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def _is_lattice(nodes) -> bool:
    """Whether nodes are the uniform grid from 0 that every solver stage
    takes: 1-D, two or more, the first 0.0, the last a finite x_n > 0,
    and each node x_i within 1e-13 x_n of i x_n / n.  That admits the
    rounding of ``np.linspace`` and of its values written as decimal
    text, but not a grid rounded to fewer digits: the Toeplitz products
    of the grid fill are exact only on an exact lattice."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or nodes[0] != 0.0:
        return False
    top, n = nodes[-1], nodes.size - 1
    return bool(0.0 < top < np.inf
                and np.abs(nodes - np.arange(n + 1) * (top / n)).max()
                <= 1e-13 * top)


def _lattice_rows(samples: np.ndarray, table: np.ndarray, lengths,
                  edge: tuple = None) -> np.ndarray:
    """Rows (lengths.size, *samples.shape[1:], *table.shape[1:]) of a
    lattice convolution: row i is sum_(e < L_i) samples[e] (x) table[n -
    L_i + e], n = len(table), L_i = lengths[i] <= n, plus edge[0] (x)
    edge[1][n - L_i] if an edge (a sample, a table shaped as ``table``) is
    given; a row of length 0 is zero.  One column, after n zeros, reads
    as a Hankel matrix whose row L_i meets ``table`` at those indices: one
    gather and one product per ``_CONV_CHUNK`` block of rows.  Up to
    ``_HANKEL_COLS`` columns take that form one at a time, more columns
    one product per row."""
    if samples.ndim == 2 and samples.shape[1] <= _HANKEL_COLS:
        edges = [None] * samples.shape[1] if edge is None else [
            (first, edge[1]) for first in edge[0]]
        return np.stack([_lattice_rows(column, table, lengths, one)
                         for column, one in zip(samples.T, edges)], axis=1)
    n, lengths = len(table), np.asarray(lengths)
    flat = table.reshape(n, math.prod(table.shape[1:]))
    tail = None if edge is None else edge[1].reshape(flat.shape)
    out = np.zeros((lengths.size, *samples.shape[1:], flat.shape[1]))
    live = np.flatnonzero(lengths)
    if samples.ndim > 1:
        for i, size in zip(live.tolist(), lengths[live].tolist()):
            out[i] = samples[:size].T @ flat[n - size:]
            if tail is not None:
                out[i] += np.multiply.outer(edge[0], tail[n - size])
    elif live.size:
        ext = np.concatenate((np.zeros(n), samples[:n]))
        windows = as_strided(ext, (n + 1, n), ext.strides * 2)
        step = max(1, _CONV_CHUNK // n)
        for lo in range(0, live.size, step):
            rows = live[lo:lo + step]
            out[rows] = windows[lengths[rows]] @ flat
            if tail is not None:
                out[rows] += edge[0] * tail[n - lengths[rows]]
    return out.reshape(lengths.size, *samples.shape[1:], *table.shape[1:])


def _toeplitz_matrix(values) -> np.ndarray:
    """The C-contiguous lower-triangular [i, j] = values[i - j], i >= j."""
    ext = np.concatenate((np.zeros(len(values) - 1), values))
    return as_strided(ext[len(values) - 1:], (len(values),) * 2,
                      (ext.itemsize, -ext.itemsize)).copy()


def _toeplitz_product(column: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``_toeplitz_matrix(column) @ values`` by one convolution."""
    return np.convolve(column, values)[:len(values)]


def _toeplitz_solve(column: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Solve ``_toeplitz_matrix(column) @ out = values``, column[0] != 0.

    The inverse is the Toeplitz matrix of the power-series reciprocal b
    of ``column``, by Newton doubling b <- b (2 - column b): the terms of
    column b past z^len(b), times b, give its next len(b) terms.  One
    more convolution applies it.
    """
    n, m = len(column), 1
    inverse = np.empty(n)
    inverse[0] = 1.0 / column[0]
    while m < n:
        top = min(2 * m, n)
        past = np.convolve(column[1:top], inverse[:m], "valid")
        inverse[m:top] = -np.convolve(inverse[:m], past)[:top - m]
        m = top
    return _toeplitz_product(inverse, values)


def _call_on(fn, values) -> np.ndarray:
    """Evaluate a pointwise data callable on a 1-D array: one call on the
    whole array when fn broadcasts (a 0-d result, as of ``lambda t: 1.0``,
    fills it), else, if that call raises TypeError or ValueError or
    returns another shape, one call per point.  Other errors propagate."""
    values = np.asarray(values, dtype=float)
    try:
        out = np.asarray(fn(values), dtype=float)
        if out.shape == values.shape:
            return out
        if out.shape == ():
            return np.full(values.shape, out)
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(float(v))) for v in values])


def _call_grid(fn, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate a pointwise data callable f(t, x) on the (ts x xs) grid.

    One call on the broadcast 2-D pair when fn broadcasts, a 0-d result
    filling the grid; if that call raises TypeError or ValueError or
    returns another shape, one ``_call_on`` per t.
    """
    shape = (ts.size, xs.size)
    try:
        out = np.asarray(fn(np.broadcast_to(ts[:, None], shape),
                            np.broadcast_to(xs, shape)), dtype=float)
        if out.shape == shape:
            return out
        if out.shape == ():
            return np.full(shape, out)
    except (TypeError, ValueError):
        pass
    return np.array([_call_on(lambda x, t=t: fn(t, x), xs)
                     for t in ts.tolist()]).reshape(shape)
