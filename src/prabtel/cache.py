"""The tables a solve builds from its operator alone, kept for the process.

The series engine of (params, coeffs, q, p, max_terms_per_index) and the
tables built from it for a grid do not depend on phi, psi, M or f:
the t-rules of each assembly level with their shifted ``cvec`` columns,
the shifted ``cvec`` columns of the grid's t-nodes, the ``ypowers`` of
the x-grid, the hat moments of the trace convolution, the xi-moments of
the forcing, and per eta-mesh (``goursat._EtaConv``) the node weights of
its row t_max, the kernel at the lags of its inner cells, the end pieces
of each set of rows with eps1 > 0 and the assembly's row weights; beside
them verify's slope weights and the compatibility check's trapezoid
rules.  ``TABLES`` keeps them under exact keys, the inputs of the build
or the node values, so that a second solve of one operator builds none
of them again and returns the same numbers bit for bit.  Everything
that samples the data runs on every solve.  Every table it hands out
has read-only arrays.  The cache holds at most ``_BUDGET`` bytes,
dropping the least recently used tables first; a table larger than that
is built, made read-only, used and dropped.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

# bytes of array data the cache may hold
_BUDGET = 32 * 2 ** 20


def exact_key(*inputs) -> str:
    """A key of build inputs, exactly: their ``repr``, so that equal
    numbers of another type or sign (1 and 1.0, 0.0 and -0.0) get keys of
    their own."""
    return repr(inputs)


def _arrays(value) -> list:
    """Every ndarray in a table: the value itself, the items of a tuple,
    or the array and dict-of-array attributes of an object (an engine, a
    rule)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return [a for item in vars(value).values()
            for a in (item.values() if isinstance(item, dict) else (item,))
            if isinstance(a, np.ndarray)]


class TableCache:
    """Least-recently-used tables of at most ``budget`` bytes in total."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._tables = OrderedDict()

    def get(self, key, build):
        """The table of ``key``, from ``build()`` when it is not held.

        The key must determine the table exactly: equal keys must give
        bit-identical builds.  The table's arrays are made read-only.
        """
        entry = self._tables.get(key)
        if entry is not None:
            self._tables.move_to_end(key)
            return entry[0]
        value = build()
        size = 0
        for a in _arrays(value):
            a.setflags(write=False)
            size += a.nbytes
        if size <= self.budget:
            self._tables[key] = (value, size)
            self.nbytes += size
            while self.nbytes > self.budget:
                self.nbytes -= self._tables.popitem(last=False)[1][1]
        return value

    def clear(self) -> None:
        """Drop every table, so that the next solve builds all of them."""
        self._tables.clear()
        self.nbytes = 0


TABLES = TableCache(_BUDGET)
