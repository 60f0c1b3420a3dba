"""Outside-in layer trace of prabtel.

The tracer wraps public callables of the ``src/prabtel`` modules from the
benchmark's own files; nothing in the package changes.  Each wrapped call
records one span (name, start, end, parent span, op id, work done) in
memory.  A module-level function is patched under every name it is looked
up by: ``build_rule`` is imported into goursat, volterra and problem, so
all four bindings are replaced, not only the definition.  A target that no
longer exists is reported as absent and the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _time_columns(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["s"]))


def _mesh_cells(args, kwargs, result):
    mesh = args[1] if len(args) > 1 else kwargs["mesh"]
    return int(mesh.n_cells)


def _engine_caps(args, kwargs, result):
    engine = args[0]
    return (engine.m_cap, engine.j_cap, engine.k_cap)


def _expr_points(args, kwargs, result):
    values = list(args[1:]) + list(kwargs.values())
    return max((int(np.size(v)) for v in values), default=1)


# (span name, module, attribute, work done by one call)
TARGETS = (
    ("goursat.cvec", "prabtel.goursat", "TeleEngine.cvec", _time_columns),
    ("goursat.engine", "prabtel.goursat", "TeleEngine.__init__", _engine_caps),
    ("goursat.forcing_row", "prabtel.goursat", "ForcingTerm.row", None),
    ("goursat.grid", "prabtel.goursat", "goursat_grid", None),
    ("volterra.assemble", "prabtel.volterra", "assemble_system", None),
    ("volterra.solve_tau", "prabtel.volterra", "solve_tau", None),
    ("quadrature.build_rule", "prabtel.quadrature", "build_rule", _mesh_cells),
    ("fracops.kernel_moments", "prabtel.fracops", "kernel_cell_moments", None),
    ("problem.solve", "prabtel.problem", "solve", None),
    ("problem.verify", "prabtel.problem", "verify", None),
    ("problem.compat", "prabtel.problem", "compatibility_check", None),
    ("specfun.ml2", "prabtel.specfun", "ml2", None),
    ("specfun.ml3", "prabtel.specfun", "ml3", None),
    ("specfun.rescue", "prabtel.specfun", "_mp_ml", None),
    ("specfun.rescue", "prabtel.specfun", "_mp_ml2", None),
    ("specfun.rescue", "prabtel.specfun", "_mp_ml3", None),
    ("cli.load_config", "prabtel.cli", "load_config", None),
    ("cli.write", "prabtel.cli", "_u_csv_text", None),
    ("cli.write", "prabtel.cli", "_tau_csv_text", None),
    ("cli.write", "prabtel.cli", "_solution_svg", None),
    ("cli.write", "prabtel.cli", "_atomic_write", None),
    ("cli.read_csv", "prabtel.cli", "_read_u_csv", None),
    ("expr.eval", "prabtel.expr", "ExprFunction.__call__", _expr_points),
)

# names of the spans the benchmark opens around each op
OP_PREFIX = "op."


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        # each span: [name, start, end, parent index, op id, work]
        self.spans = []
        self.op_kinds = []
        self.absent = []
        self._stack = []
        self._patches = []

    def call(self, name, fn, args, kwargs, work=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                len(self.op_kinds) - 1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        span[5] = work(args, kwargs, result) if callable(work) else (work or 0)
        return result

    @contextlib.contextmanager
    def op(self, kind: str):
        self.op_kinds.append(kind)
        span = [OP_PREFIX + kind, perf_counter(), 0.0, -1, len(self.op_kinds) - 1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)
        return wrapper

    def _targets(self):
        for name, module_name, attr, work in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = (owner.__dict__[leaf] if isinstance(owner, type)
                            else getattr(owner, leaf))
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            yield name, owner, leaf, original, work

    def install(self, data_fns=()):
        """Patch every target under every binding and attach the tracer to
        the benchmark's own data callables."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "prabtel" or key.startswith("prabtel."))]
        for name, owner, leaf, original, work in self._targets():
            wrapper = self._wrap(name, original, work)
            if isinstance(owner, type):
                bindings = [(owner, leaf)]
            else:
                bindings = [(m, key) for m in modules
                            for key, value in vars(m).items() if value is original]
            for target, key in bindings:
                self._patches.append((target, key, original))
                setattr(target, key, wrapper)
        for fn in data_fns:
            fn.tracer = self
            self._patches.append((fn, "tracer", None))

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # -----------------------------------------------------------------
    # Derived numbers

    def self_times(self) -> list:
        """Span duration minus the part its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self, ops=None) -> dict:
        """calls, self seconds, inclusive seconds and work per span name,
        over the spans of the given op ids (all when None)."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                   "work": 0, "caps": (0, 0, 0)})
        for i, s in enumerate(self.spans):
            if ops is not None and s[4] not in ops:
                continue
            name = s[0]
            if name == "goursat.forcing_row":
                for parent in ("volterra.assemble", "goursat.grid"):
                    if self._under(i, parent):
                        split = out[name + "." + parent.split(".")[1]]
                        split["calls"] += 1
                        split["self_s"] += own[i]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += own[i]
            entry["incl_s"] += s[2] - s[1]
            if isinstance(s[5], tuple):
                entry["caps"] = tuple(max(a, b) for a, b in zip(entry["caps"], s[5]))
            else:
                entry["work"] += s[5]
        return out

    @staticmethod
    def call_cost() -> float:
        """Seconds a wrapper adds to one call: the median over 15 batches of
        2000 traced calls of a no-op minus as many direct calls of it."""
        def noop():
            return None
        probe = Tracer()
        wrapped = probe._wrap("calibrate", noop, None)
        costs = []
        for _ in range(15):
            t0 = perf_counter()
            for _ in range(2000):
                noop()
            t1 = perf_counter()
            for _ in range(2000):
                wrapped()
            t2 = perf_counter()
            probe.spans.clear()
            costs.append((t2 - t1 - (t1 - t0)) / 2000)
        return float(np.median(costs))

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op", "work"],
                "op_kinds": self.op_kinds, "absent": self.absent,
                "spans": [[s[0], round(s[1], 7), round(s[2], 7), s[3], s[4],
                           list(s[5]) if isinstance(s[5], tuple) else s[5]]
                          for s in self.spans]}
