"""Nonlocal boundary value problem solver for the time-fractional
generalized telegraph equation with the Caputo-Prabhakar operator.

The public surface re-exported here covers the typical workflow: evaluate
the Mittag-Leffler type functions (specfun), apply the fractional
operators (fracops), describe the problem data and solve it end to end
(problem), and check everything via the acceptance registry that also
backs ``prabtel selftest``.  ``solve`` runs three public stages, which
can also be called one by one: a ``TeleEngine`` (and a ``ForcingTerm``,
or None) built once, then ``assemble_system`` and ``solve_tau`` for the
trace (volterra), then ``goursat_grid`` for the grid (goursat).
"""

from .errors import (
    ArgumentOutOfRange,
    DegenerateNonlocal,
    DomainError,
    EvalError,
    InvalidData,
    InvalidParams,
    MaxIterExceeded,
    NonConvergence,
    ParseError,
    PrabtelError,
    QuadratureFailure,
    RegimeViolation,
    SingularStep,
)
from .expr import ExprFunction
from .fracops import (
    PrabhakarParams,
    QuadPolicy,
    caputo_prabhakar_deriv,
    kernel_cell_moments,
    prabhakar_integral,
)
from .goursat import (
    Domain2D,
    ForcingTerm,
    TeleEngine,
    TelegraphCoeffs,
    TraceSolution,
    goursat_grid,
    ml2_tele,
    ml3_tele_variant,
)
from .problem import (
    GridSolution,
    ProblemN,
    ResidualReport,
    compatibility_check,
    solve,
    verify,
)
from .specfun import (
    ML2Params,
    ML3Params,
    SeriesPolicy,
    discriminants2,
    discriminants3,
    ml2,
    ml3,
    ml_prabhakar,
)
from .volterra import VolterraSystem, assemble_system, picard_solve, solve_tau

__version__ = "0.1.0"

__all__ = [
    "ArgumentOutOfRange",
    "DegenerateNonlocal",
    "Domain2D",
    "DomainError",
    "EvalError",
    "ExprFunction",
    "ForcingTerm",
    "GridSolution",
    "InvalidData",
    "InvalidParams",
    "ML2Params",
    "ML3Params",
    "MaxIterExceeded",
    "NonConvergence",
    "ParseError",
    "PrabhakarParams",
    "PrabtelError",
    "ProblemN",
    "QuadPolicy",
    "QuadratureFailure",
    "RegimeViolation",
    "ResidualReport",
    "SeriesPolicy",
    "SingularStep",
    "TeleEngine",
    "TelegraphCoeffs",
    "TraceSolution",
    "VolterraSystem",
    "assemble_system",
    "caputo_prabhakar_deriv",
    "compatibility_check",
    "discriminants2",
    "discriminants3",
    "goursat_grid",
    "kernel_cell_moments",
    "ml2",
    "ml2_tele",
    "ml3",
    "ml3_tele_variant",
    "ml_prabhakar",
    "picard_solve",
    "prabhakar_integral",
    "solve",
    "solve_tau",
    "verify",
    "__version__",
]
