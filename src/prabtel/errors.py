"""Exception hierarchy shared by all prabtel modules.

Every error raised by the library derives from :class:`PrabtelError`, so
callers (including the CLI) can map failures to a stable exit-code contract
without matching on message strings.
"""

from __future__ import annotations


class PrabtelError(Exception):
    """Base class for all library errors."""


class InvalidParams(PrabtelError):
    """Parameter set violates a structural requirement (e.g. a convergence
    discriminant is not positive, or a numerator gamma sits on a pole)."""


class InvalidData(PrabtelError):
    """Problem data is unusable (e.g. the nonlocal weight M vanishes
    identically within sampling tolerance)."""


class NonConvergence(PrabtelError):
    """A series summation hit its term cap before meeting the stop
    criterion."""


class QuadratureFailure(PrabtelError):
    """Adaptive refinement could not reach the requested tolerance within
    the permitted number of mesh doublings."""


class DomainError(PrabtelError):
    """An argument lies outside the mathematical domain of an operation
    (e.g. a power-weight exponent <= -1)."""


class ArgumentOutOfRange(PrabtelError):
    """A series argument exceeds the configured magnitude cap; the result
    could not be trusted at the configured truncation policy."""


class DegenerateNonlocal(PrabtelError):
    """The constant A multiplying tau(x) in the reduced integral equation is
    numerically zero, so the nonlocal condition does not determine tau."""


class RegimeViolation(PrabtelError):
    """Strict mode was requested but the coefficients or exponents fall
    outside the regime for which solvability is guaranteed."""


class SingularStep(PrabtelError):
    """A diagonal pivot of the discretized Volterra system is numerically
    zero, so forward substitution cannot proceed."""


class MaxIterExceeded(PrabtelError):
    """Fixed-point iteration failed to contract to tolerance within the
    iteration budget."""


class ParseError(PrabtelError):
    """Expression text could not be parsed.

    Attributes
    ----------
    offset : int
        Byte offset into the input at which parsing failed.
    expected : str
        Human-readable statement of what the parser expected.
    """

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at offset {offset}: expected {expected}")


class EvalError(PrabtelError):
    """Expression evaluation hit a domain fault (log of a non-positive
    number, division by zero, ...)."""
