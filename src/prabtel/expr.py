"""Scalar expression language for problem data functions.

The data functions phi(t), psi(x), M(t) and the smooth forcing factor are
supplied as text expressions in the variables ``t`` and ``x``. This module
parses them with a recursive-descent parser, evaluates them on floats or
numpy arrays, and renders them back to text.

Grammar (public contract, also documented in the CLI help)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | 't' | 'x' | 'pi' | 'e' | ident '(' args ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so ``-t^2``
means ``-(t^2)``. There is no implicit multiplication: ``2t`` is a parse
error. Functions: exp, ln, sin, cos, sqrt, abs (one argument) and
pow (two arguments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "ExprAst",
    "ExprFunction",
    "parse",
    "evaluate",
    "render",
]

# name: (numpy function, arity)
_FUNCTIONS = {
    "exp": (np.exp, 1),
    "ln": (np.log, 1),
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (np.abs, 1),
    "pow": (np.power, 2),
}

# precedence levels for parenthesization
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

# operator: (numpy function, name in error messages, precedence)
_OPERATORS = {
    "+": (np.add, "addition", _PREC_ADD),
    "-": (np.subtract, "subtraction", _PREC_ADD),
    "*": (np.multiply, "multiplication", _PREC_MUL),
    "/": (np.divide, "division", _PREC_MUL),
    "^": (np.power, "power", _PREC_POW),
}

_CONSTANTS = {"pi": np.pi, "e": np.e}


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    name: str  # 't' or 'x'
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"
    pos: int = 0


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"
    pos: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    pos: int = 0


ExprAst = Union[Num, Var, Neg, Bin, Call]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # exponent part: 1e-3, 2.5E+10
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(i, f"a valid token, found {c!r}")
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        raise ParseError(tok.pos, f"{op!r}")

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos, "end of input")
        return node

    def _left_group(self, ops: str, operand) -> ExprAst:
        """operand (op operand)* for op in ops, grouped from the left."""
        node = operand()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ops:
                self.advance()
                node = Bin(tok.text, node, operand(), tok.pos)
            else:
                return node

    def expr(self) -> ExprAst:
        return self._left_group("+-", self.term)

    def term(self) -> ExprAst:
        return self._left_group("*/", self.factor)

    def factor(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor(), tok.pos)
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            rhs = self.factor()  # right-associative
            node = Bin("^", node, rhs, tok.pos)
        return node

    def atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), tok.pos)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if name not in _FUNCTIONS:
                    raise ParseError(tok.pos, f"a known function, found {name!r}")
                self.advance()
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                arity = _FUNCTIONS[name][1]
                if len(args) != arity:
                    raise ParseError(
                        tok.pos, f"{arity} argument(s) for {name}, found {len(args)}"
                    )
                return Call(name, tuple(args), tok.pos)
            if name in ("t", "x"):
                return Var(name, tok.pos)
            if name in _CONSTANTS:
                return Num(float(_CONSTANTS[name]), tok.pos)
            raise ParseError(tok.pos, f"'t', 'x', a constant or a function, found {name!r}")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(tok.pos, "a number, variable, function or '('")


def parse(text: str) -> ExprAst:
    """Parse expression text into an immutable AST.

    Raises ParseError (carrying the byte offset and an expectation message)
    on malformed input.
    """
    if not text or not text.strip():
        raise ParseError(0, "a non-empty expression")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _apply(fn, pos: int, what: str, *args):
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            out = fn(*args)
    except (FloatingPointError, ZeroDivisionError, OverflowError,
            ValueError) as exc:
        raise EvalError(f"{what} at offset {pos}: {exc}") from None
    return out


def evaluate(ast: ExprAst, t=0.0, x=0.0):
    """Evaluate an AST at scalar or numpy-array arguments.

    Scalars in, float out; arrays in, array out (broadcasting applies),
    also for an expression that reads neither t nor x. Domain faults
    (division by zero, ln of a non-positive number, fractional power of a
    negative base) raise EvalError naming the offending offset.
    """
    scalar = np.isscalar(t) and np.isscalar(x)
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    result = _eval_node(ast, t, x)
    if scalar:
        return float(result)
    shape = np.broadcast_shapes(t.shape, x.shape)
    if np.shape(result) != shape:
        result = np.broadcast_to(result, shape).copy()
    return result


def _eval_node(ast: ExprAst, t, x):
    if isinstance(ast, Num):
        return np.float64(ast.value)
    if isinstance(ast, Var):
        return t if ast.name == "t" else x
    if isinstance(ast, Neg):
        return -_eval_node(ast.child, t, x)
    if isinstance(ast, Bin):
        if ast.op not in _OPERATORS:
            raise EvalError(f"unknown operator {ast.op!r}")
        fn, what, _ = _OPERATORS[ast.op]
        return _apply(fn, ast.pos, what, _eval_node(ast.left, t, x),
                      _eval_node(ast.right, t, x))
    if isinstance(ast, Call):
        fn, arity = _FUNCTIONS.get(ast.fn, (None, None))
        if len(ast.args) != arity:
            raise EvalError(f"unknown function {ast.fn!r} of "
                            f"{len(ast.args)} argument(s)")
        vals = [_eval_node(a, t, x) for a in ast.args]
        return _apply(fn, ast.pos, ast.fn, *vals)
    raise EvalError(f"unknown node {ast!r}")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _prec(ast: ExprAst) -> int:
    if isinstance(ast, (Num, Var, Call)):
        if isinstance(ast, Num) and ast.value < 0:
            return _PREC_NEG
        return _PREC_ATOM
    if isinstance(ast, Neg):
        return _PREC_NEG
    if isinstance(ast, Bin):
        return _OPERATORS[ast.op][2]
    raise ValueError(f"unknown node {ast!r}")


def _wrap(child: ExprAst, min_prec: int) -> str:
    text = render(child)
    if _prec(child) < min_prec:
        return f"({text})"
    return text


def render(ast: ExprAst) -> str:
    """Render an AST back to canonical expression text.

    parse(render(ast)) evaluates identically to ast.  The parser groups
    '+', '-', '*' and '/' from the left, and float '+' and '*' are not
    associative, so a right operand of equal precedence is parenthesised
    for every one of them: the text keeps the tree's grouping.
    """
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return "-" + _wrap(ast.child, _PREC_NEG)
    if isinstance(ast, Bin):
        # the side an operator does not group toward needs strictly
        # higher precedence: the right one, except for the
        # right-associative '^'
        prec, right_assoc = _prec(ast), ast.op == "^"
        left = _wrap(ast.left, prec + right_assoc)
        right = _wrap(ast.right, prec + (not right_assoc))
        sep = f" {ast.op} " if prec == _PREC_ADD else ast.op
        return f"{left}{sep}{right}"
    if isinstance(ast, Call):
        args = ", ".join(render(a) for a in ast.args)
        return f"{ast.fn}({args})"
    raise ValueError(f"unknown node {ast!r}")


# ---------------------------------------------------------------------------
# Callable wrapper
# ---------------------------------------------------------------------------

class ExprFunction:
    """Callable wrapper around a parsed expression.

    Instances evaluate on floats or arrays via ``fn(t=..., x=...)`` and
    report whether they are a literal zero.
    """

    def __init__(self, source: str):
        self.source = source
        self.ast = parse(source)

    def __call__(self, t=0.0, x=0.0):
        return evaluate(self.ast, t=t, x=x)

    @property
    def is_zero(self) -> bool:
        return isinstance(self.ast, Num) and self.ast.value == 0.0

    def __repr__(self) -> str:
        return f"ExprFunction({self.source!r})"
