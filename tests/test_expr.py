"""Unit tests for the expression parser, evaluator and renderer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prabtel.errors import EvalError, ParseError
from prabtel.expr import (
    Bin,
    Call,
    ExprFunction,
    Neg,
    Num,
    Var,
    evaluate,
    parse,
    render,
)
from prabtel.quadrature import _call_on


class TestParse:
    def test_precedence(self):
        assert evaluate(parse("2+3*t"), t=4.0) == 14.0

    def test_function_and_power(self):
        got = evaluate(parse("exp(-t)*x^2"), t=1.0, x=2.0)
        assert got == pytest.approx(4.0 / math.e, rel=1e-15)

    def test_parse_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("2+*3")
        assert err.value.offset == 2

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-t^2"), t=3.0) == -9.0
        assert evaluate(parse("(-t)^2"), t=3.0) == 9.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2")) == 512.0

    def test_constants(self):
        assert evaluate(parse("pi")) == math.pi
        assert evaluate(parse("e")) == math.e

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2t")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("tan(t)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse("pow(t)")
        with pytest.raises(ParseError):
            parse("sin(t, x)")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("y + 1")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(1 + t")

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + 2.5E+1")) == pytest.approx(25.001)

    def test_two_argument_pow(self):
        assert evaluate(parse("pow(t, 3)"), t=2.0) == 8.0

    def test_error_attributes(self):
        with pytest.raises(ParseError) as err:
            parse("1 + ")
        assert isinstance(err.value.offset, int)
        assert err.value.expected


class TestEval:
    def test_constant_broadcasts_to_array_argument(self):
        # one call on the whole array, not one per point after a 0-d answer
        calls = []

        class Counted(ExprFunction):
            def __call__(self, *args, **kwargs):
                calls.append(1)
                return super().__call__(*args, **kwargs)

        nodes = np.linspace(0.0, 1.0, 101)
        out = _call_on(Counted("1"), nodes)
        assert len(calls) == 1
        assert out.shape == nodes.shape and np.all(out == 1.0)
        assert ExprFunction("0.25")(np.zeros((2, 3)), np.zeros((2, 3))).shape == (2, 3)
        assert ExprFunction("0.25")(0.5) == 0.25

    def test_division_by_zero(self):
        ast = parse("1/ (t-1)")
        with pytest.raises(EvalError):
            evaluate(ast, t=1.0)
        assert evaluate(ast, t=3.0) == 0.5

    def test_log_of_nonpositive(self):
        with pytest.raises(EvalError):
            evaluate(parse("ln(t)"), t=-1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(t)"), t=-4.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("t^0.5"), t=-2.0)

    def test_abs(self):
        assert evaluate(parse("abs(t)"), t=-3.5) == 3.5

    def test_array_evaluation_matches_scalar(self):
        ast = parse("exp(-t)*sin(x) + t/2")
        ts = np.linspace(0.0, 2.0, 7)
        xs = np.linspace(-1.0, 1.0, 7)
        arr = evaluate(ast, t=ts, x=xs)
        for i in range(ts.size):
            assert arr[i] == evaluate(ast, t=float(ts[i]), x=float(xs[i]))

    def test_expr_function_wrapper(self):
        f = ExprFunction("t^2 + x")
        assert f(t=3.0, x=1.0) == 10.0
        assert not f.is_zero
        assert ExprFunction("0").is_zero


_leaf = st.one_of(
    st.floats(-2.0, 2.0).map(lambda v: Num(float(v))),
    st.sampled_from([Var("t"), Var("x")]),
)


def _extend(children):
    pair = st.tuples(children, children)
    return st.one_of(
        children.map(lambda u: Neg(u)),
        pair.map(lambda ab: Bin("+", ab[0], ab[1])),
        pair.map(lambda ab: Bin("-", ab[0], ab[1])),
        pair.map(lambda ab: Bin("*", ab[0], ab[1])),
        pair.map(lambda ab: Bin("/", ab[0], ab[1])),
        st.tuples(children, st.sampled_from([2.0, 3.0])).map(
            lambda uc: Bin("^", uc[0], Num(uc[1]))),
        children.map(lambda u: Call("sin", (u,))),
        children.map(lambda u: Call("cos", (u,))),
        children.map(lambda u: Call("exp", (u,))),
    )


_asts = st.recursive(_leaf, _extend, max_leaves=12)

_SAMPLES = [(-1.3, 0.7), (-0.4, -0.9), (0.2, 1.1), (0.9, -0.3), (1.6, 0.5)]


class TestProperties:
    @given(ast=_asts)
    @settings(max_examples=120, deadline=None)
    # equal-precedence right operands that once rendered without parentheses
    @example(ast=Neg(Bin("+", Num(-1.0), Bin("+", Num(1.0), Var("t")))))
    @example(ast=Bin("*", Var("x"), Bin("*", Num(0.1), Var("t"))))
    def test_roundtrip_through_render(self, ast):
        text = render(ast)
        back = parse(text)
        for t, x in _SAMPLES:
            try:
                want = evaluate(ast, t=t, x=x)
            except EvalError:
                continue
            assert evaluate(back, t=t, x=x) == want
