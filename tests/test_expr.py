import math
import random

import numpy as np
import pytest

from coalition_attr import expr
from coalition_attr.expr import (
    MAX_DEPTH,
    Bin,
    ExprError,
    Lit,
    Neg,
    Pow,
    Var,
    evaluate,
    monomials,
    parse,
    to_str,
)
from coalition_attr.gaussian import QuadForm
from conftest import random_tree


def scalar_evaluate(e, point) -> float:
    """The one-point recursive evaluator the array evaluator replaced, kept
    as its oracle."""

    def rec(node):
        if isinstance(node, Lit):
            return node.value
        if isinstance(node, Var):
            return float(point[node.index])
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Pow):
            out = rec(node.base) ** node.exp
            if not math.isfinite(out):
                raise ExprError("non-finite intermediate value", 0)
            return out
        a, b = rec(node.left), rec(node.right)
        if node.op == "+":
            out = a + b
        elif node.op == "-":
            out = a - b
        elif node.op == "*":
            out = a * b
        else:
            if b == 0:
                raise ExprError("division by zero", 0)
            out = a / b
        if not math.isfinite(out):
            raise ExprError("non-finite intermediate value", 0)
        return out

    return rec(e)


def test_parse_reference_model():
    e = parse("x1 + x2 + x1*x2", 2)
    assert e == Bin("+", Bin("+", Var(0), Var(1)), Bin("*", Var(0), Var(1)))


def test_precedence_mul_over_add():
    e = parse("x1 + x2*x3", 3)
    assert e == Bin("+", Var(0), Bin("*", Var(1), Var(2)))


def test_precedence_pow_over_unary_minus():
    assert parse("-x1^2", 1) == Neg(Pow(Var(0), 2))
    assert parse("-x1*x2", 2) == Bin("*", Neg(Var(0)), Var(1))


def test_left_associative_sub():
    e = parse("x1 - x2 - x3", 3)
    assert e == Bin("-", Bin("-", Var(0), Var(1)), Var(2))


def test_variable_out_of_range():
    with pytest.raises(ExprError) as exc:
        parse("x9", 2)
    assert exc.value.pos == 0


def test_error_positions():
    with pytest.raises(ExprError) as exc:
        parse("x1 + @", 2)
    assert exc.value.pos == 5
    with pytest.raises(ExprError) as exc:
        parse("x1 + (x2", 2)
    assert exc.value.pos == 8


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprError, match="exponent"):
        parse("x1^2.5", 1)
    with pytest.raises(ExprError, match="exponent"):
        parse("x1^-2", 1)
    with pytest.raises(ExprError, match="exponent"):
        parse("x1^x1", 1)


def test_eval_reference_model():
    e = parse("x1 + x2 + x1*x2", 2)
    assert evaluate(e, [1.0, 2.0]) == pytest.approx(5.0)


def test_eval_constant_at_origin():
    e = parse("3.5 + x1*x2", 2)
    assert evaluate(e, [0.0, 0.0]) == pytest.approx(3.5)


def test_eval_division_by_zero():
    e = parse("x1/x2", 2)
    with pytest.raises(ExprError, match="division"):
        evaluate(e, [1.0, 0.0])


def assert_form(form, c, b, M):
    assert form[0] == c
    assert np.array_equal(form[1], b) and np.array_equal(form[2], M)


def test_monomials_reference_model():
    m = monomials(parse("x1 + x2 + x1*x2", 2), 2)
    assert_form(m, 0.0, [1.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])


def test_monomials_binomial_expansion():
    assert_form(monomials(parse("(x1+1)^2", 1), 1), 1.0, [2.0], [[1.0]])
    assert_form(monomials(parse("(x1+1)^1", 1), 1), 1.0, [1.0], [[0.0]])
    assert_form(monomials(parse("(x1+1)^0", 1), 1), 1.0, [0.0], [[0.0]])


def test_constant_powers_use_float_power():
    assert_form(monomials(parse("2^10*x1", 1), 1), 0.0, [1024.0], [[0.0]])
    assert_form(monomials(parse("1.1^7 + (x1 - x1)^3", 1), 1), float(np.float_power(1.1, 7)),
                [0.0], [[0.0]])


@pytest.mark.parametrize("src", ["x1^3", "x1*x1*x1", "(x1*x2)^2", "x1*x2*(1 + x1)",
                                 "x1^3 - x1^3 + x2"])
def test_past_degree_two_is_not_certified(src):
    # the walk stops at the first subexpression past degree 2, even when the
    # higher terms would cancel later
    assert monomials(parse(src, 2), 2) is None


@pytest.mark.parametrize("src", ["(" + "+".join(f"x{i}" for i in range(1, 11)) + ")^12",
                                 "x1^1000000"])
def test_high_powers_stop_the_walk_at_once(monkeypatch, src):
    calls = []
    mul = expr._mul
    monkeypatch.setattr(expr, "_mul", lambda p, q: calls.append(1) or mul(p, q))
    assert monomials(parse(src, 10), 10) is None
    assert len(calls) <= 2


@pytest.mark.parametrize("src", ["2^99999 + x1", "x1 / 2^99999", "(1e300 * x1)^2 - x2"])
def test_non_finite_coefficient_is_an_expr_error(src):
    with pytest.raises(ExprError, match="non-finite intermediate value"):
        monomials(parse(src, 2), 2)


def test_monomials_not_polynomial():
    assert monomials(parse("x1/x2", 2), 2) is None
    assert monomials(parse("x1/(x2+1)", 2), 2) is None
    assert monomials(parse("x1/(x2-x2)", 2), 2) is None
    assert_form(monomials(parse("x1/2", 2), 2), 0.0, [0.5, 0.0], np.zeros((2, 2)))


def test_monomials_cancellation():
    m = monomials(parse("(x1+x2)*(x1-x2) - x1^2", 2), 2)
    assert_form(m, 0.0, [0.0, 0.0], [[0.0, 0.0], [0.0, -1.0]])


def test_print_parse_roundtrip_corpus():
    rng = random.Random(7)
    pts = [np.array([0.3, -1.2, 2.0]), np.array([1.0, 1.0, 1.0]), np.array([-0.5, 0.0, 4.0])]
    for _ in range(100):
        tree = random_tree(rng, 3, 4)
        back = parse(to_str(tree), 3)
        for pt in pts:
            a = evaluate(tree, pt)
            b = evaluate(back, pt)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_monomials_agree_with_eval():
    rng = random.Random(8)
    checked = 0
    while checked < 300:
        tree = random_tree(rng, 3, 4)
        form = monomials(tree, 3)
        if form is None:
            continue
        q = QuadForm(*form)
        for pt in np.random.default_rng(checked).uniform(-2, 2, (5, 3)):
            assert q(pt) == pytest.approx(evaluate(tree, pt), rel=1e-12, abs=1e-12)
        checked += 1


def test_fuzz_no_crashes():
    rng = random.Random(9)
    alphabet = "x123 +-*/^()." + "abc@#\\\"'\n\t"
    for _ in range(20_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        try:
            e = parse(s, 3)
            evaluate(e, [1.0, 2.0, 3.0])
        except ExprError as err:
            assert err.pos >= 0


def test_array_evaluation_matches_scalar_oracle_bit_for_bit():
    rng = random.Random(7)
    pts = np.random.default_rng(7).normal(scale=3.0, size=(64, 3))
    for _ in range(300):
        tree = random_tree(rng, 3, 4)
        want = np.array([scalar_evaluate(tree, p) for p in pts])
        assert np.array_equal(evaluate(tree, pts), want)
        assert np.array_equal(evaluate(tree, pts.reshape(8, 8, 3)), want.reshape(8, 8))
        assert evaluate(tree, pts[5]) == want[5]


def test_array_evaluation_matches_oracle_on_powers_and_division():
    pts = np.random.default_rng(8).normal(scale=10.0, size=(500, 2))
    for src in ("x1^3 - x2^5 + 0.3*x1^7", "x1/(x2^2 + 1)", "(x1 - 2*x2)^4 / 3"):
        tree = parse(src, 2)
        want = np.array([scalar_evaluate(tree, p) for p in pts])
        assert np.array_equal(evaluate(tree, pts), want)


def test_array_evaluation_of_a_constant_fills_the_rows():
    out = evaluate(parse("7", 2), np.zeros((3, 2)))
    assert out.shape == (3,) and np.all(out == 7.0)
    assert evaluate(parse("7", 2), [0.0, 0.0]) == 7.0


def test_array_division_by_zero_in_any_row():
    e = parse("x1/x2", 2)
    with pytest.raises(ExprError, match="division"):
        evaluate(e, [[1.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("src, point", [
    ("x1^2 + x2", [1e200, 1.0]),
    ("2^99999 + x1", [1.0, 1.0]),
    ("x1*x1*x1", [1e200, 0.0]),
    ("x1 - x2", [np.inf, 1.0]),
    ("x1 / 1e-300", [1e100, 0.0]),
])
def test_overflow_is_a_non_finite_intermediate(src, point):
    e = parse(src, 2)
    for X in (point, [[0.0, 1.0], point]):
        with pytest.raises(ExprError, match="non-finite"):
            evaluate(e, X)


def test_non_finite_input_reaches_the_output_only_through_leaves():
    # as in the scalar evaluator, only operator results are checked
    assert math.isnan(evaluate(parse("-x1", 1), [math.nan]))
    assert evaluate(parse("x1^0", 1), [math.nan]) == 1.0
    with pytest.raises(ExprError, match="non-finite"):
        evaluate(parse("x1 + 1", 1), [[0.0], [math.nan]])


@pytest.mark.parametrize("src, offset", [
    ("(" * 3000 + "x1" + ")" * 3000, MAX_DEPTH),
    ("x1" + "+x1" * 3000, 2 + 3 * (MAX_DEPTH - 1)),
])
def test_depth_bound(src, offset):
    with pytest.raises(ExprError, match="nested deeper") as exc:
        parse(src, 1)
    assert exc.value.pos == offset


@pytest.mark.parametrize("src", [
    "(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1),
    "x1" + "+x1" * (MAX_DEPTH - 1),
    "-" * (MAX_DEPTH - 1) + "x1",
    "x1-(" * (MAX_DEPTH // 2 - 1) + "x1" + ")" * (MAX_DEPTH // 2 - 1),
])
def test_expressions_at_the_depth_bound_work_everywhere(src):
    tree = parse(src, 1)
    assert monomials(tree, 1) is not None
    assert evaluate(tree, [[1.0], [2.0]]).shape == (2,)
    assert len(to_str(tree)) >= len(src.replace("(", "").replace(")", ""))


def test_fully_parenthesized_rendering_round_trips_at_half_the_bound():
    # to_str wraps every operator in its own parentheses, doubling the depth
    tree = parse("x1" + "+x1" * (MAX_DEPTH // 2 - 1), 1)
    assert parse(to_str(tree), 1) == tree
    with pytest.raises(ExprError, match="nested deeper"):
        parse(to_str(parse("x1" + "+x1" * (MAX_DEPTH - 1), 1)), 1)
