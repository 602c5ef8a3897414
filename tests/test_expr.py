from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webrank.catalog import family_names, get_family
from webrank.expr import (
    EvalError,
    ParseError,
    Product,
    Quotient,
    Sum,
    Variable,
    diff,
    evaluate,
    has_transcendental,
    int_power,
    max_var_index,
    neg,
    parse,
    product_of,
    rational,
    relabel,
    sum_of,
    to_text,
)
from webrank.scalars import Mode
from webrank.tpoly import vars_used


def corpus() -> list[tuple[str, int]]:
    """All catalog expressions plus assorted grammar corners."""
    out = []
    for name in family_names():
        _, spec = get_family(name)
        for k, integrals in enumerate(spec.webs, start=1):
            out.extend((text, k) for text in integrals)
    out += [
        ("x1 + 2*x2 - 3", 2),
        ("-x1^2", 1),
        ("(x1+1)^3/(x2-2)^2", 2),
        ("1/2*x1 - 5/3", 1),
        ("exp(x1+log(x2))", 2),
        ("x1^-2 + x2^(-1)", 2),
        ("2.5*x1 + 0.125", 1),
        ("x1*-x2", 2),
        ("-(x1*x2)", 2),
    ]
    return out


# --------------------------------------------------------------------------
# parsing

def test_parse_sum():
    assert parse("x1+x2", 2) == Sum((Variable(1), Variable(2)))


def test_parse_moebius_ratio():
    e = parse("(x1-1)*(x2-1)/((x1+1)*(x2+1))", 2)
    assert isinstance(e, Quotient)
    assert isinstance(e.numerator, Product)


def test_parse_three_squares():
    e = parse("x1^2+x2^2+x3^2", 3)
    assert isinstance(e, Sum)
    assert len(e.terms) == 3


def test_parse_decimal_and_fraction_literals():
    assert parse("1.5", 1) == rational(Fraction(3, 2))
    assert parse("3/4", 1) == rational(Fraction(3, 4))


def test_parse_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse("-x1^2", 1) == neg(int_power(Variable(1), 2))
    assert parse("2*x1+1", 1) == sum_of([product_of([rational(2), Variable(1)]), rational(1)])
    assert parse("x1/x2/x3", 3) == parse("(x1/x2)/x3", 3)


def test_parse_exponent_tower_right_associative():
    assert parse("x1^2^3", 1) == int_power(Variable(1), 8)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("x1 + ", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("x1 + y", 2)
    with pytest.raises(ParseError):
        parse("x3", 2)
    with pytest.raises(ParseError):
        parse("x1^x2", 2)
    with pytest.raises(ParseError):
        parse("x1 @ x2", 2)
    with pytest.raises(ParseError):
        parse("x1^1.5", 1)


def test_parse_rejects_division_by_constant_zero():
    with pytest.raises(ParseError):
        parse("x1/0", 1)


@pytest.mark.parametrize("text,arity", corpus())
def test_parse_print_roundtrip(text, arity):
    tree = parse(text, arity)
    assert parse(to_text(tree), arity) == tree


# --------------------------------------------------------------------------
# constructors fold

def test_constant_folding():
    assert parse("2+3", 1) == rational(5)
    assert parse("2*x1*0", 1) == rational(0)
    assert parse("1*x1", 1) == Variable(1)
    assert parse("2^-2", 1) == rational(Fraction(1, 4))


def test_sum_flattening():
    e = parse("x1+(x2+x3)", 3)
    assert isinstance(e, Sum) and len(e.terms) == 3


# --------------------------------------------------------------------------
# differentiation

def test_diff_linear():
    assert diff(parse("x1+x2", 2), 1) == rational(1)


def test_diff_square_sum():
    assert diff(parse("x1^2+x2^2+x3^2", 3), 1) == product_of([rational(2), Variable(1)])


def test_diff_exp():
    e = parse("exp(x1)+exp(x2)", 2)
    assert to_text(diff(e, 2)) == "exp(x2)"


def test_diff_quotient_at_point():
    e = parse("(x1-1)/(x1+1)", 1)
    # derivative is 2/(x+1)^2
    assert evaluate(diff(e, 1), (Fraction(1),)) == Fraction(1, 2)


@pytest.mark.parametrize("text,arity", corpus())
def test_diff_matches_finite_differences(text, arity):
    tree = parse(text, arity)
    mode = Mode.floating(256)
    step = Fraction(1, 2**20)
    base = tuple(Fraction(3, 7) + Fraction(j, 11) for j in range(arity))
    for j in range(1, arity + 1):
        try:
            symbolic = evaluate(diff(tree, j), base, mode)
            up = evaluate(
                tree,
                tuple(c + step if i == j - 1 else c for i, c in enumerate(base)),
                mode,
            )
            down = evaluate(
                tree,
                tuple(c - step if i == j - 1 else c for i, c in enumerate(base)),
                mode,
            )
        except EvalError:
            continue
        numeric = (up - down) / (2 * mpmath.ldexp(1, -20))  # 2 * step, exactly
        scale = max(abs(symbolic), mpmath.mpf(1))
        assert abs(symbolic - numeric) / scale < 1e-6


# --------------------------------------------------------------------------
# evaluation

def test_eval_exact_product():
    assert evaluate(parse("x1*x2*x3", 3), (1, 2, 3)) == 6


def test_eval_pole_raises():
    with pytest.raises(EvalError):
        evaluate(parse("(x1-1)/(x1+1)", 1), (Fraction(-1),))


def test_eval_exact_rejects_transcendental():
    with pytest.raises(EvalError):
        evaluate(parse("exp(x1)", 1), (0,))


def test_eval_float_exp():
    value = evaluate(parse("exp(x1)+exp(x2)", 2), (0, 0), Mode.floating(128))
    assert abs(value - 2) < mpmath.mpf(2) ** -100


def test_eval_float_log_domain():
    with pytest.raises(EvalError):
        evaluate(parse("log(x1)", 1), (Fraction(-2),), Mode.floating(128))


def test_eval_short_point_rejected():
    with pytest.raises(EvalError):
        evaluate(parse("x1+x2", 2), (1,))


# --------------------------------------------------------------------------
# variable usage

def test_vars_used_simple():
    assert vars_used(parse("x1+x2", 2)) == {1, 2}


def test_vars_used_folds_cancellation():
    assert vars_used(parse("x1+x2-x2", 2)) == {1}


def test_vars_used_three_point_ratio():
    assert vars_used(parse("(x1-x3)/(x2-x3)", 3)) == {1, 2, 3}


def test_vars_used_with_exp():
    assert vars_used(parse("exp(x1)+x2", 2)) == {1, 2}


def test_relabel():
    e = relabel(parse("x1+x2", 2), [2, 5])
    assert e == parse("x2+x5", 5)
    assert max_var_index(e) == 5


def test_has_transcendental():
    assert has_transcendental(parse("exp(x1)", 1))
    assert not has_transcendental(parse("x1^3/(x1+1)", 1))


# --------------------------------------------------------------------------
# randomized structural round-trip

_leaves = st.one_of(
    st.integers(min_value=1, max_value=3).map(Variable),
    st.fractions(min_value=-3, max_value=3, max_denominator=8).map(rational),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: sum_of(ab)),
        st.tuples(children, children).map(lambda ab: product_of(ab)),
        children.map(neg),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
            lambda pair: _safe_power(*pair)
        ),
    )


def _safe_power(base, exponent):
    try:
        return int_power(base, exponent)
    except ZeroDivisionError:
        return base


exprs = st.recursive(_leaves, _combine, max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(exprs)
def test_random_tree_roundtrip(tree):
    assert parse(to_text(tree), 3) == tree
