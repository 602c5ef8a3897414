import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from webrank.catalog import family_names, get_family
from webrank.expr import (
    EvalError,
    RationalConst,
    diff,
    evaluate,
    has_transcendental,
    max_var_index,
    parse,
    to_text,
)
from webrank.jets import degree_multi_indices
from webrank.scalars import EXACT, Mode
from webrank.tpoly import (
    MonomialCodes,
    _zero_test_points,
    fixed_powers,
    integer_taylor,
    mpf_ints,
    taylor,
    vars_used,
)

from helpers import cube_plus_self

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def repeated_diff_coefficient(tree, orders, point, mode=EXACT):
    """Independent Taylor oracle: iterated symbolic derivatives over factorials."""
    current = tree
    for j, times in enumerate(orders, start=1):
        for _ in range(times):
            current = diff(current, j)
    value = evaluate(current, point, mode)
    scale = math.prod(math.factorial(t) for t in orders)
    return value / scale


def expand(tree, point, cap, mode=EXACT):
    """taylor on MonomialCodes(len(point), cap), keyed by exponent tuples."""
    codes = MonomialCodes(len(point), cap)
    return {
        codes.decode(code): value
        for code, value in taylor(tree, point, codes, mode).items()
    }


def test_product_at_origin():
    assert expand(parse("x1*x2", 2), (0, 0), 2) == {(1, 1): Fraction(1)}


def test_exp_series():
    poly = expand(parse("exp(x1)", 1), (0,), 2, Mode.floating(128))
    assert set(poly) == {(0,), (1,), (2,)}
    assert abs(poly[(2,)] - mpmath.mpf(0.5)) < mpmath.mpf(2) ** -100


def test_geometric_series_against_diff_oracle():
    tree = parse("1/(1-x1)", 1)
    poly = expand(tree, (0,), 3)
    assert poly == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    for order in range(4):
        assert poly[(order,)] == repeated_diff_coefficient(
            tree, (order,), (Fraction(0),)
        )


@pytest.mark.parametrize(
    "text,arity,point",
    [
        ("(x1-1)*(x2-1)/((x1+1)*(x2+1))", 2, (Fraction(1, 3), Fraction(1, 2))),
        ("x1^2+x2^2+x3^2", 3, (1, 2, 3)),
        ("1/x1+1/x2", 2, (Fraction(2), Fraction(3, 2))),
        ("x1*(x2-1)/(x2*(x1-1))", 2, (Fraction(3), Fraction(5))),
    ],
)
def test_taylor_against_diff_oracle(text, arity, point):
    tree = parse(text, arity)
    for key, value in expand(tree, point, 3).items():
        assert value == repeated_diff_coefficient(tree, key, point)


@pytest.mark.parametrize(
    "text,arity,point",
    [
        ("x1^3 - 2*x1*x2 + x2^2", 2, (Fraction(1, 2), Fraction(-1, 3))),
        ("(x1+x2)^4/(x1-x2)", 2, (Fraction(2), Fraction(1, 5))),
    ],
)
def test_truncation_consistency(text, arity, point):
    # cap M restricted to degree <= M-1 equals cap M-1
    tree = parse(text, arity)
    for cap in range(1, 5):
        full = expand(tree, point, cap)
        shorter = expand(tree, point, cap - 1)
        assert {k: v for k, v in full.items() if sum(k) <= cap - 1} == shorter


def test_taylor_pole_raises():
    with pytest.raises(EvalError):
        taylor(parse("1/x1", 1), (0,), MonomialCodes(1, 3))


def test_taylor_exact_rejects_exp():
    with pytest.raises(EvalError):
        taylor(parse("exp(x1)", 1), (0,), MonomialCodes(1, 3), EXACT)


def test_log_series():
    poly = expand(parse("log(x1)", 1), (1,), 3, Mode.floating(128))
    # log(1+t) = t - t^2/2 + t^3/3
    with mpmath.workprec(128):
        assert abs(poly[(1,)] - 1) < mpmath.mpf(2) ** -100
        assert abs(poly[(2,)] + mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -100
        assert abs(poly[(3,)] - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -100


def test_log_requires_positive_argument():
    with pytest.raises(EvalError):
        taylor(
            parse("log(x1)", 1), (Fraction(-1),), MonomialCodes(1, 2), Mode.floating(128)
        )


def test_negative_power_matches_quotient():
    left = expand(parse("x1^-2", 1), (Fraction(1, 2),), 4)
    right = expand(parse("1/(x1*x1)", 1), (Fraction(1, 2),), 4)
    assert left == right


def test_mul_matches_expression_product():
    a = parse("x1+2*x2", 2)
    b = parse("x1^2-x2", 2)
    point = (Fraction(1), Fraction(2))
    codes = MonomialCodes(2, 3)
    combined = taylor(parse("(x1+2*x2)*(x1^2-x2)", 2), point, codes)
    assert codes.mul(taylor(a, point, codes), taylor(b, point, codes)) == combined


def test_powers_match_iterated_mul():
    codes = MonomialCodes(2, 4)
    expansion = taylor(parse("x1+x2^2", 2), (0, 0), codes)
    poly = {c: v for c, v in expansion.items() if c}
    powers = codes.powers(poly, 3)
    assert powers[0] == poly
    assert powers[1] == codes.mul(poly, poly)
    assert powers[2] == codes.mul(codes.mul(poly, poly), poly)


def test_compose_series_requires_zero_constant():
    codes = MonomialCodes(1, 2)
    poly = taylor(parse("1+x1", 1), (Fraction(1),), codes)
    with pytest.raises(ValueError):
        codes.compose(poly, [Fraction(0), Fraction(1)])


def test_compose_series_reparametrization():
    # g(t) = t^3 + t applied to the offset of u reproduces taylor(u^3 + u)
    u = parse("x1*x2", 2)
    point = (Fraction(2), Fraction(3))
    codes = MonomialCodes(2, 3)
    offset = {c: v for c, v in taylor(u, point, codes).items() if c}
    value = evaluate(u, point)
    series = [
        value**3 + value,
        3 * value**2 + 1,
        3 * value,
        Fraction(1),
    ]
    composed = codes.compose(offset, series)
    assert composed == taylor(cube_plus_self(u), point, codes)


def test_constant_poly():
    # a constant's series is its constant term alone; zero is the empty series
    codes = MonomialCodes(2, 3)
    assert taylor(parse("5", 2), (1, 2), codes) == {0: Fraction(5)}
    assert taylor(parse("x1-x1", 2), (1, 2), codes) == {}


# --------------------------------------------------------------------------
# the integer kernel on packed monomial codes against the Fraction expansion


def keys_up_to(n, cap):
    return [(0,) * n] + [
        key for h in range(1, cap + 1) for key in degree_multi_indices(n, h)
    ]


@pytest.mark.parametrize("n,cap", [(1, 3), (2, 4), (3, 4), (5, 2)])
def test_code_sums_are_products_truncated_at_the_cap(n, cap):
    codes = MonomialCodes(n, cap)
    keys = keys_up_to(n, cap)
    encoded = [codes.encode(key) for key in keys]
    assert [codes.decode(code) for code in encoded] == keys
    degrees = [sum(codes.decode(code)) for code in sorted(encoded)]
    assert degrees == sorted(degrees)  # degree-major
    for (a, ca), (b, cb) in itertools.product(zip(keys, encoded), repeat=2):
        product = tuple(x + y for x, y in zip(a, b))
        if sum(product) > cap:
            assert ca + cb >= codes.limit
        else:
            assert ca + cb == codes.encode(product)


def decoded(codes, terms, den):
    return {codes.decode(code): Fraction(v, den) for code, v in terms.items()}


def assert_integer_taylor_matches(tree, point, cap):
    codes = MonomialCodes(len(point), cap)
    terms, den = integer_taylor(tree, point, codes)
    assert den > 0
    assert math.gcd(den, *terms.values()) == 1
    assert all(type(v) is int for v in terms.values())
    assert decoded(codes, terms, den) == expand(tree, point, cap)


CATALOG_POINT = (Fraction(3, 7), Fraction(-5, 11), Fraction(9, 4), Fraction(-2, 3))


def exact_catalog_integrals():
    seen = {}
    for name in family_names():
        E, _ = get_family(name)
        for web in E.webs:
            for u in web.integrals:
                if not has_transcendental(u):
                    seen.setdefault((u, web.k), None)
    return list(seen)


def integral_id(value):
    return str(value) if isinstance(value, int) else to_text(value)


@pytest.mark.parametrize("integral,k", exact_catalog_integrals(), ids=integral_id)
def test_integer_taylor_matches_taylor_on_the_catalog(integral, k):
    point = CATALOG_POINT[:k]
    for cap in range(1, 8):
        codes = MonomialCodes(k, cap)
        terms, den = integer_taylor(integral, point, codes)
        assert math.gcd(den, *terms.values()) == 1
        reference = taylor(integral, point, codes)
        assert {code: Fraction(v, den) for code, v in terms.items()} == reference


@pytest.mark.parametrize("bits", [32, 64, 128, 256])
@pytest.mark.parametrize("integral,k", exact_catalog_integrals(), ids=integral_id)
def test_float_taylor_is_the_exact_expansion_rounded(integral, k, bits):
    # normwise: cancellation in the cross-ratio expansions leaves single
    # small coefficients with relative errors up to about 2^-(bits-13)
    point = CATALOG_POINT[:k]
    for cap in range(1, 8):
        codes = MonomialCodes(k, cap)
        exact = taylor(integral, point, codes)
        approx = taylor(integral, point, codes, Mode.floating(bits))
        assert set(approx) == set(exact)
        assert all(isinstance(v, mpmath.mpf) for v in approx.values())
        tolerance = Fraction(1, 2 ** (bits - 8)) * max(map(abs, exact.values()))
        for code, value in exact.items():
            assert abs(as_fraction(approx[code]) - value) <= tolerance


def as_fraction(x):
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


FLOAT_TREES = [
    ("exp(x1) + exp(x2)", (Fraction(3, 7), Fraction(-5, 11))),
    ("exp(x1) + exp(x2) + exp(x3)", (Fraction(3, 7), Fraction(-5, 11), Fraction(9, 4))),
    ("log(x1*x2 + 1)", (Fraction(2, 3), Fraction(1, 5))),
    ("exp(x1)*log(x2) - x1/x2", (Fraction(-1, 2), Fraction(7, 3))),
    ("1/(1 + exp(x1 - x2))", (Fraction(1, 4), Fraction(-2, 9))),
    ("exp(log(x1)^2)^-2", (Fraction(5, 3),)),
]


@pytest.mark.parametrize("text,point", FLOAT_TREES, ids=[t for t, _ in FLOAT_TREES])
def test_float_exp_and_log_trees_against_diff_oracle(text, point):
    mode = Mode.floating(128)
    tree = parse(text, len(point))
    poly = expand(tree, point, 4, mode)
    with mpmath.workprec(128):
        for key in keys_up_to(len(point), 4):
            value = poly.get(key, 0)
            expected = repeated_diff_coefficient(tree, key, point, mode)
            tolerance = mpmath.mpf(2) ** -110 * max(1, abs(expected))
            assert abs(value - expected) <= tolerance


@pytest.mark.parametrize("bits", [32, 64, 128])
@pytest.mark.parametrize("text,point", FLOAT_TREES, ids=[t for t, _ in FLOAT_TREES])
def test_fixed_powers_are_the_exact_powers_of_the_mpf_offset(text, point, bits):
    # each fixed-point power against the Fraction power of the same mpf
    # offset: its error is far below the 2^-bits rounding of an mpf build
    mode = Mode.floating(bits)
    codes = MonomialCodes(len(point), 4)
    expansion = taylor(parse(text, len(point)), point, codes, mode)
    offset = {}
    for code, v in expansion.items():
        if code:
            sign, man, exp, _ = v._mpf_
            offset[code] = (-man if sign else man) * Fraction(2) ** exp
    exact = codes.powers(offset, codes.cap)
    fixed = fixed_powers(expansion, codes, bits)
    for m, ((ints, unit), power) in enumerate(zip(fixed, exact), 1):
        largest = max(map(abs, power.values()))
        scale = Fraction(2) ** unit
        error = max(abs(ints.get(c, 0) * scale - v) for c, v in power.items())
        assert set(ints) <= set(power)
        assert error <= largest * Fraction(2) ** -(bits + 32), m


def test_mpf_ints_hold_the_values_exactly_over_their_lowest_exponent():
    with mpmath.workprec(64):
        values = [mpmath.mpf(3) / 8, mpmath.mpf(0), -mpmath.ldexp(5, 40)]
    ints, unit = mpf_ints(values)
    assert (ints, unit) == ([3, 0, -(5 << 43)], -3)
    assert mpf_ints([mpmath.mpf(0)]) == ([0], 0)


def test_mpf_ints_reject_non_finite_values():
    # float mode's one conversion from mpf, so nothing non-finite reaches
    # the gradients, the relation rows or float_rank
    for value in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(ValueError):
            mpf_ints([mpmath.mpf(1), value])


def test_inverse_at_a_negative_constant_keeps_its_sign():
    # a0 = -2: a0^(cap+1) is negative for cap 2 and 4
    tree = parse("1/x1", 1)
    codes = MonomialCodes(1, 2)
    terms, den = integer_taylor(tree, (Fraction(-2),), codes)
    assert decoded(codes, terms, den) == {
        (0,): Fraction(-1, 2),
        (1,): Fraction(-1, 4),
        (2,): Fraction(-1, 8),
    }
    for cap in (2, 4):
        assert_integer_taylor_matches(tree, (Fraction(-2),), cap)


@pytest.mark.parametrize(
    "text,arity,point",
    [
        ("x1^-2", 1, (Fraction(1, 2),)),
        ("x1^-3", 1, (Fraction(-3, 5),)),
        ("(x1+2*x2)^-3", 2, (Fraction(-1, 3), Fraction(2, 7))),
        ("(x1-x2)^-1*x1^0", 2, (Fraction(5), Fraction(-4, 9))),
        ("1/(1/x1 + x2/(x1 - 1/(x2+3)))", 2, (Fraction(-2), Fraction(1, 4))),
        ("(x1/(x2-x3))/(x3/(x1+x2)) - 7/3", 3, (Fraction(1, 2), Fraction(-2), 3)),
        ("-(x1*x2)^2/(1-x1)^3", 2, (Fraction(-3, 2), Fraction(5, 6))),
    ],
)
def test_integer_taylor_negative_powers_and_nested_quotients(text, arity, point):
    tree = parse(text, arity)
    for cap in range(0, 6):
        assert_integer_taylor_matches(tree, point, cap)


def test_integer_taylor_pole_raises():
    with pytest.raises(EvalError):
        integer_taylor(parse("1/x1", 1), (0,), MonomialCodes(1, 3))
    with pytest.raises(EvalError):
        integer_taylor(parse("x2/(x1-x2)^2", 2), (1, 1), MonomialCodes(2, 3))


@pytest.mark.parametrize("text", ["exp(x1)", "x1 + log(x2)", "1/exp(x1*x2)"])
def test_integer_taylor_rejects_exp_and_log(text):
    with pytest.raises(EvalError):
        integer_taylor(parse(text, 2), (1, 2), MonomialCodes(2, 3))


# --------------------------------------------------------------------------
# vars_used from the series against the symbolic partials


def diff_vars_used(e):
    """Reference: the partials by diff, each zero when it folds to the zero
    constant or evaluates to zero at all of vars_used's sample points where
    it is defined, and nonzero when it is defined at none."""
    top = max_var_index(e)
    used = set()
    for j in range(1, top + 1):
        partial = diff(e, j)
        if isinstance(partial, RationalConst):
            if partial.value:
                used.add(j)
            continue
        mode = Mode.floating() if has_transcendental(partial) else EXACT
        values = []
        for point in _zero_test_points(top):
            try:
                values.append(evaluate(partial, point, mode))
            except EvalError:
                pass
        if mode.is_exact:
            nonzero = any(values)
        else:
            with mode.workprec():
                tolerance = mpmath.ldexp(1, -(mode.precision // 2))
                nonzero = any(abs(v) > tolerance for v in values)
        if not values or nonzero:
            used.add(j)
    return used


def catalog_texts():
    """(text, arity) of every catalog integral, once each."""
    seen = {}
    for name in family_names():
        E, _ = get_family(name)
        for web in E.webs:
            for u in web.integrals:
                seen.setdefault((to_text(u), web.k), None)
    return list(seen)


def fixture_integrals():
    """(text, arity) of every integral in the benchmarks/ web definitions."""
    out = []
    for path in sorted(BENCHMARKS.glob("*.json")):
        payload = json.loads(path.read_text())
        if "webs" in payload:
            for k, texts in enumerate(payload["webs"], start=1):
                out.extend((text, k) for text in texts)
    return out


VARS_USED_CASES = [
    *catalog_texts(),
    *fixture_integrals(),
    ("x1+x2-x2", 2),
    ("x2", 2),
    ("exp(x1)+x2", 2),
    ("log(x1)*x2 + x3^2 - x3*x3", 3),
    ("1/(x1-x2) + x2/(x1-x2)", 2),
    ("exp(x1+log(x2))", 2),
]


@pytest.mark.parametrize(
    "text,arity", VARS_USED_CASES, ids=[t for t, _ in VARS_USED_CASES]
)
def test_vars_used_matches_the_symbolic_partials(text, arity):
    e = parse(text, arity)
    assert vars_used(e) == diff_vars_used(e)
