import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webrank import tpoly
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
    variables,
)
from webrank.jets import degree_multi_indices
from webrank.scalars import EXACT, Mode, ModulusError
from webrank.tpoly import (
    MonomialCodes,
    _int_divide,
    _nonzero_partials,
    _zero_test_points,
    integer_taylor,
    mode_for,
    modulus_at,
    mpf_ints,
    series_gradient,
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


def schoolbook_product(codes, a, b):
    """Oracle: a * b truncated at the cap by exponent tuples, term by term
    over a's terms and b's terms in ascending code order, each code where
    it is first reached, and the codes whose sums cancel left out."""
    out = {}
    for code_a, value_a in a.items():
        key_a = codes.decode(code_a)
        for code_b, value_b in sorted(b.items()):
            key = [x + y for x, y in zip(key_a, codes.decode(code_b))]
            if sum(key) <= codes.cap:
                code = codes.encode(key)
                out[code] = out.get(code, 0) + value_a * value_b
    return {code: value for code, value in out.items() if value}


@st.composite
def int_series(draw):
    """(codes, a): an int series of a few terms on MonomialCodes(n, cap),
    coefficients in -3..3 so that products often cancel."""
    n = draw(st.integers(min_value=1, max_value=3))
    codes = MonomialCodes(n, draw(st.integers(min_value=2, max_value=6)))
    keys = draw(
        st.lists(
            st.sampled_from(keys_up_to(n, codes.cap)), max_size=6, unique=True
        )
    )
    coefficient = st.integers(min_value=-3, max_value=3).filter(bool)
    return codes, {codes.encode(key): draw(coefficient) for key in keys}


# x + 2x^2 - 2x^3: its square's x^4 coefficient 2*(-2) + 2^2 cancels
CANCELLING = (MonomialCodes(1, 4), {6: 1, 12: 2, 18: -2})


@settings(max_examples=200, deadline=None)
@given(int_series(), st.integers(min_value=1, max_value=5))
@example(CANCELLING, 3)
def test_powers_equal_repeated_products_with_cancelled_terms_left_out(case, m_max):
    # the multiplier's items sorted once for all powers, the output rebuilt
    # only when a product cancelled: the same values in the same key order
    # as one schoolbook product per power, no zero value kept
    codes, a = case
    expected = [a]
    for _ in range(1, m_max):
        expected.append(schoolbook_product(codes, expected[-1], a))
    powers = codes.powers(a, m_max)
    assert [list(p.items()) for p in powers] == [list(p.items()) for p in expected]
    assert all(0 not in power.values() for power in powers)
    for prev, power in zip(powers, powers[1:]):
        product = codes.mul(prev, a)
        assert list(product.items()) == list(
            schoolbook_product(codes, prev, a).items()
        )
        assert list(power.items()) == list(product.items())


def test_a_cancelled_product_term_is_left_out():
    codes, a = CANCELLING
    square = codes.powers(a, 2)[1]
    assert {codes.decode(c): v for c, v in square.items()} == {(2,): 1, (3,): 4}


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
def test_float_powers_are_the_powers_of_the_mpf_offset_up_to_rounding(
    text, point, bits
):
    # the powers the float relation build takes, in mpf at the mode's
    # precision, against the Fraction powers of the same mpf offset: each
    # value has at most `bits` significant bits, and each product of the
    # m-th power rounds a sum of at most len(offset) terms, so its error
    # stays within (m - 1) (len(offset) + 1) 2^(1 - bits) of the same
    # coefficient of the power of |offset|
    mode = Mode.floating(bits)
    codes = MonomialCodes(len(point), 4)
    expansion = taylor(parse(text, len(point)), point, codes, mode)
    with mode.workprec():
        offset = {code: v for code, v in expansion.items() if code}
        powers = codes.powers(offset, codes.cap)
    exact_offset = {}
    for code, v in offset.items():
        ints, unit = mpf_ints([v])
        exact_offset[code] = ints[0] * Fraction(2) ** unit
    exact = codes.powers(exact_offset, codes.cap)
    bound = codes.powers({c: abs(v) for c, v in exact_offset.items()}, codes.cap)
    slack = (len(offset) + 1) * Fraction(2) ** (1 - bits)
    for m, (power, expected, size) in enumerate(zip(powers, exact, bound), 1):
        assert set(power) <= set(expected), m
        ints, unit = mpf_ints(power.values())
        for code, value in zip(power, ints):
            assert abs(value).bit_length() - (value & -value).bit_length() < bits
        values = dict(zip(power, (v * Fraction(2) ** unit for v in ints)))
        for code, v in expected.items():
            error = abs(values.get(code, 0) - v)
            assert error <= (m - 1) * slack * size[code], (m, code)


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


@st.composite
def rational_series_quotients(draw):
    """(codes, numerator, denominator): two series of Fraction coefficients
    on MonomialCodes(n, cap) by monomial key, the denominator's constant
    term nonzero."""
    n = draw(st.integers(min_value=1, max_value=3))
    cap = draw(st.integers(min_value=0, max_value=5))
    keys = keys_up_to(n, cap)
    coefficient = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    numerator = draw(st.dictionaries(st.sampled_from(keys), coefficient, max_size=8))
    denominator = draw(st.dictionaries(st.sampled_from(keys), coefficient, max_size=8))
    denominator[(0,) * n] = draw(coefficient.filter(bool))
    return MonomialCodes(n, cap), numerator, denominator


def fraction_quotient(numerator, denominator, keys):
    """Oracle: Q with Q * denominator = numerator up to the cap, solved on
    Fraction coefficients monomial by monomial in degree order."""
    n = len(keys[0])
    a0 = denominator[(0,) * n]
    quotient = {}
    for key in keys:
        value = numerator.get(key, Fraction(0))
        for factor, a in denominator.items():
            rest = tuple(x - y for x, y in zip(key, factor))
            if any(factor) and min(rest) >= 0:
                value -= a * quotient[rest]
        quotient[key] = value / a0
    return {key: v for key, v in quotient.items() if v}


def integer_series(codes, series):
    """Fraction series by key as integer_taylor holds them: (numerators by
    code, common denominator)."""
    den = math.lcm(*(v.denominator for v in series.values()))
    return {codes.encode(key): int(v * den) for key, v in series.items() if v}, den


@settings(max_examples=200, deadline=None)
@given(rational_series_quotients())
def test_series_division_matches_fraction_division(case):
    codes, numerator, denominator = case
    terms, den = _int_divide(
        *integer_series(codes, numerator), *integer_series(codes, denominator), codes
    )
    assert den > 0
    assert math.gcd(den, *terms.values()) == 1
    assert all(type(v) is int and v for v in terms.values())
    keys = keys_up_to(codes.n, codes.cap)
    assert decoded(codes, terms, den) == fraction_quotient(numerator, denominator, keys)


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


def test_zero_test_points_are_drawn_lazily_from_one_seeded_stream():
    # the same 8 points as drawing them all at once from Random(0x7EB5),
    # coordinate by coordinate, in the same order
    rng = random.Random(0x7EB5)
    expected = []
    for _ in range(8):
        point = []
        for _ in range(3):
            den = rng.randint(1, 64)
            point.append(Fraction(rng.randint(-3 * den, 3 * den), den))
        expected.append(tuple(point))
    points = _zero_test_points(3)
    assert next(points) == expected[0]
    assert [expected[0], *points] == expected


def catalog_texts():
    """("catalog", text, arity) of every catalog integral, once each."""
    seen = {}
    for name in family_names():
        E, _ = get_family(name)
        for web in E.webs:
            for u in web.integrals:
                seen.setdefault(("catalog", to_text(u), web.k), None)
    return list(seen)


def fixture_integrals():
    """(fixture name, text, arity) of every integral in the benchmarks/ web
    definitions."""
    out = []
    for path in sorted(BENCHMARKS.glob("*.json")):
        payload = json.loads(path.read_text())
        if "webs" in payload:
            for k, texts in enumerate(payload["webs"], start=1):
                out.extend((path.stem, text, k) for text in texts)
    return out


VARS_USED_CASES = [
    *catalog_texts(),
    *fixture_integrals(),
    ("edge", "x1+x2-x2", 2),
    ("edge", "x2", 2),
    ("edge", "exp(x1)+x2", 2),
    ("edge", "log(x1)*x2 + x3^2 - x3*x3", 3),
    ("edge", "1/(x1-x2) + x2/(x1-x2)", 2),
    ("edge", "exp(x1+log(x2))", 2),
    ("edge", "exp(x1+x2-x2)*x3", 3),
    ("edge", "exp(x1-x1)*x2", 2),
    ("edge", "x2*exp(x1)/exp(x1)", 2),
]


# each case is named by its source and text, so a new fixture under
# benchmarks/ adds ids without renaming any
@pytest.mark.parametrize(
    "text,arity",
    [
        pytest.param(text, arity, id=f"{source}:{text}")
        for source, text, arity in VARS_USED_CASES
    ],
)
def test_vars_used_matches_the_symbolic_partials(text, arity):
    e = parse(text, arity)
    assert vars_used(e) == diff_vars_used(e)


def float_vars_used(e):
    """vars_used with every point tested in 128-bit float, the test it
    ran on every exp/log tree before the modular one."""
    present = variables(e)
    used, expanded = set(), False
    for point in _zero_test_points(max(present)):
        try:
            used |= _nonzero_partials(e, point, Mode.floating())
        except EvalError:
            continue
        expanded = True
    return used if expanded else present


MODULAR_CASES = [
    (source, text, arity)
    for source, text, arity in VARS_USED_CASES
    if mode_for([parse(text, arity)]).is_modular
]


def test_the_modular_cases_cover_the_exp_family_and_the_float_fixture():
    sources = {(source, text) for source, text, _ in MODULAR_CASES}
    E, _ = get_family("k0_4_exp")
    exp_integrals = {to_text(u) for u in E.all_integrals() if has_transcendental(u)}
    assert {("catalog", text) for text in exp_integrals} <= sources
    assert {source for source, _ in sources} == {
        "catalog",
        "dependent_gradients_float_k0_4",
        "edge",
    }


@pytest.mark.parametrize(
    "text,arity",
    [
        pytest.param(text, arity, id=f"{source}:{text}")
        for source, text, arity in MODULAR_CASES
    ],
)
def test_modular_vars_used_equals_the_float_test(text, arity, monkeypatch):
    e = parse(text, arity)
    expected = float_vars_used(e)
    modes = []

    def spy(e, point, mode=EXACT, modulus=None):
        modes.append(mode.kind)
        return series_gradient(e, point, mode, modulus)

    monkeypatch.setattr(tpoly, "series_gradient", spy)
    assert vars_used(e) == expected
    assert modes and set(modes) == {"modular"}


def test_a_modulus_error_at_a_test_point_takes_the_float_test(monkeypatch):
    e = parse("exp(x1+x2-x2)*x3", 3)
    first = next(_zero_test_points(3))
    modes = []

    def planted(expansions, point):
        if point == first:
            raise ModulusError("planted")
        return modulus_at(expansions, point)

    def spy(e, point, mode=EXACT, modulus=None):
        modes.append((point == first, mode.label()))
        return series_gradient(e, point, mode, modulus)

    monkeypatch.setattr(tpoly, "modulus_at", planted)
    monkeypatch.setattr(tpoly, "series_gradient", spy)
    assert vars_used(e) == {1, 3}
    assert modes[0] == (True, "float128")
    assert all(label == Mode.modular().label() for _, label in modes[1:])
