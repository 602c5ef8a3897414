import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webrank.catalog import family_names, get_family
from webrank.combin import monomial_count
from webrank.expr import EvalError, diff, evaluate, has_transcendental, parse, to_text
from webrank.ordinary import GenericPointSampler
from webrank.report import CONFIRMATIONS_FOR_FALSE, FALSE, TRUE
from webrank.scalars import EXACT, Mode
from webrank.tpoly import series_gradient
from webrank import web as web_module
from webrank.web import (
    _direction,
    assemble,
    balanced_set,
    balanced_set_from_json,
    cross_ratio_family,
    gradients_proportional,
    is_quasi_symmetric,
    load_balanced_set,
    multi_indices,
    proportional_pairs,
    validate_balanced,
    web_gradients,
)

from helpers import permute_ambient


def quadrics():
    E, _ = get_family("k0_3_quadrics")
    return E


def test_multi_indices():
    assert multi_indices(2, 3) == [(1, 2), (1, 3), (2, 3)]
    assert multi_indices(3, 3) == [(1, 2, 3)]
    assert multi_indices(1, 4) == [(1,), (2,), (3,), (4,)]
    with pytest.raises(ValueError):
        multi_indices(3, 2)


@pytest.mark.parametrize("n,count", [(2, 4), (3, 10), (4, 20)])
def test_assemble_counts(n, count):
    assert assemble(quadrics(), n).size == count


def test_assemble_substitutes_sources():
    W = assemble(quadrics(), 3)
    by_label = {entry.label: entry for entry in W.entries}
    assert by_label[(2, 2, 1)].integral == parse("x1+x3", 3)
    assert by_label[(2, 2, 2)].integral == parse("x1-x3", 3)
    assert by_label[(3, 1, 1)].integral == parse("x1^2+x2^2+x3^2", 3)
    assert by_label[(2, 2, 1)].source == (1, 3)


def test_assemble_labels_strictly_increasing_and_unique():
    W = assemble(quadrics(), 4)
    labels = [entry.label for entry in W.entries]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)


def test_assemble_count_matches_support_split_up_to_k0_5():
    # synthetic arity-5 balanced set: only cardinalities matter for counting
    webs = []
    for k in range(1, 6):
        want = monomial_count(k, 5 - k)
        base = parse("+".join(f"x{j}" for j in range(1, k + 1)), k)
        integrals = []
        for b in range(want):
            integrals.append(
                parse(
                    "+".join(f"x{j}" for j in range(1, k + 1)) + f"+{b}*x1^2",
                    k,
                )
            )
        webs.append(integrals)
    E5 = balanced_set(5, webs)
    for n in range(2, 9):
        assert assemble(E5, n).size == monomial_count(n, 5)


def test_validate_balanced_good_family():
    report = validate_balanced(quadrics(), 3, GenericPointSampler(seed=0))
    assert report.verdict == TRUE


def test_validate_balanced_detects_proportional_pair():
    E = balanced_set(
        3,
        [
            [parse("x1", 1)],
            [parse("x1+x2", 2), parse("2*x1+2*x2", 2)],
            [parse("x1+x2+x3", 3)],
        ],
    )
    report = validate_balanced(E, 3, GenericPointSampler(seed=0))
    assert report.verdict == FALSE
    web_checks = [c for c in report.checks if c["check"] == "web_condition"]
    assert web_checks and web_checks[0]["proportional_pairs"]


def test_web_condition_false_needs_four_proportional_points():
    E = balanced_set(
        3,
        [
            [parse("x1", 1)],
            [parse("x1+x2", 2), parse("2*x1+2*x2", 2)],
            [parse("x1+x2+x3", 3)],
        ],
    )
    report = validate_balanced(E, 3, GenericPointSampler(seed=0))
    (record,) = [c for c in report.checks if c["check"] == "web_condition"]
    assert record["verdict"] == FALSE
    assert len(record["proportional_points"]) == CONFIRMATIONS_FOR_FALSE
    assert len({tuple(p["point"]) for p in record["proportional_points"]}) == 4
    assert all(p["proportional_pairs"] for p in record["proportional_points"])


def test_web_condition_samples_past_a_thin_set_point():
    # seed 1 first samples x1 = 1, where the Moebius ratio's gradients are
    # proportional; the next sampled point certifies the web condition.
    E, _ = get_family("k0_3_moebius_sum")
    report = validate_balanced(E, 4, GenericPointSampler(seed=1))
    assert report.verdict == TRUE
    (record,) = [c for c in report.checks if c["check"] == "web_condition"]
    assert record["verdict"] == TRUE
    assert record["proportional_pairs"] == []
    assert record["proportional_points"][0]["point"][0] == "1"


def test_validate_balanced_detects_missing_variable():
    E = balanced_set(2, [[parse("x1", 1)], [parse("x1", 2)]])
    report = validate_balanced(E, 2, GenericPointSampler(seed=0))
    assert report.verdict == FALSE
    bad = [
        c
        for c in report.checks
        if c["check"] == "all_variables_used" and c["verdict"] == FALSE
    ]
    assert bad and bad[0]["k"] == 2


def test_validate_balanced_detects_wrong_cardinality():
    E = balanced_set(
        3,
        [
            [parse("x1", 1)],
            [parse("x1+x2", 2)],  # needs two integrals
            [parse("x1+x2+x3", 3)],
        ],
    )
    report = validate_balanced(E, 3, GenericPointSampler(seed=0))
    assert report.verdict == FALSE


def test_quasi_symmetric_pairs():
    E = balanced_set(
        3,
        [
            [parse("x1", 1)],
            [parse("x1+x2", 2), parse("x1-x2", 2)],
            [parse("x1+x2+x3", 3)],
        ],
    )
    assert is_quasi_symmetric(E, 4, GenericPointSampler(seed=0)) == {
        1: True,
        2: True,
        3: True,
    }


def test_not_quasi_symmetric():
    E = balanced_set(
        3,
        [
            [parse("x1", 1)],
            [parse("x1+2*x2", 2), parse("x1*x2", 2)],
            [parse("x1+x2+x3", 3)],
        ],
    )
    verdicts = is_quasi_symmetric(E, 4, GenericPointSampler(seed=0))
    assert verdicts[1] is True
    assert verdicts[2] is False


def test_cross_ratio_family_affine():
    family = cross_ratio_family(parse("(x1-x3)/(x2-x3)", 3), [0, 1])
    assert [len(web.integrals) for web in family.webs] == [1, 2, 1]
    texts = [[to_text(u) for u in web.integrals] for web in family.webs]
    assert texts[1] == ["x1/x2", "(x1 - 1)/(x2 - 1)"]
    assert texts[2] == ["(x1 - x3)/(x2 - x3)"]
    # T_1 is the ratio with both marks substituted: (x1-1)/(0-1)
    assert family.webs[0].integrals[0] == parse("(x1-1)/(0-1)", 1)


def test_cross_ratio_family_cardinalities_match_counts():
    for k0 in range(2, 7):
        for k in range(1, k0 + 1):
            from webrank.combin import binom

            assert binom(k0 - 1, k0 - k) == monomial_count(k, k0 - k)


def test_cross_ratio_family_rejects_duplicate_marks():
    with pytest.raises(ValueError):
        cross_ratio_family(parse("(x1-x3)/(x2-x3)", 3), [0, 0])


def test_cross_ratio_family_translates_fail_validation():
    family = cross_ratio_family(parse("x1+x2+x3", 3), [0, 1])
    texts = [to_text(u) for u in family.webs[1].integrals]
    assert texts == ["x1 + x2", "x1 + x2 + 1"]
    report = validate_balanced(family, 2, GenericPointSampler(seed=0))
    assert report.verdict == FALSE


def test_json_roundtrip(tmp_path):
    E = quadrics()
    payload = {
        "k0": E.k0,
        "webs": [[to_text(u) for u in web.integrals] for web in E.webs],
    }
    assert balanced_set_from_json(payload) == E
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload))
    assert load_balanced_set(str(path)) == E


def test_json_rejects_malformed(tmp_path):
    with pytest.raises(ValueError):
        balanced_set_from_json({"k0": 2, "webs": [["x1"]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k0": 2, "webs": [["x1"], ["x1 + "]]}))
    with pytest.raises(Exception):
        load_balanced_set(str(path))


def test_reassembly_after_ambient_permutation_same_foliations():
    # quasi-symmetric family: permuting ambient coordinates permutes the web
    E = quadrics()
    W = assemble(E, 3)
    permuted = permute_ambient(W, [2, 3, 1])
    sampler = GenericPointSampler(seed=5)
    point = sampler.point(3)
    original = [series_gradient(e.integral, point, EXACT)[0] for e in W.entries]
    images = [series_gradient(e.integral, point, EXACT)[0] for e in permuted.entries]
    matched = set()
    for image in images:
        found = None
        for idx, grad in enumerate(original):
            if idx not in matched and gradients_proportional(image, grad, EXACT):
                found = idx
                break
        assert found is not None
        matched.add(found)
    assert len(matched) == W.size


# --------------------------------------------------------------------------
# fast gradient paths against their oracles

def all_pairs_scan(gradients, mode):
    return [
        (i, j)
        for i in range(len(gradients))
        for j in range(i + 1, len(gradients))
        if gradients_proportional(gradients[i], gradients[j], mode)
    ]


nonzero_scalars = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
).filter(lambda v: v != 0)


@st.composite
def gradient_lists(draw):
    """Gradients with duplicated, negated, scaled and zero members, shuffled."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=8),
        st.just(Fraction(0)),
    )
    vectors = st.lists(entry, min_size=n, max_size=n)
    base = draw(st.lists(vectors, min_size=1, max_size=5))
    gradients = list(base)
    for g in base:
        copies = draw(st.integers(min_value=0, max_value=3))
        for _ in range(copies):
            factor = draw(st.one_of(st.just(1), st.just(-1), nonzero_scalars))
            gradients.append([factor * v for v in g])
    gradients.extend([[Fraction(0)] * n] * draw(st.integers(min_value=0, max_value=2)))
    return draw(st.permutations(gradients))


@settings(max_examples=150, deadline=None)
@given(gradient_lists())
def test_proportional_pairs_exact_matches_all_pairs_scan(gradients):
    assert proportional_pairs(gradients, EXACT) == all_pairs_scan(gradients, EXACT)


def ints_at_one_unit(gradients):
    """mpf gradients as ints over the lowest binary exponent of their
    nonzero components, as web_gradients hands them to the screen:
    (ints, unit), each int times 2^unit equal to its mpf."""
    parts = [
        [(-man if sign else man, exp) for sign, man, exp, _ in (v._mpf_ for v in g)]
        for g in gradients
    ]
    unit = min((exp for g in parts for man, exp in g if man), default=0)
    return [[man << (exp - unit) if man else 0 for man, exp in g] for g in parts], unit


def test_float_proportionality_is_decided_at_the_mode_precision():
    # The minor is 2^-60 of the gradients' scale: above the 2^-64 threshold
    # at 128 bits, below the 2^-26 threshold at 53 bits.  As ints at the
    # unit 2^-60 the gradients are (2^60, 2^60) and (2^60, 2^60 + 1).
    mode = Mode.floating(128)
    with mode.workprec():
        g1 = [mpmath.mpf(1), mpmath.mpf(1)]
        g2 = [mpmath.mpf(1), 1 + mpmath.ldexp(1, -60)]
    ints, unit = ints_at_one_unit([g1, g2])
    assert (ints, unit) == ([[2**60, 2**60], [2**60, 2**60 + 1]], -60)
    assert not gradients_proportional(g1, g2, mode)
    assert proportional_pairs(ints, mode) == []
    assert proportional_pairs(ints, Mode.floating(53)) == [(0, 1)]


@st.composite
def float_gradient_lists(draw, precision):
    """mpf gradients at the precision: random ones, zero ones, scaled and
    negated copies, and band pairs (v, w) whose minor (a, b) lies at the
    bound 2^-(precision//2) up to rounding, inside the band where
    proportional_pairs hands the pair to the mpf minor test."""
    n = draw(st.integers(min_value=2, max_value=4))
    half = precision // 2
    mantissa = st.integers(min_value=-(2**precision), max_value=2**precision)
    gradients = []
    with mpmath.workprec(precision):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            g = [
                mpmath.ldexp(draw(mantissa), draw(st.integers(-precision - 8, 0)))
                for _ in range(n)
            ]
            gradients.append(g)
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                factor = mpmath.ldexp(draw(mantissa), -precision // 2)
                gradients.append([factor * v for v in g])
            if draw(st.booleans()):
                gradients.append([-v for v in g])
        full = st.integers(min_value=2 ** (precision - 1), max_value=2**precision - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            a, b = draw(st.permutations(range(n)))[:2]
            # v[a] = 1 is the largest component of v and of w, the minor
            # (a, b) of (v, w) is w[b] - v[b], and the others are at most
            # half of it; full mantissas make the scaled minors round, so
            # the mpf test and the exact one disagree on some of these pairs
            v = [mpmath.ldexp(draw(mantissa), -precision - 1) for _ in range(n)]
            v[a] = mpmath.mpf(1)
            v[b] = mpmath.ldexp(draw(full), -precision - 1)
            k = draw(st.integers(min_value=-8, max_value=8))
            w = list(v)
            w[b] = v[b] + mpmath.ldexp(1 + mpmath.ldexp(k, 4 - precision), -half)
            for g in (v, w):
                scale = mpmath.ldexp(draw(full), -precision)
                gradients.append([scale * x for x in g])
        gradients.extend([[mpmath.mpf(0)] * n] * draw(st.integers(0, 2)))
    return draw(st.permutations(gradients))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([16, 32, 64, 128]).flatmap(
        lambda p: st.tuples(float_gradient_lists(p), st.just(p))
    ),
    st.booleans(),
)
def test_float_proportional_pairs_on_ints_match_the_mpf_scan(case, one_unit):
    # the int screen, on the gradients at one unit or each at its own,
    # against the mpf minor test on the mpf gradients
    gradients, precision = case
    mode = Mode.floating(precision)
    if one_unit:
        ints, _ = ints_at_one_unit(gradients)
    else:
        ints = [ints_at_one_unit([g])[0][0] for g in gradients]
    assert proportional_pairs(ints, mode) == all_pairs_scan(gradients, mode)


def test_pairs_inside_the_band_are_decided_by_the_mpf_test(monkeypatch):
    # v = (1, 0) and w_k = (1, 2^-32 (1 + k 2^-56)) at 64 bits, as ints at
    # the unit 2^-88: each minor of (v, w_k) is w_k[1], within 2^-56 of the
    # bound 2^-32, so the int test hands those pairs to the mpf test, which
    # accepts k <= 0
    mode = Mode.floating(64)
    v = [1 << 88, 0]
    ws = [[1 << 88, (1 << 56) + k] for k in (-1, 0, 1)]
    with mode.workprec():
        floats = [[mpmath.ldexp(x, -88) for x in g] for g in (v, *ws)]
    assert ints_at_one_unit(floats) == ([v, *ws], -88)
    calls = []
    original = web_module._minors_vanish

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(web_module, "_minors_vanish", counted)
    pairs = proportional_pairs([v, *ws], mode)
    assert len(calls) == 3
    assert pairs == all_pairs_scan(floats, mode)
    assert pairs == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def fraction_normalized_pairs(gradients):
    """Oracle: exact pairs by the Fraction key, each nonzero gradient divided
    by its first nonzero component; a zero gradient pairs with every other."""
    groups, zeros = {}, []
    for i, g in enumerate(gradients):
        head = next((Fraction(v) for v in g if v), None)
        if head is None:
            zeros.append(i)
        else:
            groups.setdefault(tuple(v / head for v in g), []).append(i)
    pairs = {
        (a, b) for members in groups.values() for a in members for b in members if a < b
    }
    for z in zeros:
        pairs.update((min(z, i), max(z, i)) for i in range(len(gradients)) if i != z)
    return sorted(pairs)


@settings(max_examples=200, deadline=None)
@given(gradient_lists(), st.data())
def test_integer_direction_key_gives_the_fraction_key_pairs(gradients, data):
    # web_gradients hands the screen int vectors, positive multiples of the
    # rational gradients: clear each one with its own positive factor
    cleared = []
    for g in gradients:
        factor = data.draw(st.integers(min_value=1, max_value=50))
        lcm = math.lcm(*(v.denominator for v in g))
        cleared.append([int(v * lcm) * factor for v in g])
    expected = fraction_normalized_pairs(gradients)
    assert proportional_pairs(cleared, EXACT) == expected
    assert proportional_pairs(gradients, EXACT) == expected
    for g, c in zip(gradients, cleared):
        key = _direction(c)
        assert key == _direction(g)
        if key is None:
            assert not any(g)
        else:
            assert math.gcd(*key) == 1
            assert next(v for v in key if v) > 0
            assert all(type(v) is int for v in key)


def catalog_integrals():
    """(generating integral, arity) for every catalog family, once each."""
    seen = {}
    for name in family_names():
        E, _ = get_family(name)
        for web in E.webs:
            for u in web.integrals:
                seen.setdefault((u, web.k), None)
    return list(seen)


CATALOG_INTEGRALS = catalog_integrals()


def diff_oracle(e, point, mode):
    """The partials by diff + evaluate, or None where e or a partial is
    undefined."""
    try:
        evaluate(e, point, mode)
        return [evaluate(diff(e, j), point, mode) for j in range(1, len(point) + 1)]
    except EvalError:
        return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CATALOG_INTEGRALS), st.integers(min_value=0, max_value=10**6))
def test_series_gradient_matches_differentiating_at_the_point(item, seed):
    e, k = item
    point = GenericPointSampler(seed=seed).point(k)
    modes = [Mode.floating(bits) for bits in (53, 128)]
    if not has_transcendental(e):
        modes.insert(0, EXACT)
    for mode in modes:
        oracle = diff_oracle(e, point, mode)
        if oracle is None:
            with pytest.raises(EvalError):
                series_gradient(e, point, mode)
            continue
        values, scale = series_gradient(e, point, mode)
        assert all(type(v) is int for v in values)
        if mode.is_exact:
            assert scale == math.lcm(*(v.denominator for v in oracle))
            assert [Fraction(v, scale) for v in values] == oracle
            continue
        with mode.workprec():
            floats = [mpmath.ldexp(v, scale) for v in values]
            largest = max(1, *map(abs, oracle))
            tolerance = mpmath.ldexp(largest, 16 - mode.precision)
            assert all(abs(v - o) <= tolerance for v, o in zip(floats, oracle))


@pytest.mark.parametrize(
    "text,point",
    [
        ("1/x1 + x2", (Fraction(0), Fraction(1))),
        ("x1/(x1 - x2)^2", (Fraction(2), Fraction(2))),
        ("log(x1) + x2", (Fraction(-1, 3), Fraction(1))),  # its partials are defined
        ("exp(x1)/(x2 - 1)", (Fraction(1, 2), Fraction(1))),
    ],
)
def test_series_gradient_raises_where_the_integral_is_undefined(text, point):
    e = parse(text, 2)
    mode = Mode.floating(128) if "exp" in text or "log" in text else EXACT
    with pytest.raises(EvalError):
        series_gradient(e, point, mode)


# --------------------------------------------------------------------------
# web gradients from the generating integrals at the projected points

FIVE_POINT = (Fraction(3, 7), Fraction(-5, 11), Fraction(9, 4), Fraction(-2, 3), 5)


def catalog_webs():
    """(assembled web, mode) for every family at n = 2..k0+1."""
    out = []
    for name in family_names():
        E, _ = get_family(name)
        out.extend((assemble(E, n), E.default_mode()) for n in range(2, E.k0 + 2))
    return out


def test_web_gradients_match_differentiating_the_assembled_entries():
    for W, mode in catalog_webs():
        point = FIVE_POINT[: W.n]
        oracle = [
            [evaluate(diff(entry.integral, j), point, mode) for j in range(1, W.n + 1)]
            for entry in W.entries
        ]
        gradients, unit = web_gradients(W, point, mode)
        assert all(type(v) is int for g in gradients for v in g)
        if mode.is_exact:
            # each gradient times the lcm of its denominators, unit None
            assert unit is None
            assert gradients == [
                [v * math.lcm(*(w.denominator for w in g)) for v in g] for g in oracle
            ]
        else:
            # exp-family partials come out of the series bit for bit, as
            # ints times 2^unit
            with mode.workprec():
                floats = [[mpmath.ldexp(v, unit) for v in g] for g in gradients]
            assert floats == oracle
