import pytest

from webrank.catalog import family_names, get_family
from webrank.combin import monomial_count
from webrank.expr import has_transcendental, parse
from webrank.ordinary import GenericPointSampler
from webrank.report import TRUE
from webrank.web import is_quasi_symmetric, validate_balanced

ALL_NAMES = family_names()


def test_catalog_contents():
    assert "k0_2_linear" in ALL_NAMES
    assert "k0_3_quadrics" in ALL_NAMES
    assert "k0_3_crossratio_affine" in ALL_NAMES
    assert "k0_4_exp" in ALL_NAMES
    assert "k0_4_pereira_pirio_affine" in ALL_NAMES
    assert {"k0_4_WB_sum", "k0_4_WB_quad", "k0_4_WB_prod"} <= set(ALL_NAMES)


def test_aliases_resolve_to_first_variant():
    assert get_family("k0_4_WB")[1].name == "k0_4_WB_sum"
    assert get_family("k0_3_sym")[1].name == "k0_3_sym_sum"


def test_unknown_family_raises():
    with pytest.raises(KeyError):
        get_family("k0_9_unknown")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cardinalities_match_counts(name):
    E, spec = get_family(name)
    assert E.k0 == spec.k0
    for k in range(1, E.k0 + 1):
        assert len(E.generating_web(k).integrals) == monomial_count(k, E.k0 - k)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_expressions_parse_at_declared_arities(name):
    _, spec = get_family(name)
    for k, integrals in enumerate(spec.webs, start=1):
        for text in integrals:
            parse(text, k)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_expected_flags_are_positive(name):
    _, spec = get_family(name)
    assert spec.expected_ordinary and spec.expected_max_rank
    assert spec.provenance


@pytest.mark.parametrize("name", ALL_NAMES)
def test_validates_at_k0_and_above(name):
    E, _ = get_family(name)
    for n in (E.k0, E.k0 + 1):
        report = validate_balanced(E, n, GenericPointSampler(seed=0))
        assert report.verdict == TRUE, f"{name} failed validation at n={n}"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_families_quasi_symmetric(name):
    E, _ = get_family(name)
    verdicts = is_quasi_symmetric(E, 3, GenericPointSampler(seed=0))
    if name == "k0_4_exp":
        # x1+x2-x3 maps to x1+x3-x2 under a transposition: a genuinely
        # different foliation, so this family is not quasi-symmetric at k=3
        assert verdicts == {1: True, 2: True, 3: False, 4: True}
    else:
        assert all(verdicts.values()), f"{name}: {verdicts}"


def test_quadrics_shape():
    E, _ = get_family("k0_3_quadrics")
    assert [len(web.integrals) for web in E.webs] == [1, 2, 1]


def test_exp_family_is_transcendental():
    E, _ = get_family("k0_4_exp")
    third = E.generating_web(3).integrals
    assert any(has_transcendental(u) for u in third)
    assert E.default_mode().label() == "exact mod 2^61-1 at t=e^(1/L)"


def test_WB_prod_top_integral():
    E, _ = get_family("k0_4_WB_prod")
    assert E.generating_web(4).integrals[0] == parse("x1*x2*x3*x4", 4)


def test_pereira_pirio_is_rational():
    E, _ = get_family("k0_4_pereira_pirio_affine")
    assert E.default_mode().label() == "exact"


def test_crossratio_matches_generator():
    from webrank.web import cross_ratio_family

    E, _ = get_family("k0_3_crossratio_affine")
    generated = cross_ratio_family(parse("(x1-x3)/(x2-x3)", 3), [0, 1])
    assert E == generated
