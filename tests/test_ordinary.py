import inspect
from fractions import Fraction

import pytest

from webrank import ordinary
from webrank.catalog import get_family
from webrank.expr import parse
from webrank.ordinary import (
    GenericPointSampler,
    check_finite_criterion,
    check_ordinary_at,
    crosscheck_ordinary,
)
from webrank.report import FALSE, INCONCLUSIVE, TRUE
from webrank.scalars import EXACT, Mode
from webrank.web import assemble, balanced_set, balanced_set_from_json

from helpers import reparametrize_generating


def dependent_gradient_family():
    return balanced_set(
        4,
        [
            [parse("x1", 1)],
            [parse("x1+x2", 2), parse("x1-x2", 2), parse("x1*x2", 2)],
            [
                parse("x1+x2+x3", 3),
                parse("x1+2*x2+3*x3", 3),
                parse("2*x1+3*x2+4*x3", 3),
            ],
            [parse("x1+x2+x3+x4", 4)],
        ],
    )


# --------------------------------------------------------------------------
# sampler

def test_sampler_deterministic():
    a = GenericPointSampler(seed=11)
    b = GenericPointSampler(seed=11)
    assert [a.point(3) for _ in range(4)] == [b.point(3) for _ in range(4)]


def test_sampler_respects_bounds():
    sampler = GenericPointSampler(seed=1)
    for _ in range(50):
        for coord in sampler.point(4):
            assert Fraction(-3) <= coord <= Fraction(3)
            assert coord.denominator <= 64


def test_sampler_points_are_one_search_of_point_draws():
    a = GenericPointSampler(seed=4)
    b = GenericPointSampler(seed=4)
    drawn = list(a.points(3))
    assert len(drawn) == GenericPointSampler.MAX_RETRIES == 32
    assert drawn == [b.point(3) for _ in range(32)]


def test_sampler_points_are_drawn_lazily():
    a = GenericPointSampler(seed=4)
    b = GenericPointSampler(seed=4)
    assert next(a.points(2)) == b.point(2)
    assert a.point(2) == b.point(2)  # nothing drawn past the point pulled


def test_sampler_is_set_by_its_seed_only():
    assert list(inspect.signature(GenericPointSampler).parameters) == ["seed"]


def test_sampler_spawn_is_deterministic_and_distinct():
    base = GenericPointSampler(seed=2)
    assert base.spawn(0).point(2) == GenericPointSampler(seed=2).spawn(0).point(2)
    assert base.spawn(0).seed != base.spawn(1).seed


# --------------------------------------------------------------------------
# float jet ranks against exact ones

def rational_dependent_gradient_family():
    """benchmarks/dependent_gradients_float_k0_4.json with x1 for exp(x1).

    Its arity-3 integrals carry denominators no binary float holds, so a
    jet product rounded below the working precision leaves a residue that
    reads as a pivot.
    """
    return balanced_set_from_json(
        {
            "k0": 4,
            "webs": [
                ["x1"],
                ["x1+x2", "x1-x2", "x1*x2"],
                ["(x1+x2+x3)/3", "(x1+2*x2+3*x3)/7", "(2*x1+3*x2+4*x3)/11"],
                ["x1+x2+x3+x4"],
            ],
        }
    )


@pytest.mark.parametrize(
    "E, n, point",
    [
        pytest.param(
            get_family("k0_3_quadrics")[0],
            3,
            GenericPointSampler(seed=3).point(3),
            id="quadrics",
        ),
        pytest.param(
            rational_dependent_gradient_family(),
            4,
            (Fraction(20, 31), Fraction(-87, 34), Fraction(-5, 2), Fraction(-3)),
            id="dependent_gradients",
        ),
    ],
)
def test_float_ranks_at_point_equal_exact_ranks(E, n, point):
    W = assemble(E, n)
    exact, _ = ordinary.jet_ranks_at_point(W, point, EXACT, E.k0)
    floated, used = ordinary.jet_ranks_at_point(
        W, point, Mode.floating(128), E.k0
    )
    assert floated == exact
    assert used == Mode.floating(128)


# --------------------------------------------------------------------------
# finite criterion

def test_finite_criterion_quadrics():
    E, _ = get_family("k0_3_quadrics")
    report = check_finite_criterion(E, GenericPointSampler(seed=0))
    assert report.verdict == TRUE
    assert [c["verdict"] for c in report.checks] == [TRUE, TRUE, TRUE]
    assert report.checks[1]["witness"]["det"] is not None


def test_finite_criterion_exp_family():
    E, _ = get_family("k0_4_exp")
    report = check_finite_criterion(E, GenericPointSampler(seed=0))
    assert report.verdict == TRUE
    assert report.witnesses["mode"] == "exact mod 2^61-1 at t=e^(1/L)"
    # a block of full rank mod q, no float certificate
    assert [set(c["witness"]) for c in report.checks] == [{"point", "rank"}] * E.k0


def test_finite_criterion_dependent_gradients_false():
    report = check_finite_criterion(
        dependent_gradient_family(), GenericPointSampler(seed=0)
    )
    assert report.verdict == FALSE
    by_k = {c["k"]: c["verdict"] for c in report.checks}
    assert by_k[3] == FALSE
    assert by_k[1] == by_k[2] == by_k[4] == TRUE
    bad = next(c for c in report.checks if c["k"] == 3)
    assert len(bad["singular_witnesses"]) >= 4  # confirmed at extra points


# --------------------------------------------------------------------------
# direct check

@pytest.mark.parametrize(
    "n,expected",
    [(2, {1: 2, 2: 3, 3: 4}), (3, {1: 3, 2: 6, 3: 10}), (4, {1: 4, 2: 10, 3: 20})],
)
def test_direct_check_quadrics(n, expected):
    E, _ = get_family("k0_3_quadrics")
    report = check_ordinary_at(E, n, GenericPointSampler(seed=0))
    assert report.verdict == TRUE
    assert report.witnesses["certifying_point"]["ranks"] == expected


def test_direct_check_dependent_gradients_false():
    report = check_ordinary_at(
        dependent_gradient_family(), 4, GenericPointSampler(seed=0)
    )
    assert report.verdict == FALSE
    deficient = [c for c in report.checks if c["verdict"] == FALSE]
    assert [c["h"] for c in deficient] == [4]
    assert deficient[0]["best_rank"] == 31  # four dependent blocks lose one each


def scripted_ranks(monkeypatch, script):
    """Make jet_ranks_at_point answer the rank dicts of `script` in turn."""
    answers = iter(script)
    calls = []

    def fake(W, point, mode, k0):
        calls.append(point)
        return next(answers), mode

    monkeypatch.setattr(ordinary, "jet_ranks_at_point", fake)
    return calls


def test_direct_check_never_all_orders_at_one_point_is_inconclusive(monkeypatch):
    # k0_3_quadrics at n=3 expects ranks {1: 3, 2: 6, 3: 10}.  Every order
    # reaches its rank at some point, never all three at one point: four
    # failing points show no deficient order, so the answer is not "false".
    script = [
        {1: 3, 2: 5, 3: 10},
        {1: 3, 2: 6, 3: 9},
        {1: 2, 2: 6, 3: 10},
        {1: 3, 2: 5, 3: 9},
        {1: 3, 2: 6, 3: 10},
    ]
    calls = scripted_ranks(monkeypatch, script)
    E, _ = get_family("k0_3_quadrics")
    report = check_ordinary_at(E, 3, GenericPointSampler(seed=0))
    assert report.verdict == INCONCLUSIVE
    assert len(calls) == 4  # decided at the fourth failing point
    assert [c["best_rank"] for c in report.checks] == [3, 6, 10]
    assert [c["verdict"] for c in report.checks] == [TRUE, TRUE, TRUE]
    assert len(report.witnesses["points"]) == 4
    assert report.witnesses["certifying_point"] is None


def test_direct_check_scripted_deficient_order_is_false(monkeypatch):
    script = [{1: 3, 2: 6, 3: 9}, {1: 3, 2: 5, 3: 9}] * 3
    calls = scripted_ranks(monkeypatch, script)
    E, _ = get_family("k0_3_quadrics")
    report = check_ordinary_at(E, 3, GenericPointSampler(seed=0))
    assert report.verdict == FALSE
    assert len(calls) == 4
    assert [c["verdict"] for c in report.checks] == [TRUE, TRUE, FALSE]


def test_direct_check_rejects_small_dimension():
    E, _ = get_family("k0_3_quadrics")
    with pytest.raises(ValueError):
        check_ordinary_at(E, 1, GenericPointSampler(seed=0))


# --------------------------------------------------------------------------
# crosscheck

def test_crosscheck_quadrics():
    E, _ = get_family("k0_3_quadrics")
    report = crosscheck_ordinary(E, [2, 3, 4], GenericPointSampler(seed=0))
    assert report.verdict == TRUE


def test_crosscheck_counterexample_agrees_on_false():
    report = crosscheck_ordinary(
        dependent_gradient_family(), [4], GenericPointSampler(seed=0)
    )
    assert report.verdict == TRUE
    assert report.checks[0]["finite_criterion"] == FALSE
    assert report.checks[0]["direct"][4] == FALSE


def test_crosscheck_exp_family():
    E, _ = get_family("k0_4_exp")
    report = crosscheck_ordinary(E, [2, 3], GenericPointSampler(seed=0))
    assert report.verdict == TRUE


# --------------------------------------------------------------------------
# invariances

def test_verdicts_invariant_under_seed_change():
    E, _ = get_family("k0_3_quadrics")
    for seed in (0, 1):
        assert check_finite_criterion(E, GenericPointSampler(seed=seed)).verdict == TRUE
        assert (
            check_ordinary_at(E, 3, GenericPointSampler(seed=seed)).verdict == TRUE
        )
    bad = dependent_gradient_family()
    for seed in (0, 1):
        assert (
            check_finite_criterion(bad, GenericPointSampler(seed=seed)).verdict
            == FALSE
        )


def test_finite_criterion_invariant_under_reparametrization():
    E, _ = get_family("k0_3_quadrics")
    for k, b in [(2, 0), (2, 1), (3, 0)]:
        changed = reparametrize_generating(E, k, b)
        report = check_finite_criterion(changed, GenericPointSampler(seed=0))
        assert report.verdict == TRUE
