"""Modular mode: exp webs ranked mod q = 2^61 - 1 at t = e^(1/L).

The exp family and the float dependent-gradients fixture are the webs whose
only exp/log nodes are exp of exp/log-free arguments.  Their modular ranks
are checked against the float128 path and the mpf oracle
(linalg.rank_float_rows) at the same points, the fixture's singular square
block against full rank, and an input with a denominator divisible by q
against float mode.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from webrank import linalg
from webrank.abelrank import (
    _exact_dims,
    _relation_columns,
    _relation_rows,
    check_rank,
    generic_point_for_web,
)
from webrank.catalog import get_family
from webrank.cli import main
from webrank.expr import EvalError, parse
from webrank.jets import jet_matrix_from_gradients, square_block
from webrank.ordinary import (
    GenericPointSampler,
    check_finite_criterion,
    check_ordinary_at,
    jet_ranks_at_point,
)
from webrank.report import FALSE, TRUE
from webrank.scalars import MODULUS, Mode, ModulusError
from webrank.tpoly import MonomialCodes, integer_taylor, modulus_at
from webrank.web import (
    assemble,
    balanced_set_from_json,
    proportional_pairs,
    validate_balanced,
    web_gradients,
)

from helpers import dense_rows, mpf_relation_rows, oracle_float_rank

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
FLOAT128 = Mode.floating(128)
MODULAR = Mode.modular()


def web_definition(name):
    return balanced_set_from_json(json.loads((BENCHMARKS / name).read_text()))


EXP_WEBS = {
    "k0_4_exp": get_family("k0_4_exp")[0],
    "dependent_gradients_float_k0_4": web_definition(
        "dependent_gradients_float_k0_4.json"
    ),
}

# an in-class web with a constant over q in its arity-1 integral: every
# modular check that expands it falls back to float mode
Q_WEB = {"k0": 2, "webs": [[f"exp(x1)*{MODULUS + 1}/{MODULUS}"], ["x1+x2"]]}


@pytest.mark.parametrize(
    "webs,kind",
    [
        ([["x1"], ["x1+x2"]], "exact"),
        ([["exp(x1)"], ["x1+x2"]], "modular"),
        ([["x1"], ["exp((x1+2*x2)/3)*x1/(x2+5)"]], "modular"),
        ([["log(x1)"], ["x1+x2"]], "float"),
        ([["exp(exp(x1))"], ["x1+x2"]], "float"),
        ([["x1"], ["exp(x1)+log(x2)"]], "float"),
    ],
)
def test_default_mode_is_modular_for_exp_of_exp_log_free_arguments(webs, kind):
    E = balanced_set_from_json({"k0": 2, "webs": webs})
    assert E.default_mode(64).kind == kind
    assert E.default_mode(64).precision == (0 if kind == "exact" else 64)


def test_modular_mode_validates_its_fallback_precision():
    with pytest.raises(ValueError):
        Mode.modular(4)
    assert MODULAR.precision == FLOAT128.precision
    assert MODULAR.label() == "exact mod 2^61-1 at t=e^(1/L)"


# --------------------------------------------------------------------------
# the walker mod q

def test_exp_series_mod_q_is_t0_to_the_rl_over_m_factorial():
    e = parse("exp(x1)", 1)
    point = (Fraction(-5, 6),)
    modulus = modulus_at([(e, point)], point)
    assert modulus.L == 6
    codes = MonomialCodes(1, 4)
    terms, den = integer_taylor(e, point, codes, modulus)
    constant = pow(modulus.t0, -5 % (MODULUS - 1), MODULUS)  # e^(-5/6) = t^-5
    factorial = 1
    for m in range(5):
        factorial *= max(m, 1)
        expected = constant * pow(factorial, -1, MODULUS) % MODULUS
        assert terms[codes.encode((m,))] == expected
    assert den == 1


def test_exp_of_a_sum_is_the_product_of_the_exps_mod_q():
    # one t for both trees: L = 3 * 4 covers every argument at the point
    point = (Fraction(1, 4), Fraction(-3, 2))
    whole = parse("exp((x1+2*x2)/3)", 2)
    parts = parse("exp(x1/3)*exp(2*x2/3)", 2)
    modulus = modulus_at([(whole, point), (parts, point)], point)
    assert modulus.L == 12
    codes = MonomialCodes(2, 4)
    assert integer_taylor(whole, point, codes, modulus) == integer_taylor(
        parts, point, codes, modulus
    )


@pytest.mark.parametrize("name", ["k0_3_moebius_prod", "k0_4_pereira_pirio_affine"])
def test_exp_free_trees_mod_q_are_the_exact_series_reduced(name):
    E, _ = get_family(name)
    point = (Fraction(2, 7), Fraction(-5, 3), Fraction(9, 4), Fraction(-1, 6))
    for u in E.all_integrals():
        at = point[: E.k0]
        modulus = modulus_at([(u, at)], at)
        codes = MonomialCodes(len(at), 4)
        terms, den = integer_taylor(u, at, codes)
        inverse = pow(den, -1, MODULUS)
        reduced = {c: v * inverse % MODULUS for c, v in terms.items()}
        assert integer_taylor(u, at, codes, modulus) == (
            {c: v for c, v in reduced.items() if v},
            1,
        )


@pytest.mark.parametrize(
    "text,point",
    [
        (f"exp(x1)/{MODULUS}", Fraction(1, 2)),  # a constant over q
        ("exp(x1)", Fraction(1, MODULUS)),  # a coordinate over q
        (f"x1/(x1-{MODULUS})", Fraction(0)),  # a divisor q, zero mod q
        ("1/(exp(x1)-1)", Fraction(0)),  # a divisor with exp: float decides
    ],
)
def test_a_denominator_divisible_by_q_raises(text, point):
    e = parse(text, 1)
    modulus = modulus_at([(e, (point,))], (point,))
    with pytest.raises(ModulusError):
        integer_taylor(e, (point,), MonomialCodes(1, 3), modulus)


def test_an_exp_free_divisor_that_is_zero_is_a_pole():
    e = parse("exp(x1)/(x1-1)", 1)
    modulus = modulus_at([(e, (1,))], (1,))
    with pytest.raises(EvalError):
        integer_taylor(e, (Fraction(1),), MonomialCodes(1, 3), modulus)


# --------------------------------------------------------------------------
# differential checks on the two in-class webs

def float_dims(W, point, orders):
    """The float128 path: each order built and ranked on its own, with no
    escalation."""
    dims = {}
    for order in orders:
        [(rank, _)], used = linalg.ranks(
            lambda m: [_relation_rows(W, point, order, m, order)], FLOAT128
        )
        assert used == FLOAT128
        dims[order] = W.size * order - rank
    return dims


def mpf_dims(W, point, orders):
    """The mpf oracle on the relation systems built on mpf."""
    dims = {}
    for order in orders:
        rows = mpf_relation_rows(W, point, order, FLOAT128)
        ncols = len(_relation_columns(W.n, order))
        rank, marginal = oracle_float_rank(dense_rows(rows, ncols), 128)
        assert not marginal
        dims[order] = W.size * order - rank
    return dims


def mpf_top_jet_rank(W, point, k0):
    """The mpf oracle on J_k0 of the float128 gradients."""
    gradients, _ = web_gradients(W, point, FLOAT128)
    rows = jet_matrix_from_gradients(W.n, k0, gradients)[-1]
    rank, marginal = oracle_float_rank(rows, 128)
    assert not marginal
    return rank


@pytest.mark.parametrize(
    "name,n,seed",
    [(name, n, seed) for name in EXP_WEBS for n in (2, 3, 4) for seed in range(5)],
)
def test_modular_ranks_equal_the_float_path_and_the_mpf_oracle(name, n, seed):
    # dims at m_start and m_start + 1 and the rank of J_k0, at the point the
    # modular rank check finds; the mpf relation systems at n = 4 (125 and
    # 209 monomial rows) take the dense oracle about 5 s a point, so there
    # the float128 path stands alone (benchmarks/bench_kernels.py compares
    # the kernels on the n = 4 order-6 system)
    E = EXP_WEBS[name]
    W = assemble(E, n)
    point = generic_point_for_web(W, GenericPointSampler(seed=seed), MODULAR)
    orders = (E.k0 + 1, E.k0 + 2)
    modular = dict(
        (order, dim)
        for order, dim, _ in itertools.islice(
            _exact_dims(W, point, orders[0], orders[1], MODULAR), 2
        )
    )
    assert modular == float_dims(W, point, orders)
    if n <= 3:
        assert modular == mpf_dims(W, point, orders)
    ranks, used = jet_ranks_at_point(W, point, MODULAR, E.k0)
    assert used == MODULAR
    assert ranks == jet_ranks_at_point(W, point, FLOAT128, E.k0)[0]
    assert ranks[E.k0] == mpf_top_jet_rank(W, point, E.k0)


@pytest.mark.parametrize("seed", range(5))
def test_the_singular_square_block_never_reads_full_rank_mod_q(seed):
    # the fixture's arity-3 generating web has dependent gradients
    E = EXP_WEBS["dependent_gradients_float_k0_4"]
    web = E.generating_web(3)
    ranked = 0
    for point in GenericPointSampler(seed=seed).points(3):
        try:
            [(rank, _)], used = linalg.ranks(
                lambda m: [square_block(web, E.k0, point, m)], MODULAR
            )
        except EvalError:
            continue
        assert used == MODULAR
        assert rank < len(web.integrals)
        ranked += 1
    assert ranked
    criterion = check_finite_criterion(E, GenericPointSampler(seed=seed))
    assert [c["verdict"] for c in criterion.checks] == [TRUE, TRUE, FALSE, TRUE]


def test_non_proportional_residue_gradients_are_no_pairs():
    q = MODULUS
    gradients = [[1, 2], [3, 6], [0, 5], [q - 2, q - 4], [0, 0]]
    assert proportional_pairs(gradients, MODULAR) == [
        (0, 1),
        (0, 3),
        (0, 4),
        (1, 3),
        (1, 4),
        (2, 4),
        (3, 4),
    ]


# --------------------------------------------------------------------------
# the fallback to float mode

def test_a_denominator_divisible_by_q_falls_back_to_float():
    E = balanced_set_from_json(Q_WEB)
    assert E.default_mode() == MODULAR
    balanced = validate_balanced(E, 3, GenericPointSampler(seed=0))
    assert balanced.verdict == TRUE
    assert balanced.witnesses["mode"] == "float128"
    criterion = check_finite_criterion(E, GenericPointSampler(seed=0))
    assert criterion.verdict == TRUE
    # the arity-1 block falls back, the exp-free arity-2 block does not
    assert [c["witness"].get("precision") for c in criterion.checks] == [128, None]
    direct = check_ordinary_at(E, 2, GenericPointSampler(seed=0))
    assert direct.verdict == TRUE and direct.witnesses["mode"] == "float128"
    # on the points a float check takes, and leaving the sampler where it
    # leaves it
    W = assemble(E, 2)
    samplers = GenericPointSampler(seed=0), GenericPointSampler(seed=0)
    fallback = check_rank(W, samplers[0], 3, 7, MODULAR, 1)
    floating = check_rank(W, samplers[1], 3, 7, FLOAT128, 1)
    assert fallback.record() == floating.record()
    assert fallback.estimate.method == "float128"
    assert samplers[0].point(2) == samplers[1].point(2)


def test_the_cli_falls_back_on_a_denominator_divisible_by_q(capsys, tmp_path):
    path = tmp_path / "q_web.json"
    path.write_text(json.dumps(Q_WEB))
    code = main(["verify-family", "--input", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {r["method"] for r in payload["rank"]["per_n"]} == {"float128"}
    assert {d["witnesses"]["mode"] for d in payload["ordinary"]["direct"]} == {
        "float128"
    }


def test_modular_gradients_certify_the_web_condition():
    # a listed pair mod q is a pair at the point with high probability, an
    # empty list is a certificate: the exp family's web condition holds
    E = EXP_WEBS["k0_4_exp"]
    report = validate_balanced(E, 5, GenericPointSampler(seed=0))
    assert report.verdict == TRUE
    assert report.witnesses["mode"] == MODULAR.label()
