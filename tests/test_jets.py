import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webrank.catalog import family_names, get_family
from webrank.combin import monomial_count
from webrank.expr import EvalError, diff, evaluate, parse
from webrank.jets import (
    degree_multi_indices,
    jet_coefficient,
    jet_matrix_from_gradients,
    positive_vectors,
    quadruple,
    square_block,
    support,
)
from webrank import linalg
from webrank.linalg import (
    exact_det,
    exact_rank,
    float_certificate,
    float_rank,
    sparse_rows,
)
from webrank.ordinary import GenericPointSampler, _jet_systems, jet_ranks_at_point
from webrank.scalars import EXACT, Mode
from webrank.web import GeneratingWeb, assemble, load_balanced_set

from helpers import (
    cofactor_det,
    integer_rows,
    oracle_float_rank,
    pullback,
    rational_jet_matrix,
    rational_rank,
    reparametrize_entry,
)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def quadrics():
    E, _ = get_family("k0_3_quadrics")
    return E


def test_positive_vectors_order_and_count():
    assert positive_vectors(2, 3) == ((2, 1), (1, 2))
    assert positive_vectors(3, 4) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    assert positive_vectors(1, 3) == ((3,),)
    for k in range(1, 5):
        for h in range(k, 9):
            assert len(positive_vectors(k, h)) == monomial_count(k, h - k)


def test_degree_multi_indices_count_and_grouping():
    for n in range(1, 5):
        for h in range(1, 6):
            rows = degree_multi_indices(n, h)
            assert len(rows) == monomial_count(n, h)
            support_sizes = [len(support(L)) for L in rows]
            assert support_sizes == sorted(support_sizes)


def test_degree_multi_indices_block_order_n2_h2():
    assert degree_multi_indices(2, 2) == ((2, 0), (0, 2), (1, 1))


def test_quadruple_labels():
    assert quadruple((2, 0, 1), 3) == (3, 2, 2, 1)
    assert quadruple((0, 3, 0), 3) == (3, 1, 2, 1)
    assert quadruple((1, 1, 1), 3) == (3, 3, 1, 1)
    with pytest.raises(ValueError):
        quadruple((0, 0), 2)


def test_jet_coefficient_values():
    assert jet_coefficient((1, 1), (1, 1)) == 1
    assert jet_coefficient((2, 2, 2), (1, 1, 1)) == 8
    assert jet_coefficient((5, 7), (0, 0)) == 1
    assert jet_coefficient((0, 3), (0, 2)) == 9  # zero entries with zero exponent


def rational_block(web, k0, point):
    """The exact square block as square_block defines it: its int rows with
    column c divided by the column scale scales[c]."""
    rows, scales = square_block(web, k0, point, EXACT)
    assert all(type(v) is int for row in rows for v in row)
    return [[Fraction(v, s) for v, s in zip(row, scales)] for row in rows]


def test_square_block_pair_web():
    E = quadrics()
    block = rational_block(E.generating_web(2), 3, (Fraction(1), Fraction(2)))
    assert block == [[1, -1], [1, 1]]  # rows (2, 1) and (1, 2)
    rows, _ = square_block(E.generating_web(2), 3, (Fraction(1), Fraction(2)), EXACT)
    assert exact_det(rows) == 2


def test_square_block_point_web():
    E = quadrics()
    assert rational_block(E.generating_web(1), 3, (Fraction(5),)) == [[1]]


def test_square_block_dependent_gradients_always_singular():
    web = GeneratingWeb(
        k=3,
        integrals=(
            parse("x1+x2+x3", 3),
            parse("x1+2*x2+3*x3", 3),
            parse("2*x1+3*x2+4*x3", 3),
        ),
    )
    sampler = GenericPointSampler(seed=3)
    for _ in range(5):
        point = sampler.point(3)
        rows, _ = square_block(web, 4, point, EXACT)
        assert exact_det(rows) == 0
        assert rational_rank(rational_block(web, 4, point)) == 2


def test_square_block_requires_right_cardinality():
    web = GeneratingWeb(k=2, integrals=(parse("x1+x2", 2),))
    with pytest.raises(ValueError):
        square_block(web, 3, (Fraction(1), Fraction(1)), EXACT)


EXACT_SETS = {
    **{
        name: lambda name=name: get_family(name)[0]
        for name in family_names()
        if get_family(name)[0].default_mode().is_exact
    },
    "dependent_gradients": lambda: load_balanced_set(
        BENCHMARKS / "dependent_gradients_k0_4.json"
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_SETS))
def test_exact_block_det_is_the_cofactor_det_of_the_jet_coefficients(name):
    # the determinant the finite criterion prints, int rows over the column
    # scales, against the cofactor expansion of the Fraction jet_coefficient
    # block of the symbolic partials, at three defined points per arity
    E = EXACT_SETS[name]()
    for web in E.webs:
        rows = positive_vectors(web.k, E.k0)
        for seed in range(3):
            point, gradients = defined_points(web.integrals, web.k, EXACT, 1, seed)[0]
            block, scales = square_block(web, E.k0, point, EXACT)
            det = Fraction(exact_det(block), math.prod(scales))
            reference = [[jet_coefficient(g, L) for g in gradients] for L in rows]
            assert det == cofactor_det(reference), (web.k, point)
            if name == "dependent_gradients" and web.k == 3:
                assert det == 0


def test_jet_matrix_identity_columns_for_coordinates():
    W = assemble(quadrics(), 3)
    point = GenericPointSampler(seed=1).point(3)
    matrix = rational_jet_matrix(W, 1, point)
    assert (len(matrix), len(matrix[0])) == (3, 10)
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == (1 if i == j else 0)


def test_jet_matrix_parallel_web_row():
    E = quadrics()
    W = assemble(E, 2)  # the 4-web {x1, x2, x1+x2, x1-x2}
    matrix = rational_jet_matrix(W, 2, GenericPointSampler(seed=2).point(2))
    row_index = degree_multi_indices(2, 2).index((1, 1))
    assert matrix[row_index] == [0, 0, 1, -1]


def test_jet_matrix_zero_blocks():
    # entries vanish unless the row support is contained in the column support
    W = assemble(quadrics(), 3)
    point = GenericPointSampler(seed=4).point(3)
    for h in (2, 3):
        matrix = rational_jet_matrix(W, h, point)
        for L, row in zip(degree_multi_indices(3, h), matrix):
            row_support = set(support(L))
            for entry, web_entry in zip(row, W.entries):
                col_support = set(web_entry.source)
                if not row_support <= col_support:
                    assert entry == 0


def test_jet_matrix_rank_drops_never_below_block_structure():
    W = assemble(quadrics(), 3)
    point = GenericPointSampler(seed=6).point(3)
    for h, expected in [(1, 3), (2, 6), (3, 10)]:
        assert rational_rank(rational_jet_matrix(W, h, point)) == expected


def test_column_scaling_under_reparametrization():
    # replacing u by u^3+u scales its jet column by (3u(p)^2+1)^h
    W = assemble(quadrics(), 3)
    point = GenericPointSampler(seed=7).point(3)
    index = 4
    reparametrized = reparametrize_entry(W, index)
    u_value = evaluate(pullback(W.entries[index]), point)
    scale = 3 * u_value**2 + 1
    for h in (1, 2, 3):
        original = rational_jet_matrix(W, h, point)
        changed = rational_jet_matrix(reparametrized, h, point)
        for row_o, row_c in zip(original, changed):
            for col, (a, b) in enumerate(zip(row_o, row_c)):
                if col == index:
                    assert b == a * scale**h
                else:
                    assert b == a
        assert rational_rank(original) == rational_rank(changed)


def test_square_block_is_diagonal_block_of_assembled_jets():
    # the (k, a) diagonal block of the top-order jet matrix is the generating
    # block up to variable renaming
    E = quadrics()
    for n in (3, 4):
        W = assemble(E, n)
        point = GenericPointSampler(seed=8).point(n)
        top = rational_jet_matrix(W, 3, point)
        top_rows = degree_multi_indices(n, 3)
        for a, source in enumerate(
            [e.source for e in W.entries if e.label[0] == 2 and e.label[2] == 1],
            start=1,
        ):
            sub_point = tuple(point[i - 1] for i in source)
            block = rational_block(E.generating_web(2), 3, sub_point)
            rows = [
                top_rows.index(L)
                for L in top_rows
                if support(L) == source and quadruple(L, n)[0] == 3
            ]
            cols = [
                idx
                for idx, e in enumerate(W.entries)
                if e.label[0] == 2 and e.source == source
            ]
            extracted = [
                [top[r][c] for c in cols] for r in rows
            ]
            assert extracted == block


def test_jet_matrix_reports_offending_entry():
    E, _ = get_family("k0_3_harmonic_sum")
    W = assemble(E, 2)
    with pytest.raises(EvalError) as err:
        jet_ranks_at_point(W, (Fraction(0), Fraction(1)), EXACT, E.k0)
    assert "entry" in str(err.value)


# --------------------------------------------------------------------------
# the jet-matrix recurrence against the Fraction jet coefficients

@st.composite
def exact_gradients(draw):
    """(n, gradients) with rational entries, zeros and repeats included."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(
        st.fractions(min_value=-6, max_value=6, max_denominator=16),
        st.just(Fraction(0)),
    )
    gradients = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=8)
    )
    return n, gradients


@settings(max_examples=100, deadline=None)
@given(exact_gradients(), st.integers(min_value=1, max_value=4))
def test_integer_jet_rows_are_column_scaled_jet_coefficients(system, top):
    n, gradients = system
    cleared, scales = integer_rows(gradients)
    matrices = jet_matrix_from_gradients(n, top, cleared)
    assert len(matrices) == top
    for h, (rows, rational) in enumerate(
        zip(matrices, jet_matrix_from_gradients(n, top, gradients)), start=1
    ):
        reference = [
            [jet_coefficient(g, L) for g in gradients]
            for L in degree_multi_indices(n, h)
        ]
        assert rational == reference
        assert all(type(v) is int for row in rows for v in row)
        assert rows == [
            [v * scales[c] ** h for c, v in enumerate(row)] for row in reference
        ]
        assert exact_rank(*sparse_rows(rows))[0] == rational_rank(reference)


@pytest.mark.parametrize("family", ["k0_3_moebius_sum", "k0_4_WB_sum"])
def test_exact_ranks_at_point_match_rational_jet_matrices(family):
    E, _ = get_family(family)
    W = assemble(E, 3)
    point = GenericPointSampler(seed=5).point(3)
    ranks, _ = jet_ranks_at_point(W, point, EXACT, E.k0)
    for h in range(1, E.k0 + 1):
        assert ranks[h] == rational_rank(rational_jet_matrix(W, h, point))


# --------------------------------------------------------------------------
# one invertible J_k0 decides the ranks of every other order

@st.composite
def calibrated_gradients(draw):
    """(n, k0, gradients): monomial_count(n, k0) random int gradients, so
    that J_k0 is square."""
    n = draw(st.integers(min_value=2, max_value=3))
    k0 = draw(st.integers(min_value=1, max_value=5 - n))
    entry = st.integers(min_value=-3, max_value=3)
    gradients = draw(
        st.lists(
            st.lists(entry, min_size=n, max_size=n),
            min_size=monomial_count(n, k0),
            max_size=monomial_count(n, k0),
        )
    )
    return n, k0, gradients


@settings(max_examples=100, deadline=None)
@given(calibrated_gradients())
def test_an_invertible_top_jet_matrix_gives_every_rank(case):
    # full row rank below k0, full column rank above it
    n, k0, gradients = case
    d = len(gradients)
    matrices = jet_matrix_from_gradients(n, k0 + 2, gradients)
    ranks = [exact_rank(*sparse_rows(matrix))[0] for matrix in matrices]
    if ranks[k0 - 1] == d:
        assert ranks[: k0 - 1] == [monomial_count(n, h) for h in range(1, k0)]
        assert ranks[k0:] == [d, d]


def jet_ranks_one_by_one(W, point, k0, mode):
    """Oracle: ({h: rank}, mode used) with every jet matrix of order 1..k0
    ranked, all at one precision."""
    outcome = linalg.ranks(lambda m: _jet_systems(W, point, k0, m), mode)
    if outcome is None:
        return None
    results, used = outcome
    return {h: rank for h, (rank, _) in enumerate(results, 1)}, used


@pytest.mark.parametrize("family", family_names())
def test_ranks_at_point_equal_every_jet_matrix_ranked(family):
    # in its own mode, and the exp family in float mode as well
    E, _ = get_family(family)
    modes = [E.default_mode()]
    if modes[0].is_modular:
        modes.append(Mode.floating(128))
    for mode in modes:
        for n in range(2, E.k0 + 2):
            W = assemble(E, n)
            for point in list(GenericPointSampler(seed=1).points(n))[:2]:
                try:
                    expected = jet_ranks_one_by_one(W, point, E.k0, mode)
                except EvalError:
                    continue
                outcome = jet_ranks_at_point(W, point, mode, E.k0)
                assert outcome == expected, (n, point)


@pytest.mark.parametrize("precision", [32, 128])
def test_singular_top_jet_matrix_ranks_the_lower_orders(monkeypatch, precision):
    # the float dependent-gradients fixture at n = 4: J_4 has rank 31 of
    # 35, so the lower orders are ranked, each once, at the precision J_4
    # ended at
    E = load_balanced_set(BENCHMARKS / "dependent_gradients_float_k0_4.json")
    W = assemble(E, 4)
    mode = Mode.floating(precision)
    point = next(iter(GenericPointSampler(seed=0).points(4)))
    shapes = []
    original = linalg.float_rank

    def spy(rows, units, bits):
        shapes.append((len(rows), bits))
        return original(rows, units, bits)

    monkeypatch.setattr(linalg, "float_rank", spy)
    ranks, used = jet_ranks_at_point(W, point, mode, E.k0)
    monkeypatch.undo()
    assert ranks[E.k0] == 31
    assert (ranks, used) == jet_ranks_one_by_one(W, point, E.k0, mode)
    # J_4's ladder of precisions (32 bits escalate once), then the lower
    # orders at the precision it ended at
    bits = used.precision
    assert shapes[-3:] == [(4, bits), (10, bits), (20, bits)]
    assert [rows for rows, _ in shapes[:-3]] == [35] * (len(shapes) - 3)
    assert shapes[-4] == (35, bits)


def test_invertible_top_jet_matrix_is_the_only_one_ranked(monkeypatch):
    E, _ = get_family("k0_4_exp")
    W = assemble(E, 3)
    mode = Mode.floating(128)
    point = next(iter(GenericPointSampler(seed=0).points(3)))
    calls = []
    original = linalg.float_rank

    def spy(rows, units, bits):
        calls.append(len(rows))
        return original(rows, units, bits)

    monkeypatch.setattr(linalg, "float_rank", spy)
    ranks, used = jet_ranks_at_point(W, point, mode, E.k0)
    assert calls == [15]
    assert ranks == {1: 3, 2: 6, 3: 10, 4: 15} and used == mode


# --------------------------------------------------------------------------
# float jet matrices and square blocks on ints against mpf jet coefficients

FLOAT_SETS = {
    "k0_4_exp": lambda: get_family("k0_4_exp")[0],
    "dependent_gradients_float": lambda: load_balanced_set(
        BENCHMARKS / "dependent_gradients_float_k0_4.json"
    ),
}


def mpf_gradients(integrals, point, mode):
    """Oracle: the partials by diff + evaluate at the mode's precision, or
    None where one is undefined."""
    try:
        return [
            [evaluate(diff(u, j), point, mode) for j in range(1, len(point) + 1)]
            for u in integrals
        ]
    except EvalError:
        return None


def mpf_jet_matrix(gradients, rows, mode):
    with mode.workprec():
        return [[jet_coefficient(g, L) for g in gradients] for L in rows]


def assert_ranked_as_the_oracle(rank, info, matrix, precision, where):
    """Same rank and marginal flag as the mpf kernel, and the first pivot,
    the largest entry under complete pivoting, at the matrix's scale."""
    assert (rank, info["marginal"]) == oracle_float_rank(matrix, precision), where
    largest = max(abs(v) for row in matrix for v in row)
    first = float_certificate(info)["pivot_magnitudes"][:1]
    assert [float(v) for v in first] == pytest.approx(
        [float(largest)] if largest else [], rel=1e-6
    ), where


def defined_points(integrals, n, mode, count, seed=0):
    """The first `count` sampled points of n-space with every integral
    defined there, and the oracle gradients at each."""
    out = []
    for point in GenericPointSampler(seed=seed).points(n):
        gradients = mpf_gradients(integrals, point, mode)
        if gradients is not None:
            out.append((point, gradients))
            if len(out) == count:
                break
    return out


@pytest.mark.parametrize("precision", [32, 64, 128])
@pytest.mark.parametrize("name", sorted(FLOAT_SETS))
def test_float_jet_matrices_on_ints_rank_as_mpf_jet_coefficients(name, precision):
    # the direct check's matrices, degree-h rows of the int gradients at h
    # times the gradients' unit in every column, against the mpf kernel on
    # the jet_coefficient matrix of the mpf partials at the same precision
    E = FLOAT_SETS[name]()
    mode = Mode.floating(precision)
    for n in range(2, 6):
        W = assemble(E, n)
        integrals = [pullback(entry) for entry in W.entries]
        for point, oracle in defined_points(integrals, n, mode, 2):
            systems = _jet_systems(W, point, E.k0, mode)
            for h, (rows, units) in enumerate(systems, 1):
                assert units == [units[0]] * W.size
                rank, info = float_rank(rows, units, precision)
                expected = mpf_jet_matrix(oracle, degree_multi_indices(n, h), mode)
                assert_ranked_as_the_oracle(
                    rank, info, expected, precision, (n, point, h)
                )


@pytest.mark.parametrize("precision", [32, 64, 128])
@pytest.mark.parametrize("name", sorted(FLOAT_SETS))
def test_float_square_blocks_on_ints_rank_as_mpf_jet_coefficients(name, precision):
    # the finite criterion's blocks, taken from the degree-k0 jet matrix on
    # ints, against the mpf kernel on the block's jet coefficients
    E = FLOAT_SETS[name]()
    mode = Mode.floating(precision)
    for web in E.webs:
        for point, oracle in defined_points(web.integrals, web.k, mode, 4):
            block, units = square_block(web, E.k0, point, mode)
            assert units == [units[0]] * len(web.integrals)
            rank, info = float_rank(block, units, precision)
            expected = mpf_jet_matrix(oracle, positive_vectors(web.k, E.k0), mode)
            assert_ranked_as_the_oracle(rank, info, expected, precision, (web.k, point))
