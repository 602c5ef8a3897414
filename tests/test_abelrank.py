import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from webrank import abelrank, linalg
from webrank.abelrank import (
    _expansion_rows,
    _leading_columns,
    _leading_rows,
    _relation_columns,
    _source_columns,
    check_rank,
    generic_point_for_web,
    rank_estimate,
    verify_max_rank,
)
from webrank.catalog import family_names, get_family
from webrank.combin import (
    calibrated_max_rank,
    exact_support_dims,
    max_rank_bound,
    support_dims,
)
from webrank.expr import EvalError, parse
from webrank.jets import degree_multi_indices
from webrank.ordinary import GenericPointSampler
from webrank.report import INCONCLUSIVE, TRUE
from webrank.scalars import EXACT, Mode
from webrank.tpoly import MonomialCodes, fixed_powers, integer_offset, taylor
from webrank.web import assemble, balanced_set_from_json

from helpers import (
    dense_rows,
    inflate_first_rank_estimate,
    mpf_relation_rows,
    oracle_float_rank,
    rational_rank,
    reparametrize_entry,
    single_integral_web,
)


def quadrics():
    E, _ = get_family("k0_3_quadrics")
    return E


def parallel_web():
    """The 4-web {x1, x2, x1+x2, x1-x2} in the plane."""
    return assemble(quadrics(), 2)


ORIGIN = (Fraction(0), Fraction(0))


# --------------------------------------------------------------------------
# independent oracle: homogeneous brute force for the parallel web

PARALLEL_FORMS = [(1, 0), (0, 1), (1, 1), (1, -1)]


def homogeneous_kernel_dim(degree: int) -> int:
    """Kernel dimension of c -> sum_i c_i * (a_i x + b_i y)^degree, computed
    from scratch: multinomial expansion plus naive Fraction elimination."""
    monomials = [(degree - j, j) for j in range(degree + 1)]
    rows = []
    for i, j in monomials:
        row = []
        for a, b in PARALLEL_FORMS:
            row.append(Fraction(math.comb(degree, j) * a**i * b**j))
        rows.append(row)
    # naive elimination to count pivots
    rank = 0
    cols = len(PARALLEL_FORMS)
    work = [row[:] for row in rows]
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / work[rank][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return cols - rank


def test_parallel_web_oracle_values():
    assert [homogeneous_kernel_dim(m) for m in (1, 2, 3)] == [2, 1, 0]


def test_parallel_web_dims_trace_matches_oracle():
    estimate = rank_estimate(parallel_web(), ORIGIN, 1, 8, EXACT)
    assert estimate.dims == {1: 2, 2: 3, 3: 3}
    assert estimate.value == 3
    assert estimate.stabilized_at == 2
    assert estimate.value == max_rank_bound(2, 4)
    increments = [
        estimate.dims[1],
        estimate.dims[2] - estimate.dims[1],
        estimate.dims[3] - estimate.dims[2],
    ]
    assert increments == [homogeneous_kernel_dim(m) for m in (1, 2, 3)]


# --------------------------------------------------------------------------
# rank estimates

def test_single_foliation_has_no_relations():
    W = single_integral_web(1, parse("x1", 1))
    estimate = rank_estimate(W, (Fraction(0),), 1, 4, EXACT)
    assert estimate.value == 0


def test_quadrics_rank_n3():
    W = assemble(quadrics(), 3)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    estimate = rank_estimate(W, point, 4, 8, EXACT)
    assert estimate.value == 11 == calibrated_max_rank(3, 3)


def test_dims_agree_at_two_generic_points():
    W = parallel_web()
    values = []
    for seed in (0, 9):
        point = generic_point_for_web(W, GenericPointSampler(seed=seed), EXACT)
        values.append(rank_estimate(W, point, 1, 6, EXACT).dims)
    assert values[0] == values[1]


def test_rank_invariant_under_entry_reparametrization():
    W = parallel_web()
    for index in range(W.size):
        changed = reparametrize_entry(W, index)
        estimate = rank_estimate(changed, ORIGIN, 1, 6, EXACT)
        assert estimate.value == 3


def test_inconclusive_when_cap_too_small():
    estimate = rank_estimate(parallel_web(), ORIGIN, 1, 2, EXACT)
    assert estimate.dims == {1: 2, 2: 3}
    assert estimate.value is None
    assert estimate.stabilized_at is None
    assert estimate.note == "no stabilization up to order 2"


@pytest.mark.parametrize("m_cap", [0, 1])
def test_cap_must_exceed_the_start_order(m_cap):
    with pytest.raises(ValueError):
        rank_estimate(parallel_web(), ORIGIN, 1, m_cap, EXACT)


def test_stabilized_value_never_exceeds_rank_bound():
    for name in ("k0_3_quadrics", "k0_3_sym_prod"):
        E, _ = get_family(name)
        for n in (2, 3):
            W = assemble(E, n)
            point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
            estimate = rank_estimate(W, point, 4, 8, EXACT)
            assert estimate.value is not None
            assert estimate.value <= max_rank_bound(n, W.size)


# --------------------------------------------------------------------------
# integer relation rows against the rational rows

def fraction_rows(W, point, order):
    """Reference: the relation rows on Fractions, powers of the plain offsets,
    and the lcm of each offset's coefficient denominators."""
    keys = _relation_columns(W.n, order)
    codes = MonomialCodes(W.n, order)
    rows = []
    lcms = []
    for entry in W.entries:
        expansion = taylor(entry.integral, point, codes, EXACT)
        offset = {code: v for code, v in expansion.items() if code}
        lcms.append(math.lcm(*(v.denominator for v in offset.values())))
        for power in codes.powers(offset, order):
            by_key = {codes.decode(code): v for code, v in power.items()}
            rows.append([Fraction(by_key.get(key, 0)) for key in keys])
    return rows, lcms


def offset_scales(W, point, order):
    """L_i per entry: the denominator of the integer offset of each
    generating integral at its projected point (tpoly.integer_offset), which
    row (i, m) of the exact relation rows carries to the power m."""
    scales = []
    for entry in W.entries:
        codes, _ = _source_columns(W.n, order, entry.source)
        at = [point[s - 1] for s in entry.source]
        scales.append(integer_offset(entry.generator, at, codes)[1])
    return scales


def assert_scaled_fraction_rows(W, point, order):
    """Row (i, m) is L_i^m times the Fraction row, L_i the offset's lcm;
    returns both systems."""
    rows = _expansion_rows(W, point, order, EXACT)
    scales = offset_scales(W, point, order)
    reference, lcms = fraction_rows(W, point, order)
    assert scales == lcms
    ncols = len(_relation_columns(W.n, order))
    assert all(0 <= j < ncols for row in rows for j in row)
    assert all(type(v) is int for row in rows for v in row.values())
    for u, (row, ref) in enumerate(zip(dense_rows(rows, ncols), reference)):
        factor = scales[u // order] ** (u % order + 1)
        assert row == [v * factor for v in ref]
    return rows, reference


K0_3_FAMILIES = [name for name in family_names() if name.startswith("k0_3_")]


@st.composite
def sampled_relation_systems(draw):
    """(web, generic point, order) for a k0=3 catalog family at n = 2 or 3."""
    E, _ = get_family(draw(st.sampled_from(K0_3_FAMILIES)))
    W = assemble(E, draw(st.sampled_from([2, 3])))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    point = generic_point_for_web(W, GenericPointSampler(seed=seed), EXACT)
    assume(point is not None)
    return W, point, draw(st.integers(min_value=3, max_value=5))


@settings(max_examples=50, deadline=None)
@given(sampled_relation_systems())
def test_integer_rows_are_scaled_fraction_rows(system):
    W, point, order = system
    rows, reference = assert_scaled_fraction_rows(W, point, order)
    ncols = len(_relation_columns(W.n, order))
    assert linalg.exact_rank(rows, ncols)[0] == rational_rank(reference)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", ["k0_4_pereira_pirio_affine", "k0_4_WB_sum"])
def test_integer_rows_of_rational_k0_4_systems(name, n):
    # the largest exact systems of the pipeline, with rational entries on up
    # to five variables
    E, _ = get_family(name)
    W = assemble(E, n)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    assert_scaled_fraction_rows(W, point, E.k0 + 2)


@pytest.mark.parametrize("name", ["k0_4_pereira_pirio_affine", "k0_4_WB_sum"])
def test_order_6_relation_systems_at_n5_have_rank_420_less_maximal_rank(name):
    # the largest systems `verify-family --corroborate` ranks: the kernel
    # dimension 420 - 265 is the closed-form maximal rank 155
    E, _ = get_family(name)
    W = assemble(E, 5)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    rows = _expansion_rows(W, point, E.k0 + 2, EXACT)
    ncols = len(_relation_columns(5, E.k0 + 2))
    assert (len(rows), ncols) == (420, 461)
    assert all(0 <= j < ncols for row in rows for j in row)
    assert calibrated_max_rank(5, E.k0) == 155
    assert linalg.exact_rank(rows, ncols)[0] == 420 - 155 == 265


def test_expansion_pole_names_the_entry():
    W = assemble(get_family("k0_3_harmonic_sum")[0], 2)
    with pytest.raises(EvalError, match=r"entry \(2, 1, 2\)"):
        _expansion_rows(W, (Fraction(0), Fraction(1)), 3, EXACT)


@settings(max_examples=50, deadline=None)
@given(sampled_relation_systems(), st.integers(min_value=1, max_value=2))
def test_sliced_rows_equal_a_fresh_build(system, extra):
    W, point, order = system
    built = order + extra
    rows = _expansion_rows(W, point, built, EXACT)
    fresh = _expansion_rows(W, point, order, EXACT)
    built_scales = offset_scales(W, point, built)
    fresh_scales = offset_scales(W, point, order)
    sliced = _leading_rows(rows, W, built, order)
    ncols = len(_relation_columns(W.n, order))

    def rational(rows, scales):
        return [
            [Fraction(v, scales[u // order] ** (u % order + 1)) for v in row]
            for u, row in enumerate(dense_rows(rows, ncols))
        ]

    # denominators can grow with degree, so the lcm of a longer expansion may
    # be larger: compare entries with each build's row scale undone
    assert all(0 <= j < ncols for row in sliced for j in row)
    assert rational(sliced, built_scales) == rational(fresh, fresh_scales)
    if built_scales == fresh_scales:
        assert sliced == fresh


# --------------------------------------------------------------------------
# rows from the generating integrals against the pulled-back trees

def full_point_rows(W, point, order, mode):
    """Reference: the relation rows from each pulled-back tree
    WebEntry.integral, expanded at the full point on n-variable codes; in
    float mode the expansion's offset goes through the fixed-point powers."""
    column = {key: j for j, key in enumerate(_relation_columns(W.n, order))}
    codes = MonomialCodes(W.n, order)
    rows, scales = [], []
    for entry in W.entries:
        if mode.is_exact:
            offset, scale = integer_offset(entry.integral, point, codes)
            powers = [(power, None) for power in codes.powers(offset, order)]
        else:
            expansion = taylor(entry.integral, point, codes, mode)
            powers, scale = fixed_powers(expansion, codes, mode.precision), 1
        scales.append(scale)
        for power, unit in powers:
            row = {column[codes.decode(c)]: v for c, v in power.items()}
            rows.append(row if unit is None else linalg.FixedRow(row, unit))
    return rows, scales


def catalog_relation_systems():
    """(family, n, modes) for every family at n = 2..k0+1; the exp/log-free
    families in both modes."""
    out = []
    for name in family_names():
        E, _ = get_family(name)
        modes = [Mode.floating(128)]
        if E.is_rational():
            modes.insert(0, EXACT)
        out.extend((name, n, modes) for n in range(2, E.k0 + 2))
    return out


@pytest.mark.parametrize(
    "name,n,modes",
    catalog_relation_systems(),
    ids=lambda v: "+".join(m.label() for m in v) if isinstance(v, list) else str(v),
)
def test_generator_rows_equal_pulled_back_rows(name, n, modes):
    E, _ = get_family(name)
    W = assemble(E, n)
    point = generic_point_for_web(W, GenericPointSampler(seed=1), E.default_mode())
    order = E.k0 + 2
    for mode in modes:
        rows = _expansion_rows(W, point, order, mode)
        reference, reference_scales = full_point_rows(W, point, order, mode)
        if mode.is_exact:
            assert offset_scales(W, point, order) == reference_scales
        assert rows == reference  # ints, or fixed-point ints and units


# --------------------------------------------------------------------------
# column order: degree < order first, each degree block largest support first

def degree_ordered_keys(n, order):
    return [key for h in range(1, order + 1) for key in degree_multi_indices(n, h)]


def test_relation_keys_are_degree_keys_by_descending_support():
    for n in range(1, 6):
        for order in range(1, 7):
            keys = list(_relation_columns(n, order))
            assert sorted(keys) == sorted(degree_ordered_keys(n, order))
            top = [key for key in keys if sum(key) == order]
            assert keys[len(keys) - len(top) :] == top
            for block in (keys[: len(keys) - len(top)], top):
                sizes = [sum(1 for e in key if e) for key in block]
                assert sizes == sorted(sizes, reverse=True)


def test_lower_order_keys_keep_their_order():
    for n in range(1, 6):
        for order in range(1, 6):
            keys = _relation_columns(n, order)
            for built in (order, order + 1, order + 2):
                remap = _leading_columns(n, built, order)
                built_keys = _relation_columns(n, built)
                assert sorted(remap.values()) == list(range(len(keys)))
                for j, k in remap.items():
                    assert built_keys[j] == keys[k]


@settings(max_examples=30, deadline=None)
@given(sampled_relation_systems())
def test_support_order_keeps_the_rank(system):
    W, point, order = system
    rows = _expansion_rows(W, point, order, EXACT)
    column = {key: j for j, key in enumerate(_relation_columns(W.n, order))}
    by_degree = [column[key] for key in degree_ordered_keys(W.n, order)]
    dense = dense_rows(rows, len(column))
    degree_rows = [[row[j] for j in by_degree] for row in dense]
    assert (
        linalg.exact_rank(*linalg.sparse_rows(degree_rows))[0]
        == linalg.exact_rank(rows, len(column))[0]
    )


# --------------------------------------------------------------------------
# the first two orders from one exact elimination

def separate_dims(W, point, orders):
    """Oracle: the kernel dimension at each order from its own fresh build
    and its own elimination."""
    dims = {}
    for order in orders:
        rows = _expansion_rows(W, point, order, EXACT)
        rank, _ = linalg.exact_rank(rows, len(_relation_columns(W.n, order)))
        dims[order] = W.size * order - rank
    return dims


@settings(max_examples=40, deadline=None)
@given(sampled_relation_systems(), st.integers(min_value=0, max_value=2))
def test_one_elimination_gives_the_first_two_dims(system, lower):
    W, point, order = system
    m_start = order - lower
    estimate = rank_estimate(W, point, m_start, m_start + 1, EXACT)
    assert estimate.dims == separate_dims(W, point, (m_start, m_start + 1))


EXACT_FAMILIES = [
    name for name in family_names() if get_family(name)[0].default_mode().is_exact
]


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_one_elimination_gives_the_first_two_dims_per_family(name):
    # at order 1 and at the pipeline's start order k0 + 1, at every n that
    # verify-family ranks
    E, _ = get_family(name)
    for n in range(2, E.k0 + 2):
        W = assemble(E, n)
        point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
        for m_start in (1, E.k0 + 1):
            estimate = rank_estimate(W, point, m_start, m_start + 1, EXACT)
            assert estimate.dims == separate_dims(W, point, (m_start, m_start + 1))


NON_HEXAGONAL = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "nonhexagonal_k0_2.json"
)


@pytest.mark.parametrize("seed", [0, 3])
def test_one_elimination_on_the_non_hexagonal_web(seed):
    # the fixture of `rank --input benchmarks/nonhexagonal_k0_2.json --n 2`,
    # with the dims of every order it ranks
    E = balanced_set_from_json(json.loads(NON_HEXAGONAL.read_text()))
    W = assemble(E, 2)
    point = generic_point_for_web(W, GenericPointSampler(seed=seed), EXACT)
    estimate = rank_estimate(W, point, E.k0 + 1, E.k0 + 5, EXACT)
    assert estimate.value == 0
    assert estimate.dims == separate_dims(W, point, estimate.dims)


K0_5_WB_EXTENSION = NON_HEXAGONAL.parent / "k0_5_wb_extension.json"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_elimination_on_the_k0_5_wb_extension(n):
    # the fixture with the largest merged system at n=5, here at order 1
    # and at the pipeline's start order k0 + 1
    E = balanced_set_from_json(json.loads(K0_5_WB_EXTENSION.read_text()))
    W = assemble(E, n)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    for m_start in (1, E.k0 + 1):
        estimate = rank_estimate(W, point, m_start, m_start + 1, EXACT)
        assert estimate.dims == separate_dims(W, point, (m_start, m_start + 1))


@pytest.mark.parametrize("seed", [0, 3])
def test_one_elimination_without_stabilization(seed):
    # `rank --family k0_3_quadrics --n 3 --m-start 1 --m-cap 2`
    W = assemble(quadrics(), 3)
    check = check_rank(W, GenericPointSampler(seed=seed), 1, 2, EXACT, 11)
    assert check.verdict == INCONCLUSIVE
    estimate = check.estimate
    assert estimate.value is None
    assert estimate.note == "no stabilization up to order 2"
    assert estimate.dims == separate_dims(W, check.point, (1, 2))


@pytest.mark.parametrize("precision", [32, 64, 128])
@pytest.mark.parametrize("n", [2, 3])
def test_float_rank_of_exp_relation_systems_matches_mpf_oracle(n, precision):
    # the k0_4_exp systems verify-family ranks at its first two orders, in
    # the relation column order (at 32 bits the n = 3 order-6 system is
    # marginal): the fixed-point rows it ranks, the order-5 ones sliced out
    # of the order-6 ones, against the mpf oracle on mpf systems built
    # separately for each order.  The n = 4 systems (175x125 and 210x209)
    # take the dense mpf oracle about 9 s per precision, so they are left
    # out here; benchmarks/bench_kernels.py checks both at 32, 64 and 128 bits
    E, _ = get_family("k0_4_exp")
    W = assemble(E, n)
    mode = Mode.floating(precision)
    top = E.k0 + 2
    point = generic_point_for_web(W, GenericPointSampler(seed=0), mode)
    top_rows = _expansion_rows(W, point, top, mode)
    systems = {top - 1: _leading_rows(top_rows, W, top, top - 1), top: top_rows}
    for order, rows in systems.items():
        ncols = len(_relation_columns(n, order))
        rank, info = linalg.float_rank(rows, ncols, precision)
        oracle_rows = mpf_relation_rows(W, point, order, mode)
        expected = oracle_float_rank(dense_rows(oracle_rows, ncols), precision)
        assert (rank, info["marginal"]) == expected


def assert_sliced_float_rows_equal_a_fresh_build(W, point, order, built, mode):
    rows = _expansion_rows(W, point, built, mode)
    fresh = _expansion_rows(W, point, order, mode)
    assert all(type(row) is linalg.FixedRow for row in rows + fresh)
    # FixedRow equality compares the units as well as the ints
    assert _leading_rows(rows, W, built, order) == fresh


@pytest.mark.parametrize("precision", [32, 64, 128])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sliced_float_rows_of_exp_systems_equal_a_fresh_build(n, precision):
    E, _ = get_family("k0_4_exp")
    W = assemble(E, n)
    mode = Mode.floating(precision)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), mode)
    top = E.k0 + 2
    assert_sliced_float_rows_equal_a_fresh_build(W, point, top - 1, top, mode)


@settings(max_examples=30, deadline=None)
@given(
    sampled_relation_systems(),
    st.integers(min_value=1, max_value=2),
    st.sampled_from([32, 64, 128]),
)
def test_sliced_float_rows_equal_a_fresh_build(system, extra, precision):
    W, point, order = system
    mode = Mode.floating(precision)
    assert_sliced_float_rows_equal_a_fresh_build(W, point, order, order + extra, mode)


# --------------------------------------------------------------------------
# support decomposition and the full pipeline

def test_support_decomposition_quadrics():
    # the empirical table is combin.support_dims of the sub-web ranks
    E = quadrics()
    point = GenericPointSampler(seed=0).point(3)
    values = {
        h: rank_estimate(assemble(E, h), point[:h], 4, 8, EXACT).value
        for h in (2, 3)
    }
    assert values == {2: 3, 3: 11}
    delta = support_dims(values)
    assert delta == {2: 3, 3: 2}
    assert delta[2] == values[2]  # base case of the recursion


def test_support_decomposition_matches_counting_table():
    report = verify_max_rank(quadrics(), GenericPointSampler(seed=0))
    assert report.witnesses["N_table_empirical"] == exact_support_dims(3, 3).N_values
    assert report.witnesses["N_table_match"] is True


def test_verify_max_rank_quadrics_with_corroboration():
    report = verify_max_rank(
        quadrics(), GenericPointSampler(seed=0), corroborate=True
    )
    assert report.verdict == TRUE
    values = {c["n"]: c["value"] for c in report.checks}
    assert values == {2: 3, 3: 11, 4: 26}
    assert report.witnesses["N_table_empirical"] == {2: 3, 3: 2}
    assert report.witnesses["N_table_match"] is True


def test_verify_max_rank_exposes_dims_trace():
    report = verify_max_rank(quadrics(), GenericPointSampler(seed=0))
    for check in report.checks:
        assert "dims_trace" in check
        assert check["stabilized_at"] is not None



def test_one_mismatching_point_is_not_false(monkeypatch):
    estimated = inflate_first_rank_estimate(monkeypatch)
    report = verify_max_rank(quadrics(), GenericPointSampler(seed=0))
    assert report.verdict == TRUE
    first = report.checks[0]
    assert first["n"] == 2 and first["verdict"] == TRUE and first["value"] == 3
    (mismatch,) = first["mismatch_points"]
    assert mismatch["value"] == 4
    assert mismatch["point"] == [str(c) for c in estimated[0]]
    assert mismatch["point"] != first["point"]
    assert all("mismatch_points" not in check for check in report.checks[1:])


def test_mismatches_then_no_generic_point_is_inconclusive(monkeypatch):
    # the non-hexagonal x, y, x^2+y+xy mismatches everywhere; sampling then
    # runs out after two points
    E = balanced_set_from_json({"k0": 2, "webs": [["x1"], ["x1^2+x2+x1*x2"]]})
    original = abelrank.generic_point_for_web
    calls = []

    def two_points(*args):
        calls.append(None)
        return original(*args) if len(calls) <= 2 else None

    monkeypatch.setattr(abelrank, "generic_point_for_web", two_points)
    check = check_rank(assemble(E, 2), GenericPointSampler(seed=0), 3, 7, EXACT, 1)
    assert check.verdict == INCONCLUSIVE
    assert [m["value"] for m in check.mismatches] == [0, 0]
    assert check.mismatches[-1]["point"] == [str(c) for c in check.point]
    assert check.estimate.note == "no generic point found after 2 mismatching points"
