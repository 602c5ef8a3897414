import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from webrank import abelrank, linalg
from webrank.abelrank import (
    _relation_columns,
    _relation_rows,
    _source_columns,
    check_rank,
    rank_estimate,
    verify_max_rank,
)
from webrank.catalog import family_names, get_family
from webrank.combin import (
    calibrated_max_rank,
    exact_support_dims,
    max_rank_bound,
    monomial_count,
    support_dims,
)
from webrank.expr import EvalError, parse
from webrank.jets import degree_multi_indices, jet_matrix_from_gradients
from webrank.ordinary import GenericPointSampler
from webrank.report import INCONCLUSIVE, TRUE
from webrank.scalars import EXACT, MODULUS, Mode
from webrank.tpoly import MonomialCodes, integer_offset, mpf_ints, taylor
from webrank.web import assemble, balanced_set_from_json, web_gradients

from helpers import (
    dense_rows,
    generic_point,
    inflate_first_rank_estimate,
    mpf_relation_rows,
    oracle_float_rank,
    pullback,
    rational_rank,
    reparametrize_entry,
    single_integral_web,
    web_point,
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
    point = generic_point(W, 0, EXACT)
    estimate = rank_estimate(W, point, 4, 8, EXACT)
    assert estimate.value == 11 == calibrated_max_rank(3, 3)


def test_dims_agree_at_two_generic_points():
    W = parallel_web()
    values = []
    for seed in (0, 9):
        point = generic_point(W, seed, EXACT)
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
            point = generic_point(W, 0, EXACT)
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
        expansion = taylor(pullback(entry), point, codes, EXACT)
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
    """The monomial rows hold the Fraction rows transposed, unknown (i, m)
    times L_i^m, L_i the offset's lcm; returns both systems."""
    rows, scales = _relation_rows(W, point, order, EXACT, order)
    reference, lcms = fraction_rows(W, point, order)
    assert scales == lcms == offset_scales(W, point, order)
    assert len(rows) == len(_relation_columns(W.n, order))
    assert all(0 <= u < W.size * order for row in rows for u in row)
    assert all(type(v) is int and v for row in rows for v in row.values())
    for j, row in enumerate(rows):
        for u in range(W.size * order):
            i, m = divmod(u, order)  # unknown (i, order - m)
            expected = reference[i * order + order - m - 1][j]
            assert row.get(u, 0) == expected * scales[i] ** (order - m)
    return rows, reference


K0_3_FAMILIES = [name for name in family_names() if name.startswith("k0_3_")]


@st.composite
def sampled_relation_systems(draw):
    """(web, generic point, order) for a k0=3 catalog family at n = 2 or 3."""
    E, _ = get_family(draw(st.sampled_from(K0_3_FAMILIES)))
    W = assemble(E, draw(st.sampled_from([2, 3])))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    point = generic_point(W, seed, EXACT)
    assume(point is not None)
    return W, point, draw(st.integers(min_value=3, max_value=5))


@settings(max_examples=50, deadline=None)
@given(sampled_relation_systems())
def test_integer_rows_are_scaled_fraction_rows(system):
    W, point, order = system
    rows, reference = assert_scaled_fraction_rows(W, point, order)
    assert linalg.exact_rank(rows, W.size * order)[0] == rational_rank(reference)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", ["k0_4_pereira_pirio_affine", "k0_4_WB_sum"])
def test_integer_rows_of_rational_k0_4_systems(name, n):
    # the largest exact systems of the pipeline, with rational entries on up
    # to five variables
    E, _ = get_family(name)
    W = assemble(E, n)
    point = generic_point(W, 0, EXACT)
    assert_scaled_fraction_rows(W, point, E.k0 + 2)


@pytest.mark.parametrize("name", ["k0_4_pereira_pirio_affine", "k0_4_WB_sum"])
def test_order_6_relation_systems_at_n5_have_rank_420_less_maximal_rank(name):
    # the largest systems `verify-family --corroborate` ranks: the kernel
    # dimension 420 - 265 is the closed-form maximal rank 155
    E, _ = get_family(name)
    W = assemble(E, 5)
    point = generic_point(W, 0, EXACT)
    order = E.k0 + 2
    rows, _ = _relation_rows(W, point, order, EXACT, order)
    unknowns = W.size * order
    assert (len(rows), unknowns) == (461, 420)
    assert all(0 <= u < unknowns for row in rows for u in row)
    assert calibrated_max_rank(5, E.k0) == 155
    assert linalg.exact_rank(rows, unknowns)[0] == 420 - 155 == 265


def test_expansion_pole_names_the_entry():
    W = assemble(get_family("k0_3_harmonic_sum")[0], 2)
    with pytest.raises(EvalError, match=r"entry \(2, 1, 2\)"):
        _relation_rows(W, (Fraction(0), Fraction(1)), 3, EXACT, 3)


def rows_by_key(W, rows, built, order):
    """The rows of an order-`built` build on the keys of degree <= order,
    by key; for built = order + 1 they are its leading rows."""
    keys = _relation_columns(W.n, built)
    by_key = {key: row for key, row in zip(keys, rows) if sum(key) <= order}
    if built == order + 1:
        assert list(by_key) == list(keys[: len(by_key)])
    return by_key


def exp_relation_system(n):
    """(web, generic point, order k0 + 1) of k0_4_exp at n, as
    sampled_relation_systems draws them, for the modular slicing case."""
    E, _ = get_family("k0_4_exp")
    W = assemble(E, n)
    point = generic_point(W, 0, Mode.modular())
    return W, point, E.k0 + 1


@settings(max_examples=50, deadline=None)
@given(
    sampled_relation_systems(),
    st.integers(min_value=1, max_value=2),
    st.sampled_from([EXACT, Mode.modular()]),
)
@example(exp_relation_system(2), 1, Mode.modular())
@example(exp_relation_system(3), 1, Mode.modular())
@example(exp_relation_system(4), 1, Mode.modular())
def test_sliced_rows_equal_a_fresh_build(system, extra, mode):
    # _exact_dims slices the leading rows of one build in exact and modular
    # mode; float mode builds every order on its own
    W, point, order = system
    built = order + extra
    m_cap = built + 1  # room for one power more than either build has
    rows, built_scales = _relation_rows(W, point, built, mode, m_cap)
    fresh, fresh_scales = _relation_rows(W, point, order, mode, m_cap)
    assert all(type(v) is int and v for row in rows + fresh for v in row.values())
    if mode.is_exact:
        assert built_scales == offset_scales(W, point, built)
        assert fresh_scales == offset_scales(W, point, order)
    else:
        # residues below q, no column scales
        assert built_scales == fresh_scales == [1] * W.size
        assert all(0 < v < MODULUS for row in rows for v in row.values())

    def rational(rows, scales):
        return {
            key: {
                u: Fraction(v, scales[u // m_cap] ** (m_cap - u % m_cap))
                for u, v in row.items()
            }
            for key, row in rows.items()
        }

    # denominators can grow with degree, so the lcm of a longer expansion may
    # be larger: compare entries with each build's column scale undone
    sliced = rows_by_key(W, rows, built, order)
    expected = rows_by_key(W, fresh, order, order)
    assert rational(sliced, built_scales) == rational(expected, fresh_scales)
    if built_scales == fresh_scales:
        assert sliced == expected
    # and a build from a later monomial on is the tail of the full one
    first = len(_relation_columns(W.n, built - 1))
    tail = _relation_rows(W, point, built, mode, m_cap, first)
    assert tail == (rows[first:], built_scales)


# --------------------------------------------------------------------------
# rows from the generating integrals against the pulled-back trees

def full_point_rows(W, point, order, mode):
    """Reference: the relation system from each pulled-back tree, expanded
    at the full point on n-variable codes, as (rows, scales) like
    _relation_rows with m_cap = order; in float mode the powers of the
    expansion's offset are taken in mpf and each held as ints (mpf_ints)."""
    row_of = {key: j for j, key in enumerate(_relation_columns(W.n, order))}
    codes = MonomialCodes(W.n, order)
    rows = [{} for _ in row_of]
    scales = [] if mode.is_exact else [None] * (W.size * order)
    for i, entry in enumerate(W.entries):
        if mode.is_exact:
            offset, scale = integer_offset(pullback(entry), point, codes)
            scales.append(scale)
            powers = [(power, None) for power in codes.powers(offset, order)]
        else:
            expansion = taylor(pullback(entry), point, codes, mode)
            with mode.workprec():
                offset = {c: v for c, v in expansion.items() if c}
                powers = codes.powers(offset, order)
            for m, power in enumerate(powers):
                ints, unit = mpf_ints(power.values())
                powers[m] = dict(zip(power, ints)), unit
        for m, (power, unit) in enumerate(powers, 1):
            u = i * order + order - m
            if unit is not None:
                scales[u] = unit
            for c, v in power.items():
                rows[row_of[codes.decode(c)]][u] = v
    return rows, scales


def catalog_relation_systems():
    """(family, n, modes) for every family at n = 2..k0+1; the exp/log-free
    families in both modes."""
    out = []
    for name in family_names():
        E, _ = get_family(name)
        modes = [Mode.floating(128)]
        if E.default_mode().is_exact:
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
    point = generic_point(W, 1, E.default_mode())
    order = E.k0 + 2
    for mode in modes:
        rows, scales = _relation_rows(W, point, order, mode, order)
        reference, reference_scales = full_point_rows(W, point, order, mode)
        if mode.is_exact:
            assert offset_scales(W, point, order) == reference_scales
        assert rows == reference
        assert scales == reference_scales  # the L_i, or the unknowns' units


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


def test_lower_order_keys_lead_the_next_order():
    # so the order-M system is the leading rows of the order-(M + 1) build
    for n in range(1, 6):
        for order in range(1, 6):
            keys = _relation_columns(n, order)
            leading = _relation_columns(n, order + 1)[: len(keys)]
            assert sorted(leading) == sorted(keys)


@settings(max_examples=30, deadline=None)
@given(sampled_relation_systems())
def test_support_order_keeps_the_rank(system):
    W, point, order = system
    rows, _ = _relation_rows(W, point, order, EXACT, order)
    row_of = {key: j for j, key in enumerate(_relation_columns(W.n, order))}
    degree_rows = [rows[row_of[key]] for key in degree_ordered_keys(W.n, order)]
    unknowns = W.size * order
    assert (
        linalg.exact_rank(degree_rows, unknowns)[0]
        == linalg.exact_rank(rows, unknowns)[0]
    )


# --------------------------------------------------------------------------
# every order from one growing exact elimination

def separate_dims(W, point, orders, mode=EXACT):
    """Oracle: the kernel dimension at each order from its own fresh build
    and its own elimination, exact or mod q."""
    dims = {}
    for order in orders:
        rows, _ = _relation_rows(W, point, order, mode, order)
        if mode.is_exact:
            rank, _ = linalg.exact_rank(rows, W.size * order)
        else:
            rank = linalg.modular_extend({}, rows, W.size * order)
        dims[order] = W.size * order - rank
    return dims


def grown_dims(W, point, m_start, m_cap, mode=EXACT):
    """The dims rank_estimate reads at every order m_start..m_cap, pulled
    past any stabilization: one growing echelon in exact and modular mode,
    one float elimination per order otherwise."""
    dims_of = abelrank._float_dims if mode.is_float else abelrank._exact_dims
    return {order: dim for order, dim, _ in dims_of(W, point, m_start, m_cap, mode)}


@settings(max_examples=40, deadline=None)
@given(sampled_relation_systems(), st.integers(min_value=0, max_value=2))
def test_one_elimination_gives_the_first_two_dims(system, lower):
    # and the two orders it grows to after them
    W, point, order = system
    m_start = order - lower
    estimate = rank_estimate(W, point, m_start, m_start + 1, EXACT)
    dims = grown_dims(W, point, m_start, m_start + 3)
    assert dims == separate_dims(W, point, dims)
    assert estimate.dims == {m: dims[m] for m in (m_start, m_start + 1)}


EXACT_FAMILIES = [
    name for name in family_names() if get_family(name)[0].default_mode().is_exact
]


@pytest.mark.parametrize("name", [*EXACT_FAMILIES, "k0_4_exp"])
def test_every_estimate_is_read_at_an_ordinary_point_within_the_bound(name):
    # each estimate, matching or not, is read where J_k0 is invertible,
    # where no relation dim exceeds the bound pi (the module docstring)
    E, _ = get_family(name)
    for seed in range(5):
        report = verify_max_rank(E, GenericPointSampler(seed=seed), E.default_mode())
        for record in report.checks:
            n = record["n"]
            for estimated in [record, *record.get("mismatch_points", [])]:
                assert estimated["jet_rank_k0"] == monomial_count(n, E.k0)
                assert estimated["value"] <= calibrated_max_rank(n, E.k0)


@pytest.mark.parametrize("name", EXACT_FAMILIES)
def test_one_elimination_gives_the_first_two_dims_per_family(name):
    # grown from order 1 and from the pipeline's start order k0 + 1 to
    # k0 + 2, at every n that verify-family ranks: the growth from order 1
    # meets every offset denominator that grows with the order
    E, _ = get_family(name)
    for n in range(2, E.k0 + 2):
        W = assemble(E, n)
        point = generic_point(W, 0, EXACT)
        separate = separate_dims(W, point, range(1, E.k0 + 3))
        for m_start in (1, E.k0 + 1):
            dims = grown_dims(W, point, m_start, E.k0 + 2)
            assert dims == {m: separate[m] for m in range(m_start, E.k0 + 3)}


@pytest.mark.parametrize(
    "name,n",
    [
        ("k0_4_pereira_pirio_affine", 3),
        ("k0_4_pereira_pirio_affine", 4),
        ("k0_3_moebius_sum", 3),
        ("k0_3_harmonic_inv", 2),
    ],
)
def test_rescaled_batches_reach_the_kernel_primitive(monkeypatch, name, n):
    # on the rational families every order above m_start + 1 rescales its
    # batch to the first build's column scales; the kernel takes no content
    # of its input rows, so _exact_dims hands it each such row divided by
    # its content, and the dims up to m_cap are those of fresh builds (at
    # seed 2: the first harmonic_inv point of seeds 0 and 1 has x2 = 1 and
    # x1 = 1, where no offset denominator grows)
    E, _ = get_family(name)
    W = assemble(E, n)
    point = generic_point(W, 2, EXACT)
    m_cap = E.k0 + 5
    separate = separate_dims(W, point, range(1, m_cap + 1))
    exact_extend = linalg.exact_extend
    for m_start in (1, E.k0 + 1):
        batches = []

        def spy(echelon, rows, ncols):
            batches.append([math.gcd(*row.values()) for row in rows if row])
            return exact_extend(echelon, rows, ncols)

        monkeypatch.setattr(linalg, "exact_extend", spy)
        dims = grown_dims(W, point, m_start, m_cap)
        monkeypatch.undo()
        assert dims == {m: separate[m] for m in range(m_start, m_cap + 1)}
        # the order-m_start rows, those of degree m_start + 1, then one
        # batch per higher order, rescaled since the first build
        _, first = _relation_rows(W, point, m_start + 1, EXACT, m_cap)
        assert len(batches) == m_cap - m_start + 1
        for order, contents in zip(range(m_start + 2, m_cap + 1), batches[2:]):
            assert _relation_rows(W, point, order, EXACT, m_cap)[1] != first
            assert contents and set(contents) == {1}, order


@pytest.mark.parametrize("precision", [32, 128])
@pytest.mark.parametrize("n", [2, 3])
def test_float_dims_equal_fresh_builds(n, precision):
    # the estimate's dims against each order built and ranked alone, at
    # the pipeline's start order and from order 1
    E, _ = get_family("k0_4_exp")
    W = assemble(E, n)
    mode = Mode.floating(precision)
    point = generic_point(W, 0, mode)
    separate = {}
    for order in range(1, E.k0 + 4):
        [(rank, _)], _ = linalg.ranks(
            lambda m: [_relation_rows(W, point, order, m, order)], mode
        )
        separate[order] = W.size * order - rank
    for m_start in (1, E.k0 + 1):
        dims = grown_dims(W, point, m_start, E.k0 + 3, mode)
        assert dims == {m: separate[m] for m in range(m_start, E.k0 + 4)}


NON_HEXAGONAL = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "nonhexagonal_k0_2.json"
)


@pytest.mark.parametrize("seed", [0, 3])
def test_one_elimination_on_the_non_hexagonal_web(seed):
    # the fixture of `rank --input benchmarks/nonhexagonal_k0_2.json --n 2`,
    # with the dims of every order it ranks
    E = balanced_set_from_json(json.loads(NON_HEXAGONAL.read_text()))
    W = assemble(E, 2)
    point = generic_point(W, seed, EXACT)
    estimate = rank_estimate(W, point, E.k0 + 1, E.k0 + 5, EXACT)
    assert estimate.value == 0
    assert estimate.dims == separate_dims(W, point, estimate.dims)


K0_5_WB_EXTENSION = NON_HEXAGONAL.parent / "k0_5_wb_extension.json"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_elimination_on_the_k0_5_wb_extension(n):
    # the fixture with the largest exact systems at n=5, grown from order 1
    # and from the pipeline's start order k0 + 1 to order 8
    E = balanced_set_from_json(json.loads(K0_5_WB_EXTENSION.read_text()))
    W = assemble(E, n)
    point = generic_point(W, 0, EXACT)
    separate = separate_dims(W, point, range(1, 9))
    for m_start in (1, E.k0 + 1):
        dims = grown_dims(W, point, m_start, 8)
        assert dims == {m: separate[m] for m in range(m_start, 9)}


@pytest.mark.parametrize("seed", [0, 3])
def test_one_elimination_without_stabilization(seed):
    # `rank --input benchmarks/nonhexagonal_k0_2.json --n 2 --m-start 2
    # --m-cap 3`, the report matrix's estimate that runs out of orders
    E = balanced_set_from_json(json.loads(NON_HEXAGONAL.read_text()))
    W = assemble(E, 2)
    check = check_rank(E, 2, GenericPointSampler(seed=seed), 2, 3, EXACT, 1)
    assert check.verdict == INCONCLUSIVE
    estimate = check.estimate
    assert estimate.value is None
    assert estimate.note == "no stabilization up to order 3"
    assert estimate.dims == {2: 1, 3: 0}
    assert estimate.dims == separate_dims(W, check.point, (2, 3))


def linearization_bounds(W, point, top, mode):
    """sum over D <= M of (d - rank_D) for M = 1..top, rank_D the rank of
    the degree-D jet matrix of the gradients at point: the dims of the
    parallel web of those gradients, which bound the relation dims."""
    gradients, unit = web_gradients(W, point, mode)
    bounds, total = {}, 0
    for degree, matrix in enumerate(
        jet_matrix_from_gradients(W.n, top, gradients), start=1
    ):
        if mode.is_exact:
            rank, _ = linalg.exact_rank(*linalg.sparse_rows(matrix))
        else:
            rows, units = linalg.sparse_rows(matrix, degree * unit)
            rank, info = linalg.float_rank(rows, units, mode.precision)
            assert not info["marginal"]
        total += W.size - rank
        bounds[degree] = total
    return bounds


def linearization_cases():
    """(label, web definition, n, mode): the exact catalog families at
    n = 2..k0, the k0=5 fixture at n = 2..4 and the non-hexagonal web, in
    exact mode, and k0_4_exp at n = 2 and 3 in float mode."""
    cases = [
        (name, get_family(name)[0], n, EXACT)
        for name in EXACT_FAMILIES
        for n in range(2, get_family(name)[0].k0 + 1)
    ]
    fixture = balanced_set_from_json(json.loads(K0_5_WB_EXTENSION.read_text()))
    cases += [("k0_5_wb_extension", fixture, n, EXACT) for n in (2, 3, 4)]
    web = balanced_set_from_json(json.loads(NON_HEXAGONAL.read_text()))
    cases.append(("nonhexagonal_k0_2", web, 2, EXACT))
    exp = get_family("k0_4_exp")[0]
    cases += [("k0_4_exp", exp, n, Mode.floating(128)) for n in (2, 3)]
    return [pytest.param(E, n, mode, id=f"{label}-{n}") for label, E, n, mode in cases]


@pytest.mark.parametrize("E,n,mode", linearization_cases())
def test_dims_meet_the_linearization_bound_up_to_k0(E, n, mode):
    # the transposed system is block lower-triangular by degree, with the
    # degree-D jet matrix as its block on the power-D unknowns: its dims at
    # order M are at most the sum of the blocks' kernels, and equal to it
    # for M <= k0, where those blocks have full row rank at an ordinary
    # point.  Grown from order 1 through k0 + 2
    W = assemble(E, n)
    point = generic_point(W, 0, mode)
    top = E.k0 + 2
    dims = grown_dims(W, point, 1, top, mode)
    bounds = linearization_bounds(W, point, top, mode)
    assert all(dims[m] <= bounds[m] for m in range(1, top + 1))
    assert all(dims[m] == bounds[m] for m in range(1, E.k0 + 1))


# --------------------------------------------------------------------------
# the float estimate: its order sequence, and its rows against the mpf build

LOG_DOMAIN = NON_HEXAGONAL.parent / "log_domain_k0_2.json"
DEPENDENT_GRADIENTS = NON_HEXAGONAL.parent / "dependent_gradients_k0_4.json"
DEPENDENT_GRADIENTS_FLOAT = NON_HEXAGONAL.parent / "dependent_gradients_float_k0_4.json"


def web_definition(path):
    return balanced_set_from_json(json.loads(path.read_text()))


def fresh_dims(W, point, orders, mode):
    """Oracle: the kernel dimension of each order from its own build,
    ranked alone (separate_dims in exact and modular mode, linalg.ranks
    from `mode` in float mode)."""
    if not mode.is_float:
        return separate_dims(W, point, orders, mode)
    dims = {}
    for order in orders:
        [(rank, _)], _ = linalg.ranks(
            lambda m: [_relation_rows(W, point, order, m, order)], mode
        )
        dims[order] = W.size * order - rank
    return dims


def relation_dims_cases():
    """(label, web definition, n, mode): every catalog family at n = 2..k0
    in its own mode, k0_4_exp also at 32, 64 and 128 bits, and the log,
    dependent-gradients, non-hexagonal and k0=5 (n <= 4) fixtures."""
    cases = []
    for name in family_names():
        E = get_family(name)[0]
        cases += [(name, E, n, E.default_mode()) for n in range(2, E.k0 + 1)]
    exp = get_family("k0_4_exp")[0]
    cases += [
        (f"k0_4_exp-{bits}", exp, n, Mode.floating(bits))
        for bits in (32, 64, 128)
        for n in (2, 3, 4)
    ]
    fixtures = [
        LOG_DOMAIN,
        DEPENDENT_GRADIENTS,
        DEPENDENT_GRADIENTS_FLOAT,
        NON_HEXAGONAL,
        K0_5_WB_EXTENSION,
    ]
    for path in fixtures:
        E = web_definition(path)
        cases += [
            (path.stem, E, n, E.default_mode()) for n in range(2, min(E.k0, 4) + 1)
        ]
    return [pytest.param(E, n, mode, id=f"{label}-{n}") for label, E, n, mode in cases]


@pytest.mark.parametrize("E,n,mode", relation_dims_cases())
def test_rank_estimate_dims_equal_each_order_ranked_alone(E, n, mode):
    W = assemble(E, n)
    point = web_point(W, 0, mode)
    estimate = rank_estimate(W, point, E.k0 + 1, E.k0 + 5, mode)
    assert estimate.value is not None
    assert estimate.dims == fresh_dims(W, point, estimate.dims, mode)


def float_rank_spy(monkeypatch):
    """Record (rows, precision) of every float_rank call."""
    calls = []
    float_rank = linalg.float_rank

    def spy(rows, units, precision):
        calls.append((len(rows), precision))
        return float_rank(rows, units, precision)

    monkeypatch.setattr(linalg, "float_rank", spy)
    return calls


def estimate_with_spy(monkeypatch, E, n, mode, seed=0):
    """rank_estimate from k0 + 1 at a sampled point: its float_rank calls,
    the numbers of order-(k0 + 2) and order-(k0 + 1) rows, and the
    estimate."""
    W = assemble(E, n)
    point = web_point(W, seed, mode)
    calls = float_rank_spy(monkeypatch)
    estimate = rank_estimate(W, point, E.k0 + 1, E.k0 + 5, mode)
    monkeypatch.undo()
    assert estimate.dims == fresh_dims(W, point, estimate.dims, mode)
    rows = [len(_relation_columns(n, order)) for order in (E.k0 + 2, E.k0 + 1)]
    return calls, rows, estimate


@pytest.mark.parametrize(
    "path,n,dims",
    [
        (None, 2, "bound"),
        (None, 3, "bound"),
        (None, 4, "bound"),
        (DEPENDENT_GRADIENTS_FLOAT, 3, "bound"),
        (DEPENDENT_GRADIENTS_FLOAT, 4, "bound"),
        (NON_HEXAGONAL, 2, "zero"),
    ],
    ids=lambda v: v.stem if isinstance(v, Path) else None,
)
def test_float_estimate_ranks_the_next_order_then_the_start_order(
    monkeypatch, path, n, dims
):
    # order k0 + 2 first, then order k0 + 1 from the precision that
    # decided it: 128 bits for both here, where the dims stabilize at the
    # bound pi (k0_4_exp; the dependent-gradients fixture, whose J_4 is
    # singular) or at 0 (the non-hexagonal web, below its bound 1)
    E = get_family("k0_4_exp")[0] if path is None else web_definition(path)
    mode = Mode.floating(128)
    calls, rows, estimate = estimate_with_spy(monkeypatch, E, n, mode)
    value = max_rank_bound(n, assemble(E, n).size) if dims == "bound" else 0
    assert calls == [(rows[0], 128), (rows[1], 128)]
    assert estimate.dims == {E.k0 + 1: value, E.k0 + 2: value}
    assert estimate.method == "float128"


def test_marginal_next_order_ranks_the_start_order_a_precision_up(monkeypatch):
    # k0_4_exp at n = 3, 32 bits and seed 1: the order-6 system is
    # marginal at 32 bits and read at 64, and order 5 is ranked from 64
    # bits on
    E, _ = get_family("k0_4_exp")
    mode = Mode.floating(32)
    calls, rows, estimate = estimate_with_spy(monkeypatch, E, 3, mode, seed=1)
    assert calls == [(rows[0], 32), (rows[0], 64), (rows[1], 64)]
    assert estimate.dims == {5: 26, 6: 26} and estimate.method == "float64"


@pytest.mark.parametrize("precision", [32, 64, 128])
@pytest.mark.parametrize(
    "path,n",
    [
        (None, 2),
        (None, 3),
        (None, 4),
        (LOG_DOMAIN, 2),
        (DEPENDENT_GRADIENTS_FLOAT, 3),
        (DEPENDENT_GRADIENTS_FLOAT, 4),
    ],
    ids=lambda v: v.stem if isinstance(v, Path) else v,
)
def test_gradients_of_the_float_build_are_web_gradients(path, n, precision):
    # the jet checks rank the web the relation build ranks: the rows of the
    # degree-1 monomials at the unknowns (i, 1), at the caps the estimate
    # builds and above, times their units, are web_gradients' values exactly
    E = get_family("k0_4_exp")[0] if path is None else web_definition(path)
    W = assemble(E, n)
    mode = Mode.floating(precision)
    point = web_point(W, 0, mode)
    gradients, unit = web_gradients(W, point, mode)
    expected = [[Fraction(v) * Fraction(2) ** unit for v in g] for g in gradients]
    for order in (E.k0 + 1, E.k0 + 2, E.k0 + 5):
        rows, units = _relation_rows(W, point, order, mode, order)
        row_of = {key: j for j, key in enumerate(_relation_columns(n, order))}
        linear = [row_of[key] for key in degree_multi_indices(n, 1)]
        firsts = [(i + 1) * order - 1 for i in range(W.size)]  # unknowns (i, 1)
        assert [
            [Fraction(rows[j].get(u, 0)) * Fraction(2) ** units[u] for j in linear]
            for u in firsts
        ] == expected


def mpf_value(v) -> Fraction:
    sign, man, exp, _ = v._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@pytest.mark.parametrize("precision", [32, 128])
@pytest.mark.parametrize(
    "path,n",
    [(None, 2), (None, 3), (LOG_DOMAIN, 2), (LOG_DOMAIN, 3)],
    ids=lambda v: v.stem if isinstance(v, Path) else v,
)
def test_float_relation_rows_are_the_mpf_powers_exactly(path, n, precision):
    # the monomial rows, times their units, hold the entries of the mpf
    # build in the row layout (one row per unknown) transposed, with no
    # bit lost between the mpf powers and the ints the kernel takes
    E = get_family("k0_4_exp")[0] if path is None else web_definition(path)
    W = assemble(E, n)
    mode = Mode.floating(precision)
    point = generic_point(W, 0, mode)
    order = E.k0 + 2
    rows, units = _relation_rows(W, point, order, mode, order)
    expected = [{} for _ in rows]
    for k, row in enumerate(mpf_relation_rows(W, point, order, mode)):
        i, m = divmod(k, order)  # unknown (i, m + 1)
        for j, v in row.items():
            expected[j][(i + 1) * order - m - 1] = mpf_value(v)
    assert [
        {u: v * Fraction(2) ** units[u] for u, v in row.items()} for row in rows
    ] == expected


def assert_float_ranks_match_mpf_oracle(E, n, precision):
    """The int systems rank_estimate ranks at its first two orders,
    each built on its own, against the mpf oracle on mpf systems built in
    the row layout, one row per unknown."""
    W = assemble(E, n)
    mode = Mode.floating(precision)
    point = generic_point(W, 0, mode)
    for order in (E.k0 + 1, E.k0 + 2):
        rows, units = _relation_rows(W, point, order, mode, order)
        rank, info = linalg.float_rank(rows, units, precision)
        ncols = len(_relation_columns(n, order))
        oracle_rows = mpf_relation_rows(W, point, order, mode)
        expected = oracle_float_rank(dense_rows(oracle_rows, ncols), precision)
        assert (rank, info["marginal"]) == expected


@pytest.mark.parametrize("precision", [32, 64, 128])
@pytest.mark.parametrize("n", [2, 3])
def test_float_rank_of_exp_relation_systems_matches_mpf_oracle(n, precision):
    # the k0_4_exp systems verify-family ranks (at 32 bits the n = 3
    # order-6 system is marginal).  The n = 4 systems (125 and 209 monomial
    # rows) take the dense mpf oracle about 9 s per precision, so they are
    # left out here; benchmarks/bench_kernels.py checks both at 32, 64 and
    # 128 bits
    assert_float_ranks_match_mpf_oracle(get_family("k0_4_exp")[0], n, precision)


@pytest.mark.parametrize("precision", [32, 64, 128])
@pytest.mark.parametrize("n", [2, 3])
def test_float_rank_of_log_relation_systems_matches_mpf_oracle(n, precision):
    E = balanced_set_from_json(json.loads(LOG_DOMAIN.read_text()))
    assert_float_ranks_match_mpf_oracle(E, n, precision)


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
    E = quadrics()
    report = verify_max_rank(E, GenericPointSampler(seed=0), E.default_mode())
    assert report.witnesses["N_table_empirical"] == exact_support_dims(3, 3).N_values
    assert report.witnesses["N_table_match"] is True


def test_verify_max_rank_quadrics_with_corroboration():
    E = quadrics()
    report = verify_max_rank(
        E, GenericPointSampler(seed=0), E.default_mode(), corroborate=True
    )
    assert report.verdict == TRUE
    values = {c["n"]: c["value"] for c in report.checks}
    assert values == {2: 3, 3: 11, 4: 26}
    assert report.witnesses["N_table_empirical"] == {2: 3, 3: 2}
    assert report.witnesses["N_table_match"] is True


def test_verify_max_rank_exposes_dims_trace():
    E = quadrics()
    report = verify_max_rank(E, GenericPointSampler(seed=0), E.default_mode())
    for check in report.checks:
        assert "dims_trace" in check
        assert check["stabilized_at"] is not None



def test_one_mismatching_point_is_not_false(monkeypatch):
    estimated = inflate_first_rank_estimate(monkeypatch)
    E = quadrics()
    report = verify_max_rank(E, GenericPointSampler(seed=0), E.default_mode())
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
    check = check_rank(E, 2, GenericPointSampler(seed=0), 3, 7, EXACT, 1)
    assert check.verdict == INCONCLUSIVE
    assert [m["value"] for m in check.mismatches] == [0, 0]
    assert check.mismatches[-1]["point"] == [str(c) for c in check.point]
    assert check.estimate.note == "no ordinary point found after 2 mismatching points"
