import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    cofactor_det,
    dense_rank_fixed_rows,
    fixed_row,
    fixed_rows,
    integer_rows,
    mpf_fixed_point_rows,
    oracle_float_rank,
)
from webrank import linalg
from webrank.scalars import Mode


def naive_rank(rows):
    """Oracle: plain Fraction row reduction, no pivot strategy tricks.

    Returns (rank, pivot columns of the echelon form, left to right).
    """
    work = [[Fraction(v) for v in row] for row in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    columns = []
    for col in range(n):
        rank = len(columns)
        pivot = next((i for i in range(rank, m) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank][col]
        for i in range(rank + 1, m):
            factor = work[i][col] / head
            if factor:
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        columns.append(col)
    return len(columns), columns


def rank_int(rows):
    """rank_int_rows of a dense int matrix."""
    return linalg.exact_rank(*linalg.sparse_rows(rows))


def test_rank_int_examples():
    assert rank_int([[1, -1], [1, 1]]) == (2, [(0, 0), (1, 1)])
    assert rank_int([[0, 0], [0, 0]]) == (0, [])
    assert rank_int([[1, 2], [2, 4], [3, 6]]) == (1, [(0, 0)])
    assert rank_int([[0, 2, 4], [0, 3, 6], [0, 0, 5]]) == (2, [(0, 1), (1, 2)])
    assert rank_int([]) == (0, [])


def test_det_int_examples():
    assert linalg.exact_det([[1, -1], [1, 1]]) == 2
    assert linalg.exact_det([[2, 0], [0, 3]]) == 6
    assert linalg.exact_det([[1, 2], [2, 4]]) == 0
    assert linalg.exact_det([[0, 1], [1, 0]]) == -1
    assert linalg.exact_det([]) == 1


def test_exact_det_leaves_its_rows_and_rejects_non_square():
    rows = [[0, 2, 1], [3, 1, 4], [1, 5, 9]]
    before = [list(row) for row in rows]
    assert linalg.exact_det(rows) == -32
    assert rows == before
    with pytest.raises(ValueError):
        linalg.exact_det([[1, 2], [3]])


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.lists(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=n,
                max_size=n,
            ),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_exact_rank_matches_naive_oracle(rows):
    # row scaling keeps the rank and the pivot columns
    rank, columns = naive_rank(rows)
    cleared, _ = integer_rows(rows)
    assert linalg.exact_rank(*linalg.sparse_rows(cleared)) == (
        rank,
        list(enumerate(columns)),
    )


@st.composite
def sparse_low_rank_int_matrices(draw):
    """A (m x r) times B (r x n) with sparse factors whose nonzero entries are
    small or of 90 to 100 bits (products up to about 2^200), then zero rows,
    duplicated and negated rows and zero columns inserted, rows shuffled."""
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.integers(min_value=0, max_value=min(m, n)))
    entries = st.one_of(
        st.just(0),
        st.integers(min_value=-3, max_value=3),
        st.builds(
            operator.mul,
            st.sampled_from([1, -1]),
            st.integers(min_value=2**90, max_value=2**100),
        ),
    )
    a = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    rows = [
        [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(m)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [0] * n)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        source = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        sign = draw(st.sampled_from([1, -1]))
        rows.append([sign * v for v in source])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        j = draw(st.integers(min_value=0, max_value=len(rows[0])))
        for row in rows:
            row.insert(j, 0)
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(sparse_low_rank_int_matrices())
@example([[6, 4], [9, 6]])
@example([[2, 0, 3], [4, 1, 0], [0, 0, 0], [-2, 0, -3]])
def test_rank_int_rows_matches_fraction_oracle_and_pivot_columns(rows):
    before = [row[:] for row in rows]
    rank, columns = naive_rank(rows)
    sparse, ncols = linalg.sparse_rows(rows)
    sparse_before = [dict(row) for row in sparse]
    assert linalg.exact_rank(sparse, ncols) == (
        rank,
        list(enumerate(columns)),
    )
    assert rows == before
    assert sparse == sparse_before


SMALL_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def row_contents(draw, count):
    """count signed products of powers of small primes, up to about 2^560."""
    return [
        draw(st.sampled_from([1, -1]))
        * math.prod(
            p ** draw(st.integers(min_value=0, max_value=50)) for p in SMALL_PRIMES
        )
        for _ in range(count)
    ]


@settings(max_examples=150, deadline=None)
@given(
    sparse_low_rank_int_matrices().flatmap(
        lambda rows: st.tuples(st.just(rows), row_contents(len(rows)))
    )
)
@example(([[6, 4], [9, 6]], [2**40 * 3**20, -(5**30)]))
def test_rank_int_rows_ignores_large_row_contents(case):
    # the kernel removes each row's content before it eliminates: rows with
    # large contents, like the powers of one offset in the relation rows,
    # give the rank and pivot columns of the unscaled rows and of the oracle
    rows, contents = case
    scaled = [[c * v for v in row] for c, row in zip(contents, rows)]
    rank, columns = naive_rank(rows)
    expected = (rank, list(enumerate(columns)))
    assert naive_rank(scaled) == (rank, columns)
    assert linalg.exact_rank(*linalg.sparse_rows(scaled)) == expected
    assert linalg.exact_rank(*linalg.sparse_rows(rows)) == expected


prime_products = st.builds(
    lambda sign, a, b, c: sign * 2**a * 3**b * 5**c,
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)


@st.composite
def prime_product_matrices(draw):
    """Sparse int matrices of up to 20 columns and about 20 rows whose
    nonzeros are signed products of powers of 2, 3 and 5, plus a few rows
    that are combinations of two drawn rows with such coefficients: the
    factors the rows share survive the rescales, so rows carry content into
    the columns where they become pivots, and the combinations reduce to
    zero."""
    m = draw(st.integers(min_value=1, max_value=18))
    n = draw(st.integers(min_value=1, max_value=20))
    entries = st.one_of(st.just(0), st.just(0), prime_products)
    rows = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a, b = (rows[draw(st.integers(min_value=0, max_value=m - 1))] for _ in "ab")
        x, y = draw(prime_products), draw(prime_products)
        rows.append([x * u + y * v for u, v in zip(a, b)])
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(prime_product_matrices())
@example([[2, -1, 0], [1, 2, 0], [-1, 0, 2]])  # pivot content 5, from q = 1
@example([[-2, -1, 0], [6, 0, -1], [3, -1, 0]])  # 5, in a rescaled row
@example([[-1, 4, 1], [2, 1, 1], [-2, 0, 1], [-2, -1, 0]])  # 7; one row ends at zero
def test_exact_rank_with_content_in_its_pivots_matches_naive_oracle(rows):
    # the kernel divides a row by its content when the row becomes a pivot,
    # not after each rescale: same rank and pivot columns, input dicts kept
    rank, columns = naive_rank(rows)
    sparse, ncols = linalg.sparse_rows(rows)
    before = [dict(row) for row in sparse]
    assert linalg.exact_rank(sparse, ncols) == (rank, list(enumerate(columns)))
    assert sparse == before


@settings(max_examples=100, deadline=None)
@given(prime_product_matrices())
# at column 0 the later row [1, 0, 0] has the best Markowitz key; were it
# the pivot, the first two rows would reduce to multiples of [0, 1, 1] and
# take one pivot for their rank 2
@example([[3, 1, 1], [3, -1, -1], [1, 0, 0]])
def test_exact_rank_counts_the_pivots_of_its_leading_rows(rows):
    # the first k rows pivot before any other row at their column, so the
    # pivots they take count their own rank, for every split k
    rank, columns = naive_rank(rows)
    sparse, ncols = linalg.sparse_rows(rows)
    before = [dict(row) for row in sparse]
    for k in range(len(rows) + 1):
        leading_rank = naive_rank(rows[:k])[0] if k else 0
        assert linalg.exact_rank(sparse, ncols, leading=k) == (
            rank,
            list(enumerate(columns)),
            leading_rank,
        )
    assert sparse == before


def shuffled_dicts(draw, rows):
    """rows as {column: value} dicts in a drawn key order, some with
    explicit zeros."""
    out = []
    for row in rows:
        items = [(j, v) for j, v in enumerate(row) if v or draw(st.booleans())]
        out.append(dict(draw(st.permutations(items))))
    return out


@settings(max_examples=100, deadline=None)
@given(sparse_low_rank_int_matrices(), st.data())
def test_exact_rank_of_dicts_in_any_key_order_matches_dense(rows, data):
    sparse = shuffled_dicts(data.draw, rows)
    before = [dict(row) for row in sparse]
    ncols = len(rows[0])
    assert linalg.exact_rank(sparse, ncols) == linalg.exact_rank(
        *linalg.sparse_rows(rows)
    )
    assert [list(row.items()) for row in sparse] == [
        list(row.items()) for row in before
    ]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_float_rank_of_dicts_in_any_key_order_matches_dense(data):
    precision = data.draw(precisions)
    rows = to_mpf_rows(data.draw(low_rank_products()), precision)
    sparse = [fixed_row(row, precision) for row in shuffled_dicts(data.draw, rows)]
    before = [dict(row) for row in sparse]
    ncols = len(rows[0])
    assert linalg.float_rank(sparse, ncols, precision) == linalg.float_rank(
        *fixed_rows(rows, precision), precision
    )
    assert [list(row.items()) for row in sparse] == [
        list(row.items()) for row in before
    ]


square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=-4, max_value=4),
                st.integers(min_value=-(10**30), max_value=10**30),
            ),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=40, deadline=None)
@given(square_matrices)
def test_exact_det_matches_cofactor_expansion(rows):
    assert linalg.exact_det(rows) == cofactor_det(rows)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_float_rank_agrees_with_exact_on_rationals(rows):
    exact = linalg.exact_rank(*linalg.sparse_rows(integer_rows(rows)[0]))[0]
    with mpmath.workprec(128):
        floats = [
            [mpmath.mpf(v.numerator) / v.denominator for v in row] for row in rows
        ]
    rank, info = linalg.float_rank(*fixed_rows(floats, 128), 128)
    assert rank == exact
    assert not info["marginal"]


def test_float_rank_zero_matrix():
    rank, info = linalg.float_rank(*fixed_rows([[mpmath.mpf(0)] * 3] * 2, 128), 128)
    assert rank == 0
    assert not info["marginal"]


def test_float_rank_flags_marginal_pivot():
    with mpmath.workprec(128):
        tiny = mpmath.mpf(2) ** -62  # between the threshold 2^-64 and 16*threshold
        rows = [[mpmath.mpf(1), mpmath.mpf(0)], [mpmath.mpf(0), tiny]]
    rank, info = linalg.float_rank(*fixed_rows(rows, 128), 128)
    assert info["marginal"]


def test_ranks_rebuilds_all_matrices_at_double_precision():
    # the identity, then diag(1, 2^-62): marginal at 128 bits, clear at 256
    blocks = [([[1, 0], [0, 1]], 0), ([[2**62, 0], [0, 1]], -62)]
    built = []

    def build(mode):
        built.append(mode.precision)
        return [linalg.sparse_rows(rows, unit) for rows, unit in blocks]

    ranks, used = linalg.ranks(build, Mode.floating(128))
    assert built == [128, 256]
    assert used == Mode.floating(256)
    assert [rank for rank, _ in ranks] == [2, 2]


def test_ranks_in_exact_mode_build_once_and_rank_exactly():
    # 1 against 2^62 is marginal at 128 bits, a plain pivot over Q
    blocks = [[[2**62, 0], [0, 1]], [[2, 4], [1, 2]]]
    built = []

    def build(mode):
        built.append(mode)
        return map(linalg.sparse_rows, blocks)

    ranks, used = linalg.ranks(build, Mode.exact())
    assert built == [Mode.exact()] and used == Mode.exact()
    assert ranks == [linalg.exact_rank(*linalg.sparse_rows(b)) for b in blocks]
    assert [rank for rank, _ in ranks] == [2, 1]


precisions = st.sampled_from([32, 64, 128, 256])


@st.composite
def low_rank_products(draw):
    """A (m x r) times B (r x n) with small random integers, either orientation."""
    m = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=7))
    r = draw(st.integers(min_value=0, max_value=min(m, n)))
    small = st.integers(min_value=-9, max_value=9)
    a = draw(st.lists(st.lists(small, min_size=r, max_size=r), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=r, max_size=r))
    product = [
        [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(m)
    ]
    if draw(st.booleans()):
        product = [list(col) for col in zip(*product)]
    return product


@st.composite
def near_threshold_diagonals(draw, precision):
    """Row-permuted diagonal: a unit entry and entries at 2^-(p/2 +- 2..6)."""
    offsets = draw(
        st.lists(st.sampled_from([-6, -5, -4, -3, -2, 2, 3, 4, 5, 6]), max_size=4)
    )
    exponents = [0] + [off - precision // 2 for off in offsets]
    size = len(exponents)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    order = draw(st.permutations(range(size)))
    with mpmath.workprec(precision):
        diagonal = [sign * mpmath.ldexp(1, e) for sign, e in zip(signs, exponents)]
        zero = mpmath.mpf(0)
    return [[diagonal[i] if j == i else zero for j in range(size)] for i in order]


def to_mpf_rows(rows, precision):
    with mpmath.workprec(precision):
        return [[mpmath.mpf(v) for v in row] for row in rows]


@settings(max_examples=120, deadline=None)
@given(low_rank_products(), precisions)
def test_fixed_point_rank_matches_mpf_oracle_on_low_rank_products(rows, precision):
    floats = to_mpf_rows(rows, precision)
    rank, info = linalg.float_rank(*fixed_rows(floats, precision), precision)
    assert (rank, info["marginal"]) == oracle_float_rank(floats, precision)


@settings(max_examples=120, deadline=None)
@given(precisions.flatmap(lambda p: st.tuples(near_threshold_diagonals(p), st.just(p))))
def test_fixed_point_rank_matches_mpf_oracle_near_threshold(case):
    rows, precision = case
    rank, info = linalg.float_rank(*fixed_rows(rows, precision), precision)
    assert (rank, info["marginal"]) == oracle_float_rank(rows, precision)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    precisions,
)
def test_fixed_point_rank_matches_mpf_oracle_on_zero_matrices(m, n, precision):
    rows = to_mpf_rows([[0] * n for _ in range(m)], precision)
    rank, info = linalg.float_rank(*fixed_rows(rows, precision), precision)
    assert (rank, info["marginal"]) == oracle_float_rank(rows, precision) == (0, False)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        min_size=1,
        max_size=8,
    ),
    precisions,
)
def test_fixed_point_rank_matches_mpf_oracle_on_single_rows(row, precision):
    with mpmath.workprec(precision):
        rows = [[mpmath.mpf(v.numerator) / v.denominator for v in row]]
    rank, info = linalg.float_rank(*fixed_rows(rows, precision), precision)
    assert (rank, info["marginal"]) == oracle_float_rank(rows, precision)
    assert rank == (1 if any(row) else 0)


def test_float_rank_certificate_is_in_input_units():
    with mpmath.workprec(128):
        rows = [[mpmath.mpf(3) / 8, mpmath.mpf(0)], [mpmath.mpf(0), mpmath.mpf(-5)]]
    rank, info = linalg.float_rank(*fixed_rows(rows, 128), 128)
    assert rank == 2
    certificate = linalg.float_certificate(info)
    assert certificate["pivot_magnitudes"] == ["5.0", "0.375"]
    assert certificate["largest_discarded"] is None


def test_float_certificate_formats_the_raw_info_as_before():
    # The strings float_rank printed when it formatted every certificate
    # itself; its info now keeps the magnitudes as ints in info["unit"].
    with mpmath.workprec(128):
        one_small = [
            [mpmath.mpf(1), mpmath.mpf(0)],
            [mpmath.mpf(0), mpmath.ldexp(3, -70)],
        ]
    with mpmath.workprec(64):
        thirds = [
            [mpmath.mpf(1) / 3, mpmath.mpf(-2) / 7, mpmath.mpf(5)],
            [mpmath.mpf(10) / 9, mpmath.mpf(4) / 11, mpmath.mpf(0)],
            [mpmath.ldexp(1, -40), mpmath.mpf(0), mpmath.mpf(0)],
        ]
    cases = [
        (one_small, 128, 1, ["1.0"], "2.5410988e-21", "2^-64"),
        (thirds, 64, 2, ["5.0", "1.1111111"], "2.9765281e-13", "2^-32"),
        (one_small, 32, 1, ["1.0"], "2.5410988e-21", "2^-16"),
    ]
    for rows, precision, rank, pivots, discarded, ratio in cases:
        got, info = linalg.float_rank(*fixed_rows(rows, precision), precision)
        assert got == rank and not info["marginal"]
        assert info["precision"] == precision
        assert all(type(v) is int for v in info["pivot_magnitudes"])
        assert type(info["largest_discarded"]) is int
        assert linalg.float_certificate(info) == {
            "pivot_magnitudes": pivots,
            "largest_discarded": discarded,
            "tolerance_ratio": ratio,
            "gap": linalg.FLOAT_GAP,
        }


# --------------------------------------------------------------------------
# sparse fixed-point kernel against the dense oracle

TIE_HEAVY = [0, 0, 0, 1, -1, 2, -2, 2**40, -(2**40), 5 * 2**38]


@st.composite
def tie_heavy_int_matrices(draw):
    """Dense int rows of any shape from a few repeated magnitudes, with some
    rows and columns set to zero.  Returns (rows, number of columns)."""
    m = draw(st.integers(min_value=0, max_value=10))
    n = draw(st.integers(min_value=1, max_value=10))
    entry = st.sampled_from(TIE_HEAVY)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.integers(min_value=-(2**70), max_value=2**70))
    rows = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=max(m - 1, 0))))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    rows = [
        [0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return rows, n


def sparse_rows(rows):
    return linalg.sparse_rows(rows)[0]


@settings(max_examples=400, deadline=None)
@given(tie_heavy_int_matrices(), st.sampled_from([2, 4, 16, 32, 64]))
def test_sparse_fixed_rank_matches_dense_oracle(case, shift):
    rows, n = case
    expected = dense_rank_fixed_rows([row[:] for row in rows], shift, linalg.FLOAT_GAP)
    got = linalg.rank_fixed_rows(sparse_rows(rows), n, shift, linalg.FLOAT_GAP)
    assert got == expected


@st.composite
def wide_int_matrices(draw):
    """Dense int rows of any shape at a fixed-point matrix's width: entries
    of up to 96-200 bits, a few of them sharing magnitudes (ties within and
    across rows), many zeros, so that a row's largest entry often sits
    outside the pivot row's nonzeros.  Returns (rows, number of columns)."""
    m = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=1, max_value=9))
    width = draw(st.integers(min_value=96, max_value=200))
    wide = st.integers(min_value=-(2**width), max_value=2**width)
    shared = draw(st.lists(wide, min_size=1, max_size=3))
    entry = st.one_of(
        st.just(0),
        st.sampled_from(shared).flatmap(lambda v: st.sampled_from([v, -v])),
        st.tuples(wide, st.integers(min_value=0, max_value=64)).map(
            lambda t: t[0] >> t[1]
        ),
    )
    rows = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    return rows, n


@settings(max_examples=300, deadline=None)
@given(wide_int_matrices(), st.sampled_from([16, 32, 64]))
# row 1's largest entry, 2^150 in column 2, is outside the pivot row's
# nonzeros: its maximum is kept, not rescanned
@example(([[2**160, 2**100, 0], [2**140, 3**60, 2**150]], 3), 64)
# row 1's largest entry, in column 1, is updated: the row is rescanned
@example(([[2**160, 2**100, 0], [2**140, 2**151, 2**150]], 3), 64)
def test_sparse_fixed_rank_matches_dense_oracle_on_wide_entries(case, shift):
    rows, n = case
    expected = dense_rank_fixed_rows([row[:] for row in rows], shift, linalg.FLOAT_GAP)
    got = linalg.rank_fixed_rows(sparse_rows(rows), n, shift, linalg.FLOAT_GAP)
    assert got == expected


def test_sparse_fixed_rank_breaks_ties_in_dense_swap_order():
    # The first pivot, 4 (a power of two, so that the reciprocal update is
    # exact here), swaps row 2 with row 0, so row 0 now follows row 1.  Both
    # then hold a 2 (rows 1 and 0 hold -2 and 2): the dense kernel takes row
    # 1's, which leaves pivots 4, 2, 2; taking row 0's, first by original
    # index, would leave 4, 2, 1.
    rows = [[0, -1, 2], [2, 0, 0], [4, 4, -2]]
    expected = dense_rank_fixed_rows([row[:] for row in rows], 8, 16)
    assert expected == (3, [4, 2, 2], None, False)
    assert linalg.rank_fixed_rows(sparse_rows(rows), 3, 8, 16) == expected


@st.composite
def one_update(draw):
    """(p, b, f, a): a pivot p of up to 400 bits, either sign, the pivot
    row's entry b and the updated row's entries f (pivot column) and a, with
    |f|, |b|, |a| <= |p| and the exact update a - f*b/p inside (4 - |p|,
    |p| - 4)."""
    size = draw(st.integers(min_value=5, max_value=2**400))
    p = draw(st.sampled_from([size, -size]))
    f = draw(st.integers(min_value=-size, max_value=size))
    b = draw(st.integers(min_value=-size, max_value=size))
    cancelled = Fraction(f * b, p)
    low = max(-size, math.floor(cancelled) - size + 5)
    high = min(size, math.ceil(cancelled) + size - 5)
    a = draw(st.integers(min_value=low, max_value=high))
    return p, b, f, a


@settings(max_examples=300, deadline=None)
@given(one_update(), st.booleans())
@example((-5, 5, -5, 5), False)
@example((-5, 5, -5, 5), True)
@example((2**400, -(2**400), 2**400 - 1, 5 - 2**400), True)
def test_one_reciprocal_update_errs_by_less_than_two_units(case, rescan):
    # [[p, b, e], [f, a, |p|]]: p is the first pivot (ties go to row 0).  Row
    # 1's largest magnitude, |p|, sits in column 2, which the update leaves
    # alone when e = 0 (the row keeps its maximum, unless a tie recorded it
    # in column 0 or 1) and changes when e = 1 (the row is rescanned).  The
    # update leaves a' in row 1, and column 2 (|p| - f/p, within 2 units)
    # beats |a'| < |p| - 2 for the second pivot, so a' stays with its sign.
    p, b, f, a = case
    pivot_row = {0: p, 1: b, 2: 1} if rescan else {0: p, 1: b}
    rows = [pivot_row, {0: f, 1: a, 2: abs(p)}]
    rank, pivots, _, _ = linalg.rank_fixed_rows(rows, 3, 1000, linalg.FLOAT_GAP)
    assert rank == 2 and pivots[0] == abs(p)
    assert 2 not in rows[1]
    exact = a - Fraction(f * b, p)
    assert abs(rows[1].get(1, 0) - exact) < 2


@st.composite
def mpf_matrices_with_underflow(draw, precision):
    """mpf rows mixing unit-size entries, ties, zeros and entries near 2^-300,
    below the fixed-point unit at up to 128 bits; 1/3 has twice the bits of
    precision, so it is rounded first."""
    m = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=7))
    with mpmath.workprec(2 * precision):
        values = [
            mpmath.mpf(0),
            mpmath.mpf(1),
            mpmath.mpf(-2),
            mpmath.ldexp(1, -300),
            -mpmath.ldexp(3, -301),
            mpmath.mpf(1) / 3,
            mpmath.ldexp(5, 38),
        ]
    entry = st.sampled_from(values)
    return draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    )


@settings(max_examples=150, deadline=None)
@given(
    precisions.flatmap(
        lambda p: st.tuples(mpf_matrices_with_underflow(p), st.just(p))
    )
)
def test_fixed_point_rows_and_sparse_rank_match_dense_conversion(case):
    rows, precision = case
    fixed, unit = linalg._fixed_point_rows(fixed_rows(rows, precision)[0], precision)
    with mpmath.workprec(precision):
        dense = [[int(mpmath.ldexp(mpmath.mpf(v), -unit)) for v in row] for row in rows]
    assert fixed == sparse_rows(dense)
    n = len(rows[0])
    shift = precision // 2
    assert linalg.rank_fixed_rows(
        fixed, n, shift, linalg.FLOAT_GAP
    ) == dense_rank_fixed_rows(dense, shift, linalg.FLOAT_GAP)


def test_fixed_point_rows_drop_entries_below_the_unit():
    with mpmath.workprec(128):
        rows = [[mpmath.mpf(1), mpmath.ldexp(1, -300)], [mpmath.mpf(0), mpmath.mpf(-1)]]
    assert linalg._fixed_point_rows(fixed_rows(rows, 128)[0], 128) == (
        [{0: 2**191}, {1: -(2**191)}],
        -191,
    )


@st.composite
def wide_mpf_rows(draw, precision):
    """Sparse rows of mpf entries with mantissas up to three times the
    precision wide, exponents far enough apart that some entries truncate to
    zero at the matrix unit, explicit zeros and plain ints."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    wide = 3 * precision
    entry = st.one_of(
        st.tuples(
            st.integers(min_value=-(2**wide), max_value=2**wide),
            st.integers(min_value=-2 * wide, max_value=wide),
        ),
        st.just((0, 0)),
        st.integers(min_value=-(2**70), max_value=2**70),
    )
    rows = []
    with mpmath.workprec(wide + 8):  # every (man, exp) held exactly
        for _ in range(m):
            row = {}
            for j in range(n):
                v = draw(entry)
                if draw(st.booleans()):
                    row[j] = v if isinstance(v, int) else mpmath.mpf(v)
            rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(precisions.flatmap(lambda p: st.tuples(wide_mpf_rows(p), st.just(p))))
def test_converted_mpf_rows_align_as_the_one_pass_conversion(case):
    # the tests' fixed_row then the aligner give the ints and unit of the
    # one-pass conversion _fixed_point_rows made before rows carried their
    # own units
    rows, precision = case
    fixed = [fixed_row(row, precision) for row in rows]
    assert linalg._fixed_point_rows(fixed, precision) == mpf_fixed_point_rows(
        rows, precision
    )


@settings(max_examples=100, deadline=None)
@given(precisions.flatmap(lambda p: st.tuples(wide_mpf_rows(p), st.just(p))))
def test_fixed_row_holds_the_rounded_entries_exactly(case):
    rows, precision = case
    for row in rows:
        fixed = fixed_row(row, precision)
        with mpmath.workprec(precision):
            rounded = {j: mpmath.mpf(v) for j, v in row.items() if v}
        assert {j: v for j, v in rounded.items() if v} == {
            j: mpmath.ldexp(v, fixed.unit) for j, v in fixed.items()
        }
        assert all(type(v) is int and v for v in fixed.values())


@st.composite
def fixed_row_matrices(draw):
    """FixedRows with ints of up to 300 bits at units far apart."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        entries = draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=-(2**300), max_value=2**300).filter(bool),
                max_size=6,
            )
        )
        rows.append(linalg.FixedRow(entries, draw(st.integers(-600, 300))))
    return rows


@settings(max_examples=200, deadline=None)
@given(fixed_row_matrices(), precisions)
def test_fixed_rows_are_aligned_to_the_matrix_unit(rows, precision):
    fixed, unit = linalg._fixed_point_rows(rows, precision)
    tops = [r.unit + max(map(abs, r.values())).bit_length() for r in rows if r]
    if not tops:
        assert (fixed, unit) == ([{} for _ in rows], 0)
        return
    assert unit == max(tops) - precision - linalg.FIXED_GUARD_BITS
    for row, aligned in zip(rows, fixed):
        expected = {}
        for j, v in row.items():
            exact = Fraction(v) * Fraction(2) ** (row.unit - unit)
            truncated = math.trunc(exact)  # toward zero
            if truncated:
                expected[j] = truncated
        assert aligned == expected


def test_fixed_rows_compare_their_units():
    assert linalg.FixedRow({0: 3}, -2) == linalg.FixedRow({0: 3}, -2)
    assert linalg.FixedRow({0: 3}, -2) != linalg.FixedRow({0: 3}, -1)
    assert linalg.FixedRow({0: 3}, 0) != {0: 3}


def test_integer_rows_clears_denominators():
    cleared, scales = integer_rows([[Fraction(1, 2), Fraction(1, 3)]])
    assert cleared == [[3, 2]]
    assert scales == [6]


def reference_integer_rows(rows):
    """The denominator clearing as first written: int(v * lcm) per entry."""
    cleared, scales = [], []
    for row in rows:
        denlcm = 1
        for value in row:
            if isinstance(value, Fraction):
                denlcm = denlcm * value.denominator // math.gcd(
                    denlcm, value.denominator
                )
        cleared.append(
            [
                int(value * denlcm) if isinstance(value, Fraction) else value * denlcm
                for value in row
            ]
        )
        scales.append(denlcm)
    return cleared, scales


mixed_rows = st.lists(
    st.lists(
        st.one_of(
            st.integers(min_value=-10**6, max_value=10**6),
            st.fractions(min_value=-50, max_value=50, max_denominator=30),
            st.just(Fraction(0)),
        ),
        max_size=8,
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(mixed_rows)
@example([[0, 0, 0], [Fraction(0)] * 3])
@example([[Fraction(6, 3), -4, Fraction(-7)], [3, -5]])
@example([[Fraction(-1, 2), 3, Fraction(5, 6)], []])
def test_integer_rows_match_reference_clearing(rows):
    cleared, scales = integer_rows(rows)
    assert (cleared, scales) == reference_integer_rows(rows)
    for row, out in zip(rows, cleared):
        assert out is not row
        assert all(type(value) is int for value in out)


int_matrices = st.lists(
    st.lists(
        st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=-10**30, max_value=10**30),
        ),
        min_size=4,
        max_size=4,
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(int_matrices, st.booleans())
def test_exact_rank_of_int_rows_matches_naive_oracle(rows, as_tuples):
    if as_tuples:
        rows = [tuple(row) for row in rows]
    before = [list(row) for row in rows]
    rank, columns = naive_rank(rows)
    sparse, ncols = linalg.sparse_rows(rows)
    sparse_before = [dict(row) for row in sparse]
    assert linalg.exact_rank(sparse, ncols) == (rank, list(enumerate(columns)))
    assert [list(row) for row in rows] == before
    assert sparse == sparse_before
