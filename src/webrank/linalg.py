"""Exact and floating rank and determinant, and the elimination kernels.

exact_rank is sparse fraction-free big-int elimination, exact_det the
Bareiss determinant, and float_rank sparse complete-pivoting elimination on
fixed-point integers; rank_float_rows, the mpf elimination float_rank
replaced, stays as the tests' oracle.

Both rank functions take sparse rows, one {column: value} dict of nonzeros
per row, plus the column count.  The relation rows
(abelrank._expansion_rows) are built in that format; the dense jet matrices
and square blocks are converted by sparse_rows where they are ranked.
Exact rank takes int rows, as the relation rows and the jet matrices of
int gradients are built (the kernel divides each row by its content before
it eliminates, since row scaling keeps the rank); exact_det clears a
rational matrix of its denominators with _integer_rows first.  Float rank
takes FixedRows, int rows that each carry their own power-of-two unit, as
the float relation rows, jet matrices and square blocks are built;
_fixed_point_rows aligns them to one matrix unit for the kernel.  ranks is
the front end the pipeline ranks through in both modes; in float mode it
passes the one precision a matrix is built and ranked at, and escalates it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath

from .scalars import ESCALATION_LIMIT, Mode, shifted

# Not read by the package: perfbench/run.py records it on every run, so the
# name stays until that benchmark stops reading it.
BACKEND = "pure"
FLOAT_GAP = 16  # accepted and discarded pivots must clear the threshold by 2^4
FIXED_GUARD_BITS = 64  # bits kept below the precision in fixed-point float rank


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators; row scaling keeps rank.

    Returns fresh int rows (the determinant kernel works in place) and the
    per-row lcm.
    """
    cleared: list[list[int]] = []
    scales: list[int] = []
    for row in rows:
        denlcm = math.lcm(*(v.denominator for v in row if isinstance(v, Fraction)))
        if denlcm == 1:
            cleared.append([int(value) for value in row])
        else:
            cleared.append(
                [
                    value.numerator * (denlcm // value.denominator)
                    if isinstance(value, Fraction)
                    else value * denlcm
                    for value in row
                ]
            )
        scales.append(denlcm)
    return cleared, scales


def sparse_rows(rows: Sequence[Sequence], unit: int | None = None):
    """A dense matrix as the rank functions take it: ([{column: value} of
    each row's nonzeros, ...], number of columns).  With a unit, the rows
    are FixedRows of int entries at that unit, as float_rank takes them."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    if unit is not None:
        sparse = [FixedRow(row, unit) for row in sparse]
    return sparse, len(rows[0]) if rows else 0


def exact_rank(
    rows: Sequence[dict[int, int]], ncols: int
) -> tuple[int, list[tuple[int, int]]]:
    """Exact rank of a sparse integer matrix by fraction-free elimination.

    Each row is a {column: value} dict of its nonzeros, in any key order,
    and ncols the number of columns.  The kernel first divides every row by
    its content (the gcd of its entries) into dicts of its own, so the input
    rows are left unchanged.  Row scaling keeps the rank and the pivot
    columns, and the relation rows gain most from it: row (i, m) is the
    m-th power of one integer offset and carries at least the m-th power of
    that offset's content.

    Columns are processed left to right.  The rows whose leading column is
    the current one are reduced against a pivot row by r = q*r - f*pivot,
    where q and f are the leading entries of the pivot row and of r divided
    by their gcd (the sign put on f, so q > 0): an update touches the pivot
    row's nonzeros and, when q != 1, rescales r.  Only a rescaled row is
    divided by its content again, which bounds the entry growth the rescale
    causes; an update with q = 1 only subtracts a multiple of the pivot row,
    and the row keeps whatever content that leaves (on the relation systems
    about four updates in five have q = 1).  The pivot row is the
    candidate with the least len(row) * bit length of its leading entry
    (ties: least leading entry), which keeps fill-in and multipliers small
    (Markowitz's rule); a column with a single candidate takes it without a
    choice or an update.

    Returns (rank, pivot positions) as [(0, c0), (1, c1), ...].  The pivot
    columns c0 < c1 < ... are the columns not in the span of the columns
    before them, so they depend only on the matrix, not on the choice of
    pivot rows or on the row scales, and the pivots among the first k
    columns count the rank of those k columns (abelrank._first_two_dims
    reads two truncation orders off one elimination this way).
    """
    gcd = math.gcd
    by_lead: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        content = gcd(*row.values())
        if not content:
            continue
        if content == 1:
            own = {j: v for j, v in row.items() if v}
        else:
            own = {j: v // content for j, v in row.items() if v}
        by_lead.setdefault(min(own), []).append(own)
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        if not by_lead:
            break
        here = by_lead.pop(col, None)
        if here is None:
            continue
        pivots.append((len(pivots), col))
        if len(here) == 1:
            continue
        pivot = min(
            here, key=lambda r: (len(r) * abs(r[col]).bit_length(), abs(r[col]))
        )
        p = pivot[col]
        tail = [(j, b) for j, b in pivot.items() if j != col]
        for row in here:
            if row is pivot:
                continue
            f = row.pop(col)
            g = gcd(p, f)
            q = p // g
            f //= g
            if q < 0:
                q, f = -q, -f
            if q != 1:
                row = {j: v * q for j, v in row.items()}
            for j, b in tail:
                v = row.get(j, 0) - f * b
                if v:
                    row[j] = v
                else:
                    del row[j]
            if row:
                if q != 1:
                    content = gcd(*row.values())
                    if content > 1:
                        row = {j: v // content for j, v in row.items()}
                by_lead.setdefault(min(row), []).append(row)
    return len(pivots), pivots


def det_int_rows(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (single-step Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - f * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix with Fraction or int entries."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant requires a square matrix")
    if size == 0:
        return Fraction(1)
    cleared, scales = _integer_rows(rows)
    det = det_int_rows(cleared)
    out = Fraction(det)
    for scale in scales:
        out /= scale
    return out


class FixedRow(dict):
    """A sparse float row in fixed point: {column: int}, each int standing
    for int * 2^unit.  Rows compare equal when their entries and units do."""

    __slots__ = ("unit",)

    def __init__(self, entries, unit: int):
        super().__init__(entries)
        self.unit = unit

    def __eq__(self, other):
        """Units count, so the tests' row comparisons see a wrong unit."""
        return (
            isinstance(other, FixedRow)
            and self.unit == other.unit
            and dict.__eq__(self, other)
        )

    def __ne__(self, other):
        """Needed: dict's own != ignores the unit."""
        return not self == other

    def __repr__(self):
        """Shows the unit in the tests' failure messages."""
        return f"FixedRow({dict.__repr__(self)}, unit={self.unit})"


def _fixed_point_rows(rows: Sequence[FixedRow], precision: int):
    """FixedRows, each with its own unit, as sparse integer rows times one
    power of two: ([{column: int}, ...], exponent).

    Every row is aligned to the matrix unit
    2^(top - precision - FIXED_GUARD_BITS), top the binary exponent just
    above the largest entry: the largest entry keeps precision +
    FIXED_GUARD_BITS bits and smaller ones lose their bits below the unit
    (truncated toward zero).  Scaling the whole matrix by one factor keeps
    every rank decision made relative to the first pivot.  Entries that
    truncate to zero at the unit are left out of the rows.  The 64 guard
    bits keep that truncation, like the kernel's own (see rank_fixed_rows),
    far below the 2^-(precision/2) threshold.
    """
    top = max(
        (row.unit + max(map(abs, row.values())).bit_length() for row in rows if row),
        default=None,
    )
    if top is None:
        return [{} for _ in rows], 0
    unit = top - precision - FIXED_GUARD_BITS
    return [shifted(row, row.unit - unit) for row in rows], unit


def rank_fixed_rows(rows: list[dict[int, int]], ncols: int, shift: int, gap: int):
    """Numerical rank of a sparse fixed-point matrix by complete pivoting.

    Each row is a {column: value} dict of its nonzeros, ncols the number of
    columns.  Values are integers standing for multiples of one common unit
    (the caller scales a float matrix by a power of two so that its largest
    entry has precision + 64 bits).  A pivot is accepted while its magnitude
    exceeds the threshold `first_pivot >> shift` (shift = precision // 2);
    the marginal rule is that of rank_float_rows.  Returns (rank, pivot
    magnitudes, largest discarded magnitude or None, marginal flag),
    magnitudes in the caller's unit.

    Only nonzeros are stored and updated: a step updates the rows with a
    nonzero in the pivot column, at the pivot row's nonzeros, and recomputes
    the largest magnitude of those rows only.  The pivot is the largest
    magnitude, ties broken as dense complete pivoting breaks them (first
    maximum in row-major order, in the order left by its row and column
    swaps): each row and column keeps its position in that order, and each
    step makes the dense kernel's two swaps on the positions.

    Error model.  Each update a - (f*b)//p is exact except for the floor,
    which errs by less than one unit.  Under complete pivoting the pivot p is
    the largest active entry, so |f/p| <= 1 and |b/p| <= 1: errors already in
    a, f, b and p pass into the update with coefficients at most 1, the same
    first-order propagation as in floating-point elimination.  One unit is
    2^-(precision+64) of the largest entry, while the threshold sits at
    2^-(precision/2) of it, so the accumulated truncation stays 64 guard bits
    (less log2 of the step count) below any decision the threshold makes.
    The rows are modified in place.
    """
    m = len(rows)
    limit = m if m < ncols else ncols
    row_at = list(range(m))  # row index at each position
    col_at = list(range(ncols))  # column at each position
    col_pos = list(range(ncols))  # position of each column
    row_max = [max(map(abs, r.values()), default=0) for r in rows]
    pivot_mags: list[int] = []
    threshold = None
    max_discarded = None
    for k in range(limit):
        active = [row_max[i] for i in row_at[k:]]
        best = max(active)
        if best == 0:
            break
        if threshold is None:
            threshold = best >> shift
        if best <= threshold:
            max_discarded = best
            break
        pos = k + active.index(best)
        pi = row_at[pos]
        row_at[k], row_at[pos] = pi, row_at[k]
        pivot_row = rows[pi]
        pc = min(
            (j for j, v in pivot_row.items() if abs(v) == best),
            key=col_pos.__getitem__,
        )
        q, other = col_pos[pc], col_at[k]
        col_at[k], col_at[q] = pc, other
        col_pos[pc], col_pos[other] = k, q
        pivot_mags.append(best)
        p = pivot_row.pop(pc)
        tail = list(pivot_row.items())
        for i in row_at[k + 1 :]:
            r = rows[i]
            f = r.pop(pc, 0)
            if not f:
                continue
            for j, b in tail:
                v = r.get(j, 0) - (f * b) // p
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
            row_max[i] = max(map(abs, r.values()), default=0)
    marginal = False
    if threshold is not None:
        if pivot_mags and min(pivot_mags) < gap * threshold:
            marginal = True
        if max_discarded is not None and max_discarded * gap > threshold:
            marginal = True
    return len(pivot_mags), pivot_mags, max_discarded, marginal


def float_rank(
    rows: Sequence[dict], ncols: int, precision: int
) -> tuple[int, dict]:
    """Numerical rank of a matrix of FixedRows at the given mantissa precision.

    The pivot threshold is 2^(-precision/2) times the largest pivot; the
    certificate records pivot magnitudes, the gap ratio used, and whether any
    decision was marginal (within 2^4 of the threshold on either side).
    The rows are aligned to one unit and eliminated on their nonzeros only
    (see rank_fixed_rows for the pivot order and the error model).
    """
    fixed, unit = _fixed_point_rows(rows, precision)
    rank, pivot_mags, max_discarded, marginal = rank_fixed_rows(
        fixed, ncols, precision // 2, FLOAT_GAP
    )

    def magnitude(value: int) -> str:
        return mpmath.nstr(mpmath.mpf((value, unit)), 8)

    with mpmath.workprec(precision):
        certificate = {
            "pivot_magnitudes": [magnitude(p) for p in pivot_mags],
            "largest_discarded": None
            if max_discarded is None
            else magnitude(max_discarded),
            "tolerance_ratio": f"2^-{precision // 2}",
            "gap": FLOAT_GAP,
        }
    return rank, {"marginal": marginal, "certificate": certificate}


def ranks(build, mode: Mode):
    """Ranks of the matrices build(mode) yields, in the mode's arithmetic.

    Each matrix is a (sparse rows, number of columns) pair, as exact_rank
    and float_rank take it.  Returns ([(rank, info), ...], mode used), info
    being exact_rank's pivot positions or float_rank's info dict, or None
    when float decisions are still marginal at ESCALATION_LIMIT bits.

    In exact mode build runs once and each matrix goes to exact_rank.  In
    float mode build(mode) expands its series at mode.precision (tpoly sets
    that precision; everything after the series is exact ints), and each
    matrix is ranked at that precision; at the first matrix with a marginal
    pivot decision the precision is doubled (Mode.escalate) and build is
    called again.
    """
    if mode.is_exact:
        return [exact_rank(rows, ncols) for rows, ncols in build(mode)], mode
    while True:
        results = []
        for rows, ncols in build(mode):
            rank, info = float_rank(rows, ncols, mode.precision)
            if info["marginal"]:
                break
            results.append((rank, info))
        else:
            return results, mode
        if mode.precision >= ESCALATION_LIMIT:
            return None
        mode = mode.escalate()


def rank_float_rows(rows: list[list], tol_ratio, gap: int):
    """Numerical rank by Gaussian elimination with complete pivoting.

    The mpf elimination rank_fixed_rows replaced, which no CLI job runs;
    it stays as the tests' oracle for float_rank.

    A pivot is accepted while its magnitude exceeds tol_ratio times the first
    (largest) pivot.  Returns (rank, pivot magnitudes, largest discarded
    magnitude, marginal flag); the result is marginal when an accepted pivot
    sits within a factor `gap` above the threshold or a discarded one within
    `gap` below it.

    Entries may be any type supporting abs, -, * and /; callers set the
    working precision.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    pivot_mags: list = []
    threshold = None
    max_discarded = None
    limit = m if m < n else n
    while rank < limit:
        best = None
        best_i = best_j = -1
        for i in range(rank, m):
            ri = rows[i]
            for j in range(rank, n):
                v = abs(ri[j])
                if best is None or v > best:
                    best = v
                    best_i = i
                    best_j = j
        if best is None or best == 0:
            break
        if threshold is None:
            threshold = tol_ratio * best
        if best <= threshold:
            max_discarded = best
            break
        if best_i != rank:
            rows[rank], rows[best_i] = rows[best_i], rows[rank]
        if best_j != rank:
            for row in rows:
                row[rank], row[best_j] = row[best_j], row[rank]
        pivot_mags.append(best)
        pivot_row = rows[rank]
        p = pivot_row[rank]
        for i in range(rank + 1, m):
            ri = rows[i]
            f = ri[rank]
            if f == 0:
                continue
            ratio = f / p
            for j in range(rank + 1, n):
                ri[j] = ri[j] - ratio * pivot_row[j]
        rank += 1
    marginal = False
    if threshold is not None:
        if pivot_mags and min(pivot_mags) < gap * threshold:
            marginal = True
        if max_discarded is not None and max_discarded * gap > threshold:
            marginal = True
    return rank, pivot_mags, max_discarded, marginal
