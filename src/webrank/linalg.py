"""Exact and floating rank and determinant, and the elimination kernels.

exact_rank is sparse fraction-free big-int elimination, exact_det the
fraction-free Bareiss determinant of a square int matrix, and float_rank
sparse complete-pivoting elimination on fixed-point integers
(rank_fixed_rows: one reciprocal of the pivot per updated row, so an entry
update is a multiplication and a shift, and each row's largest magnitude
kept as the rows change); rank_float_rows, the mpf elimination float_rank
replaced, stays as the tests' oracle.  float_rank returns its pivot
magnitudes as ints with their unit, and float_certificate formats them for
the one report that prints them, the float square blocks
(ordinary._block_outcomes).

Both rank functions take sparse rows, one {column: value} dict of nonzeros
per row, plus the column count.  The relation rows
(abelrank._expansion_rows) are built in that format; the dense jet matrices
and square blocks are converted by sparse_rows where they are ranked.
Exact rank takes int rows, as the relation rows and the jet matrices of
int gradients are built (the kernel divides each row by its content before
it eliminates, and a row once more when it becomes a pivot, since row
scaling keeps the rank); with leading=k it prefers its first k rows as
pivots and counts the pivots they take, from which
abelrank._first_two_dims reads the lower of its two orders.  exact_det
takes the int rows of an exact square block as jets.square_block builds
them, and its caller divides the determinant by the block's column
scales.  Float rank takes FixedRows, int rows that each carry their own
power-of-two unit, as the float relation rows, jet matrices and square
blocks are built; _fixed_point_rows aligns them to one matrix unit for the
kernel.  ranks is the front end the pipeline ranks through in both modes;
in float mode it passes the one precision a matrix is built and ranked at,
and escalates it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .scalars import ESCALATION_LIMIT, Mode, shifted

# Not read by the package: perfbench/run.py records it on every run, so the
# name stays until that benchmark stops reading it.
BACKEND = "pure"
FLOAT_GAP = 16  # accepted and discarded pivots must clear the threshold by 2^4
FIXED_GUARD_BITS = 64  # bits kept below the precision in fixed-point float rank


def sparse_rows(rows: Sequence[Sequence], unit: int | None = None):
    """A dense matrix as the rank functions take it: ([{column: value} of
    each row's nonzeros, ...], number of columns).  With a unit, the rows
    are FixedRows of int entries at that unit, as float_rank takes them."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    if unit is not None:
        sparse = [FixedRow(row, unit) for row in sparse]
    return sparse, len(rows[0]) if rows else 0


def exact_rank(
    rows: Sequence[dict[int, int]], ncols: int, leading: int | None = None
) -> tuple:
    """Exact rank of a sparse integer matrix by fraction-free elimination.

    Each row is a {column: value} dict of its nonzeros, in any key order,
    and ncols the number of columns.  The kernel first divides every row by
    its content (the gcd of its entries) into dicts of its own, so the input
    rows are left unchanged.  Row scaling keeps the rank and the pivot
    columns, and the untransposed relation rows gain most from it: row
    (i, m) is the m-th power of one integer offset and carries at least the
    m-th power of that offset's content.

    Columns are processed left to right.  The rows whose leading column is
    the current one are reduced against a pivot row by r = q*r - f*pivot,
    where q and f are the leading entries of the pivot row and of r divided
    by their gcd (the sign put on f, so q > 0): an update touches the pivot
    row's nonzeros and, when q != 1, rescales r.  The pivot row is the
    candidate with the least len(row) * bit length of its leading entry
    (ties: least leading entry), which keeps fill-in and multipliers small
    (Markowitz's rule); a column with a single candidate takes it without a
    choice or an update.

    With leading=k, the first k rows (and what they reduce to) are the
    preferred candidates: at a column where one of them leads, the pivot is
    chosen among them by the same rule, and another row only where none of
    them leads.  So those rows are only ever reduced by pivots taken from
    their own kind, and the pivots they take count their rank.
    abelrank._first_two_dims ranks the transposed order-(M + 1) relation
    system this way, with the monomial rows of degree <= M leading, and
    reads the order-M rank off their pivots.  On the 8 such systems of one
    round of perfbench's exact_corroborate workload this makes 6,926 row
    updates (14,103 on the untransposed systems), rescales 58,583 entries
    (136,484), subtracts 102,704 pivot entries (131,844) and scans 147,547
    entries for new leading columns (524,048); on the 58 of catalog_exact,
    8,999 updates (20,302).  Fewer updates have q = 1 (66% against 81%)
    and entries grow larger (789 bits at most against 340), but the work
    that remains is less.

    After the first pass a row's content is taken once more, when the row
    becomes the pivot of a column with other rows to reduce: its leading
    entry and its tail are divided by it, the tail into a list of its own.
    So every pivot is primitive when its entries multiply into other rows,
    which bounds the entry growth.  A row that is not yet a pivot carries
    only the product of its own rescale factors q and whatever content the
    subtractions leave, and a row that reduces to zero never pays for a
    gcd: 735 passes over 16,284 entries on the 8 merged exact_corroborate
    systems above (925 over 16,761 untransposed).

    Returns (rank, pivot positions) as [(0, c0), (1, c1), ...], and with
    leading given (rank, pivot positions, number of pivots taken by the
    leading rows).  The pivot columns c0 < c1 < ... are the columns not in
    the span of the columns before them, so they depend only on the matrix,
    not on the choice of pivot rows or on the row scales.
    """
    gcd = math.gcd
    first: dict[int, list[dict[int, int]]] = {}  # leading rows by lead column
    rest: dict[int, list[dict[int, int]]] = {}  # the other rows
    for at, row in enumerate(rows):
        content = gcd(*row.values())
        if not content:
            continue
        if content == 1:
            own = {j: v for j, v in row.items() if v}
        else:
            own = {j: v // content for j, v in row.items() if v}
        by_lead = first if leading is not None and at < leading else rest
        by_lead.setdefault(min(own), []).append(own)
    pivots: list[tuple[int, int]] = []
    taken = 0
    for col in range(ncols):
        if not rest and not first:
            break
        ours = first.pop(col, None)
        others = rest.pop(col, None)
        if ours is None:
            if others is None:
                continue
            candidates = others
        else:
            taken += 1
            candidates = ours
        pivots.append((len(pivots), col))
        if len(ours or ()) + len(others or ()) == 1:
            continue
        pivot = min(
            candidates,
            key=lambda r: (len(r) * abs(r[col]).bit_length(), abs(r[col])),
        )
        content = gcd(*pivot.values())
        p = pivot[col] // content
        tail = [(j, b // content) for j, b in pivot.items() if j != col]
        for here, by_lead in ((ours, first), (others, rest)):
            if here is None:
                continue
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
                    by_lead.setdefault(min(row), []).append(row)
    if leading is None:
        return len(pivots), pivots
    return len(pivots), pivots, taken


def exact_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (single-step Bareiss on
    a copy of the rows, so the input is left unchanged)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    rows = [list(row) for row in rows]
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


def _row_max(row: dict[int, int]) -> tuple[int, int | None]:
    """(largest magnitude, a column holding it) of a sparse int row; (0,
    None) for an empty row."""
    if not row:
        return 0, None
    values = row.values()
    hi = max(values)
    lo = min(values)
    top = hi if hi >= -lo else lo
    for j, v in row.items():
        if v == top:
            return abs(top), j


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
    nonzero in the pivot column, at the pivot row's nonzeros.  The pivot is
    the largest magnitude, ties broken as dense complete pivoting breaks them
    (first maximum in row-major order, in the order left by its row and
    column swaps): each row and column keeps its position in that order, and
    each step makes the dense kernel's two swaps on the positions.  Each row
    keeps its largest magnitude and a column holding it.  An update that
    leaves that column alone (it is neither the pivot column nor among the
    pivot row's nonzeros) takes the larger of the old maximum and the updated
    entries; only a row whose maximum was touched is rescanned.  Either way
    the value is the one a full rescan gives, so the pivots are the same.

    Error model.  With s the bit length of the pivot magnitude, an updated
    row takes one reciprocal c = floor(f * 2^s / p) and each entry becomes
    a - floor(c*b / 2^s) (Granlund and Montgomery's division by an
    invariant integer through multiplication).  c errs from f * 2^s / p by
    less than 1, which |b| < 2^s turns into less than one unit, and the
    floor adds less than one more: each update errs from the exact
    a - f*b/p by less than 2 units.  Under complete pivoting the pivot p is
    the largest active entry, so |f/p| <= 1 and |b/p| <= 1: errors already in
    a, f, b and p pass into the update with coefficients at most 1, the same
    first-order propagation as in floating-point elimination.  One unit is
    2^-(precision+64) of the largest entry, while the threshold sits at
    2^-(precision/2) of it, so the accumulated truncation stays 63 guard bits
    (less log2 of the step count) below any decision the threshold makes.
    The rows are modified in place.
    """
    m = len(rows)
    limit = m if m < ncols else ncols
    row_at = list(range(m))  # row index at each position
    col_at = list(range(ncols))  # column at each position
    col_pos = list(range(ncols))  # position of each column
    row_max: list[int] = []  # largest magnitude of each row
    max_col: list[int | None] = []  # a column holding it
    for r in rows:
        mag, at = _row_max(r)
        row_max.append(mag)
        max_col.append(at)
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
        s = best.bit_length()
        tail = list(pivot_row.items())
        for i in row_at[k + 1 :]:
            r = rows[i]
            f = r.pop(pc, 0)
            if not f:
                continue
            c = (f << s) // p
            at = max_col[i]
            if at == pc or at in pivot_row:
                for j, b in tail:
                    v = r.get(j, 0) - ((c * b) >> s)
                    if v:
                        r[j] = v
                    else:
                        r.pop(j, None)
                row_max[i], max_col[i] = _row_max(r)
                continue
            # the maximum at `at` stays: compare the updated entries with it
            hi = row_max[i]
            lo = -hi
            hi_at = lo_at = at
            for j, b in tail:
                v = r.get(j, 0) - ((c * b) >> s)
                if v:
                    r[j] = v
                    if v > hi:
                        hi, hi_at = v, j
                    elif v < lo:
                        lo, lo_at = v, j
                else:
                    r.pop(j, None)
            if hi >= -lo:
                row_max[i], max_col[i] = hi, hi_at
            else:
                row_max[i], max_col[i] = -lo, lo_at
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

    The pivot threshold is 2^(-precision/2) times the largest pivot, and the
    result is marginal when a decision falls within 2^4 of the threshold on
    either side.  The rows are aligned to one unit and eliminated on their
    nonzeros only (see rank_fixed_rows for the pivot order and the error
    model).  Returns (rank, info): info["marginal"] is the marginal flag,
    and the pivot magnitudes and the largest discarded one (or None) stay
    ints in info["unit"], with info["precision"]; float_certificate formats
    them for the one report that prints them.
    """
    fixed, unit = _fixed_point_rows(rows, precision)
    rank, pivot_mags, max_discarded, marginal = rank_fixed_rows(
        fixed, ncols, precision // 2, FLOAT_GAP
    )
    return rank, {
        "marginal": marginal,
        "pivot_magnitudes": pivot_mags,
        "largest_discarded": max_discarded,
        "unit": unit,
        "precision": precision,
    }


def float_certificate(info: dict) -> dict:
    """The printed certificate of a float_rank result: each pivot magnitude
    and the largest discarded one (or None) as an 8-digit string of its value
    rounded to the precision, the threshold ratio and the gap."""
    import mpmath

    unit = info["unit"]

    def magnitude(value: int) -> str:
        return mpmath.nstr(mpmath.mpf((value, unit)), 8)

    discarded = info["largest_discarded"]
    with mpmath.workprec(info["precision"]):
        return {
            "pivot_magnitudes": [magnitude(p) for p in info["pivot_magnitudes"]],
            "largest_discarded": None if discarded is None else magnitude(discarded),
            "tolerance_ratio": f"2^-{info['precision'] // 2}",
            "gap": FLOAT_GAP,
        }


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
