"""Exact, modular and floating rank and determinant, and the elimination
kernels.

exact_extend is sparse fraction-free big-int elimination that grows one
echelon batch by batch, exact_rank its one-batch case, modular_extend the
same echelon mod q (scalars), exact_det the fraction-free Bareiss
determinant of a square int matrix, and float_rank sparse
complete-pivoting elimination on fixed-point integers
(rank_fixed_rows: one reciprocal of the pivot per updated row, so an entry
update is a multiplication and a shift, and each row's largest magnitude
kept as the rows change); rank_float_rows, the mpf elimination float_rank
replaced, stays as the tests' oracle.  float_rank returns its pivot
magnitudes as ints with their unit, and float_certificate formats them for
the one report that prints them, the float square blocks
(ordinary._block_outcomes).

Both rank functions take sparse rows, one {column: value} dict of nonzeros
per row: exact rank with the column count, float rank with one power-of-two
unit per column (column j's ints stand for multiples of 2^units[j]), whose
number is the column count.  The relation systems (abelrank._relation_rows,
one row per monomial) are built in that format; the dense jet matrices and
square blocks are converted by sparse_rows where they are ranked, with one
unit for all their columns in float mode, and _fixed_point_rows aligns a
float matrix to one unit for the kernel.  Exact rank takes int rows, as the
relation rows and the jet matrices of int gradients are built.  The kernel
takes no content of its input rows: it divides a pivot by its content when
the pivot first reduces another row, since row scaling keeps the rank, and
abelrank divides a rescaled batch of relation rows by their contents where
it creates them.
abelrank ranks its exact relation systems through exact_extend, one echelon
per sampled point, extended by the monomial rows of each new truncation
order.  exact_det takes the int rows of an exact square block as
jets.square_block builds them, and its caller divides the determinant by
the block's column scales.  ranks is the front end the jet matrices and the
float relation systems are ranked through; in float mode it passes the one
precision a matrix is built and ranked at, and escalates it.

An exact rank is the rank, a float rank an estimate judged by a gap
threshold, and a rank mod q a lower bound on the rank at the true point
(scalars): full rank mod q is a certificate, and a kernel dimension read
off a modular rank an upper bound.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .scalars import ESCALATION_LIMIT, MODULUS, Mode

# Not read by the package: perfbench/run.py records it on every run, so the
# name stays until that benchmark stops reading it.
BACKEND = "pure"
FLOAT_GAP = 16  # accepted and discarded pivots must clear the threshold by 2^4
FIXED_GUARD_BITS = 64  # bits kept below the precision in fixed-point float rank


def sparse_rows(rows: Sequence[Sequence], unit: int | None = None):
    """A dense matrix as the rank functions take it: ([{column: value} of
    each row's nonzeros, ...], number of columns).  With a unit, the int
    entries stand for multiples of 2^unit and the second item is the
    column units float_rank takes, that unit for every column."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    ncols = len(rows[0]) if rows else 0
    return sparse, ncols if unit is None else [unit] * ncols


def exact_extend(echelon: dict, rows: Sequence[dict[int, int]], ncols: int) -> int:
    """Reduce sparse integer rows against an exact echelon and add the
    pivots they take; returns the number of pivots added.

    echelon maps each pivot column to its pivot: the pivot row as a
    {column: value} dict, or (p, tail) once the row has been made
    primitive, p its entry at the column and tail the [(column, value)] of
    its other nonzeros, all divided by the row's content.  Start from {}
    and extend it batch by batch: after each call len(echelon) is the rank
    of every row given so far, and its keys are their pivot columns.

    Each row is a {column: value} dict of its nonzeros, in any key order,
    and ncols the number of columns.  The kernel first copies every row,
    without its zero entries, into a dict of its own, so the input rows are
    left unchanged; it does not divide them by their contents (the gcd of
    their entries).  Row scaling keeps the rank and the pivot columns, and
    the content that matters is taken where it arises: a caller that
    multiplies a batch by a common factor divides its rows by their
    contents (abelrank._exact_dims), and a pivot is made primitive below.

    Columns are processed left to right.  The rows whose leading column is
    the current one are reduced against its pivot by r = q*r - f*pivot,
    where q and f are the leading entries of the pivot and of r divided by
    their gcd (the sign put on f, so q > 0): an update touches the pivot's
    nonzeros and, when q != 1, rescales r.  A column with a stored pivot
    reduces every such row against it.  Otherwise the pivot is the
    candidate with the least len(row) * bit length of its leading entry
    (ties: least leading entry), which keeps fill-in and multipliers small
    (Markowitz's rule); a column with a single candidate takes it without
    a choice or an update.

    A row's content is taken once, when it first has to reduce another
    row: a pivot with no other row at its column is stored as its row dict,
    and made primitive (p, tail) only when a row of this or a later batch
    first reaches its column.  So every pivot is primitive when its entries
    multiply into other rows, which bounds the entry growth, a pivot that
    reduces nothing never pays for a gcd, and neither does a row that
    reduces to zero.  A row that is not yet a pivot carries its input
    content, the product of its own rescale factors q and whatever content
    the subtractions leave.
    """
    gcd = math.gcd
    by_lead: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        own = {j: v for j, v in row.items() if v}
        if own:
            by_lead.setdefault(min(own), []).append(own)
    added = 0
    for col in range(ncols):
        if not by_lead:
            break
        here = by_lead.pop(col, None)
        if here is None:
            continue
        pivot = echelon.get(col)
        if pivot is None:
            added += 1
            if len(here) == 1:
                echelon[col] = here[0]
                continue
            pivot = min(
                here, key=lambda r: (len(r) * abs(r[col]).bit_length(), abs(r[col]))
            )
            here = [row for row in here if row is not pivot]
        if type(pivot) is dict:
            content = gcd(*pivot.values())
            tail = [(j, b // content) for j, b in pivot.items() if j != col]
            pivot = echelon[col] = (pivot[col] // content, tail)
        p, tail = pivot
        for row in here:
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
    return added


def modular_extend(
    echelon: dict, rows: Sequence[dict[int, int]], ncols: int, q: int = MODULUS
) -> int:
    """exact_extend's contract mod the prime q: after each call
    len(echelon) is the rank mod q of every row given so far and its keys
    their pivot columns; each value is the pivot's [(column, value)] right
    of its column, scaled so that the pivot entry is 1.

    The input rows, any ints, are copied reduced mod q and left unchanged.
    Columns are processed left to right; a column with no stored pivot takes
    the candidate with the fewest nonzeros (the first such), which keeps
    fill-in small, and every other row leading there loses f times it.
    """
    by_lead: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        own = {}
        for j, v in row.items():
            v %= q
            if v:
                own[j] = v
        if own:
            by_lead.setdefault(min(own), []).append(own)
    added = 0
    for col in range(ncols):
        if not by_lead:
            break
        here = by_lead.pop(col, None)
        if here is None:
            continue
        tail = echelon.get(col)
        if tail is None:
            added += 1
            pivot = min(here, key=len)
            here = [row for row in here if row is not pivot]
            inverse = pow(pivot.pop(col), -1, q)
            tail = echelon[col] = [(j, v * inverse % q) for j, v in pivot.items()]
        for row in here:
            f = row.pop(col)
            for j, b in tail:
                v = (row.get(j, 0) - f * b) % q
                if v:
                    row[j] = v
                else:
                    del row[j]
            if row:
                by_lead.setdefault(min(row), []).append(row)
    return added


def exact_rank(rows: Sequence[dict[int, int]], ncols: int) -> tuple:
    """Exact rank of a sparse integer matrix: exact_extend of an empty
    echelon by all its rows.

    Returns (rank, pivot positions) as [(0, c0), (1, c1), ...].  The pivot
    columns c0 < c1 < ... are the columns not in the span of the columns
    before them, so they depend only on the matrix, not on the choice of
    pivot rows or on the row scales.
    """
    echelon: dict = {}
    rank = exact_extend(echelon, rows, ncols)
    return rank, list(enumerate(sorted(echelon)))


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


def _fixed_point_rows(
    rows: Sequence[dict[int, int]], units: Sequence[int], precision: int
):
    """Int rows whose column j stands for multiples of 2^units[j], as
    sparse integer rows times one power of two: ([{column: int}, ...],
    exponent).

    Every entry is aligned to the matrix unit
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
        (units[j] + abs(v).bit_length() for row in rows for j, v in row.items()),
        default=None,
    )
    if top is None:
        return [{} for _ in rows], 0
    unit = top - precision - FIXED_GUARD_BITS
    shifts = [u - unit for u in units]
    fixed = []
    for row in rows:
        out = {}
        for j, v in row.items():
            s = shifts[j]
            v = v << s if s >= 0 else v >> -s if v > 0 else -(-v >> -s)
            if v:
                out[j] = v
        fixed.append(out)
    return fixed, unit


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
    rows: Sequence[dict[int, int]], units: Sequence[int], precision: int
) -> tuple[int, dict]:
    """Numerical rank at the given mantissa precision of a matrix of sparse
    int rows whose column j stands for multiples of 2^units[j] (one unit
    per column, so len(units) columns).

    The pivot threshold is 2^(-precision/2) times the largest pivot, and the
    result is marginal when a decision falls within 2^4 of the threshold on
    either side.  The rows are aligned to one unit and eliminated on their
    nonzeros only (see rank_fixed_rows for the pivot order and the error
    model).  Returns (rank, info): info["marginal"] is the marginal flag,
    and the pivot magnitudes and the largest discarded one (or None) stay
    ints in info["unit"], with info["precision"]; float_certificate formats
    them for the one report that prints them.
    """
    fixed, unit = _fixed_point_rows(rows, units, precision)
    rank, pivot_mags, max_discarded, marginal = rank_fixed_rows(
        fixed, len(units), precision // 2, FLOAT_GAP
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

    Each matrix is a pair of sparse rows and their columns, as exact_rank
    and float_rank take it: the number of columns in exact and modular
    mode, one unit per column in float mode.  Returns ([(rank, info), ...],
    mode used), info being exact_rank's pivot positions, the pivot columns
    mod q or float_rank's info dict, or None when float decisions are still
    marginal at ESCALATION_LIMIT bits.

    In exact mode build runs once and each matrix goes to exact_rank, in
    modular mode once to modular_extend (a rank mod q is never marginal, so
    nothing escalates).  In float mode build(mode) expands its series at
    mode.precision (tpoly sets that precision; everything after the series
    is exact ints), and each matrix is ranked at that precision; at the
    first matrix with a marginal pivot decision the precision is doubled
    (Mode.escalate) and build is called again.
    """
    if mode.is_exact:
        return [exact_rank(rows, ncols) for rows, ncols in build(mode)], mode
    if mode.is_modular:
        results = []
        for rows, ncols in build(mode):
            echelon: dict = {}
            results.append((modular_extend(echelon, rows, ncols), sorted(echelon)))
        return results, mode
    while True:
        results = []
        for rows, units in build(mode):
            rank, info = float_rank(rows, units, mode.precision)
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
