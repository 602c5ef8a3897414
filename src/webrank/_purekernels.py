"""Pure-Python elimination kernels.

These are the hot loops of the toolkit: exact sparse fraction-free row
reduction over big integers, the Bareiss determinant, and sparse
threshold-pivoted reduction of float matrices held in fixed point, all
called by webrank.linalg, plus the mpf float kernel that the tests keep as
the fixed-point kernel's oracle.

Both rank kernels take sparse rows, one {column: value} dict of nonzeros per
row, plus the column count.  rank_int_rows divides each row by its content
into dicts of its own and leaves its input unchanged; rank_fixed_rows and
the other kernels modify their rows in place, so callers pass copies.
"""

from __future__ import annotations

import math


def rank_int_rows(
    rows: list[dict[int, int]], ncols: int
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


def rank_float_rows(rows: list[list], tol_ratio, gap: int):
    """Numerical rank by Gaussian elimination with complete pivoting.

    The mpf reference for rank_fixed_rows, kept as a test oracle.

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
