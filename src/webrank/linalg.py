"""Exact and floating rank/determinant front ends over the elimination kernels.

The kernels are the pure-Python ones in webrank._purekernels: sparse
fraction-free big-int elimination for exact rank, Bareiss for the exact
determinant, and sparse complete-pivoting elimination on fixed-point
integers for float rank.

Both rank front ends take sparse rows, one {column: value} dict of
nonzeros per row, plus the column count.  The relation rows
(abelrank._expansion_rows) are built in that format; the dense jet matrices
and square blocks are converted by sparse_rows where they are ranked.
Exact rank takes int rows, as the relation rows and the jet matrices of
int gradients are built (the exact kernel divides each row by its content
before it eliminates, since row scaling keeps the rank); exact_det clears
a rational matrix of its denominators with _integer_rows first.  Float
rank takes FixedRows, int rows that each carry their own power-of-two
unit, as the float relation rows are built, or rows of mpf entries, which
fixed_row holds exactly in that format first; _fixed_point_rows aligns
either to one matrix unit for the kernel.  ranks is the front end the
pipeline ranks through in both modes; in float mode it sets the one
precision a matrix is built and ranked at.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath

from . import _purekernels
from .scalars import ESCALATION_LIMIT, Mode, mpf_ints, shifted

BACKEND = "pure"  # name of the elimination kernels, recorded by benchmarks
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


def sparse_rows(rows: Sequence[Sequence]) -> tuple[list[dict], int]:
    """A dense matrix as the rank front ends take it: ([{column: value} of
    each row's nonzeros, ...], number of columns)."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return sparse, len(rows[0]) if rows else 0


def exact_rank(
    rows: Sequence[dict[int, int]], ncols: int
) -> tuple[int, list[tuple[int, int]]]:
    """Exact rank of a sparse int matrix and its pivot positions; the rows
    are left unchanged."""
    return _purekernels.rank_int_rows(rows, ncols)


def exact_det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix with Fraction or int entries."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant requires a square matrix")
    if size == 0:
        return Fraction(1)
    cleared, scales = _integer_rows(rows)
    det = _purekernels.det_int_rows(cleared)
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


def fixed_row(row: dict, precision: int) -> FixedRow:
    """A sparse row of mpf (or int) entries held exactly in fixed point.

    Each entry is first rounded to `precision` bits (an mpf whose mantissa
    already fits is used as it is, which is what rounding it would give;
    others are rounded by mpmath.mpf), then the row is held as ints over the
    lowest binary exponent of its nonzero entries (scalars.mpf_ints), so the
    FixedRow equals the rounded entries exactly, each as man * 2^exp.
    """
    mpf = mpmath.mpf
    columns = []
    values = []
    with mpmath.workprec(precision):
        for j, v in row.items():
            if type(v) is not mpf:
                if not v:
                    continue
                v = mpf(v)
            elif v._mpf_[3] > precision:
                v = mpf(v)
            columns.append(j)
            values.append(v)
    ints, unit = mpf_ints(values)
    return FixedRow({j: v for j, v in zip(columns, ints) if v}, unit)


def _fixed_point_rows(rows: Sequence[dict], precision: int):
    """Sparse float matrix as sparse integer rows times one power of two:
    ([{column: int}, ...], exponent).

    Rows are FixedRows, each with its own unit (abelrank's relation rows),
    or sparse rows of mpf (or int) entries, which fixed_row holds exactly
    first.  Every row is then aligned to the matrix unit
    2^(top - precision - FIXED_GUARD_BITS), top the binary exponent just
    above the largest entry: the largest entry keeps precision +
    FIXED_GUARD_BITS bits and smaller ones lose their bits below the unit
    (truncated toward zero).  Scaling the whole matrix by one factor keeps
    every rank decision made relative to the first pivot.  Zero entries,
    and entries that truncate to zero at the unit, are left out of the
    rows.  An mpf matrix thus gives, int for int, each entry rounded to
    `precision` bits and truncated at the unit; the 64 guard bits keep that
    truncation, like the kernel's own (see _purekernels.rank_fixed_rows),
    far below the 2^-(precision/2) threshold.
    """
    rows = [
        row if type(row) is FixedRow else fixed_row(row, precision) for row in rows
    ]
    top = max(
        (row.unit + max(map(abs, row.values())).bit_length() for row in rows if row),
        default=None,
    )
    if top is None:
        return [{} for _ in rows], 0
    unit = top - precision - FIXED_GUARD_BITS
    return [shifted(row, row.unit - unit) for row in rows], unit


def float_rank(
    rows: Sequence[dict], ncols: int, precision: int
) -> tuple[int, dict]:
    """Numerical rank of a sparse float matrix at the given mantissa precision.

    The pivot threshold is 2^(-precision/2) times the largest pivot; the
    certificate records pivot magnitudes, the gap ratio used, and whether any
    decision was marginal (within 2^4 of the threshold on either side).
    The rows are converted to sparse fixed-point rows and eliminated on
    their nonzeros only (see _purekernels.rank_fixed_rows for the pivot
    order and the error model).
    """
    fixed, unit = _fixed_point_rows(rows, precision)
    rank, pivot_mags, max_discarded, marginal = _purekernels.rank_fixed_rows(
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
    float mode build runs under mode.workprec(), so every product that fills
    a matrix is rounded at the precision the matrix is ranked at; at the
    first matrix with a marginal pivot decision the precision is doubled
    (Mode.escalate) and build is called again.
    """
    if mode.is_exact:
        return [exact_rank(rows, ncols) for rows, ncols in build(mode)], mode
    while True:
        results = []
        with mode.workprec():
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
