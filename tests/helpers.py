"""Shared builders for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath

from webrank import abelrank, linalg
from webrank.combin import calibration_order
from webrank.expr import (
    Expr,
    Variable,
    diff,
    evaluate,
    has_transcendental,
    int_power,
    product_of,
    rational,
    relabel,
    sum_of,
)
from webrank.jets import (
    degree_multi_indices,
    jet_coefficient,
    jet_matrix_from_gradients,
)
from webrank.ordinary import PointSearch, jet_ranks_at_point
from webrank.scalars import EXACT
from webrank.tpoly import taylor
from webrank.web import (
    AssembledWeb,
    BalancedSet,
    GeneratingWeb,
    WebEntry,
    web_gradients,
)


def pullback(entry: WebEntry) -> Expr:
    """The entry's integral as a tree on the ambient variables: its
    generator with the j-th variable sent to x_source[j-1]."""
    return relabel(entry.generator, entry.source)


def rational_gradients(W: AssembledWeb, point) -> list[list[Fraction]]:
    """Oracle: each entry's gradient at point by symbolic differentiation of
    its pulled-back tree, evaluated on Fractions."""
    return [
        [evaluate(diff(pullback(entry), j), point, EXACT) for j in range(1, W.n + 1)]
        for entry in W.entries
    ]


def rational_jet_matrix(W: AssembledWeb, h: int, point) -> list[list[Fraction]]:
    """Oracle: the degree-h jet matrix of W at point, one jet_coefficient per
    entry; rows are degree_multi_indices(W.n, h), columns W's entries."""
    gradients = rational_gradients(W, point)
    return [
        [jet_coefficient(g, L) for g in gradients]
        for L in degree_multi_indices(W.n, h)
    ]


def integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators; row scaling keeps rank.

    Returns fresh int rows and the per-row lcm.
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


def cofactor_det(rows) -> Fraction:
    """Oracle: the determinant of a square matrix by cofactor expansion
    along the first row, on Fractions."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def rational_rank(rows) -> int:
    """Exact rank of a rational matrix, its rows cleared of denominators."""
    cleared, _ = integer_rows(rows)
    return linalg.exact_rank(*linalg.sparse_rows(cleared))[0]


def dense_rows(rows: list[dict], ncols: int) -> list[list]:
    """Sparse {column: value} rows as dense lists of ncols entries."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def oracle_float_rank(rows, precision):
    """Rank and marginal flag from the mpf kernel, the reference for float_rank;
    rows are dense."""
    with mpmath.workprec(precision):
        copies = [[mpmath.mpf(v) for v in row] for row in rows]
        tol_ratio = mpmath.mpf(2) ** (-(precision // 2))
        rank, _, _, marginal = linalg.rank_float_rows(
            copies, tol_ratio, linalg.FLOAT_GAP
        )
    return rank, marginal


def fixed_columns(rows: list[dict], ncols: int, precision: int):
    """Sparse rows of mpf (or int) entries as float_rank takes them: each
    entry rounded to `precision` bits, then held exactly as ints over the
    lowest binary exponent of its column's nonzero entries.  Returns (int
    rows, one unit per column, 0 for a column without nonzeros)."""
    parts = []
    units = [None] * ncols
    with mpmath.workprec(precision):
        for row in rows:
            part = {}
            for j, v in row.items():
                sign, man, exp, bc = mpmath.mpf(v)._mpf_
                if not man:
                    if bc:
                        raise ValueError("fixed point needs finite values")
                    continue
                part[j] = (-man if sign else man, exp)
                if units[j] is None or exp < units[j]:
                    units[j] = exp
            parts.append(part)
    units = [0 if u is None else u for u in units]
    fixed = [
        {j: man << (exp - units[j]) for j, (man, exp) in part.items()}
        for part in parts
    ]
    return fixed, units


def fixed_rows(rows, precision: int) -> tuple[list[dict], list[int]]:
    """A dense matrix of mpf (or int) entries as float_rank takes it:
    fixed_columns of its nonzeros."""
    sparse, ncols = linalg.sparse_rows(rows)
    return fixed_columns(sparse, ncols, precision)


def mpf_relation_rows(W: AssembledWeb, point, order: int, mode) -> list[dict]:
    """Oracle: the float relation system on mpf in the row layout, before
    the rows per monomial: each entry's mpf offset and its powers taken in
    mpf at the mode's precision, one sparse row per unknown (entry, power),
    in the relation columns."""
    rows = []
    with mode.workprec():
        for entry in W.entries:
            codes, column = abelrank._source_columns(W.n, order, entry.source)
            at = [point[s - 1] for s in entry.source]
            expansion = taylor(entry.generator, at, codes, mode)
            offset = {code: v for code, v in expansion.items() if code}
            for power in codes.powers(offset, order):
                rows.append({column[code]: v for code, v in power.items()})
    return rows


def mpf_fixed_point_rows(rows: list[dict], precision: int):
    """Oracle: sparse mpf rows converted to fixed point in one pass, as
    linalg._fixed_point_rows did before its entries carried their own units.

    Entries are rounded to `precision` bits, then all are scaled by the same
    power of two so that the largest has precision + FIXED_GUARD_BITS bits;
    smaller entries lose their bits below that unit (truncated toward
    zero).  Returns ([{column: int}, ...], exponent).
    """
    mpf = mpmath.mpf
    parts = []
    top = None
    with mpmath.workprec(precision):
        for row in rows:
            part = []
            for j, v in row.items():
                if type(v) is mpf:
                    t = v._mpf_
                    if t[3] > precision:
                        t = mpf(v)._mpf_
                elif v:
                    t = mpf(v)._mpf_
                else:
                    continue
                sign, man, exp, bc = t
                if not man:
                    if bc:
                        raise ValueError("float rank needs finite entries")
                    continue
                if top is None or exp + bc > top:
                    top = exp + bc
                part.append((j, sign, man, exp))
            parts.append(part)
    if top is None:
        return [{} for _ in parts], 0
    unit = top - precision - linalg.FIXED_GUARD_BITS
    fixed = []
    for part in parts:
        row = {}
        for j, sign, man, exp in part:
            v = man << (exp - unit) if exp >= unit else man >> (unit - exp)
            if v:
                row[j] = -v if sign else v
        fixed.append(row)
    return fixed, unit


def dense_rank_fixed_rows(rows: list[list[int]], shift: int, gap: int):
    """Oracle: fixed-point complete pivoting on dense int rows, as
    linalg.rank_fixed_rows does on sparse ones.

    Every step rescans every active entry for the largest magnitude (ties:
    first in row-major order), swaps it to the top-left corner and updates
    every entry of a row with pivot-column entry f by a - (c*b >> s), where
    s is the bit length of the pivot magnitude and c = (f << s) // p, the
    kernel's arithmetic.  Returns (rank, pivot magnitudes, largest discarded
    magnitude or None, marginal flag).  The rows are modified.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    limit = m if m < n else n
    active = rows
    pivot_mags: list[int] = []
    threshold = None
    max_discarded = None
    while len(pivot_mags) < limit:
        row_max = [max(map(abs, r)) for r in active]
        best = max(row_max)
        if best == 0:
            break
        if threshold is None:
            threshold = best >> shift
        if best <= threshold:
            max_discarded = best
            break
        best_i = row_max.index(best)
        pivot_row = active[best_i]
        best_j = list(map(abs, pivot_row)).index(best)
        if best_i:
            active[0], active[best_i] = pivot_row, active[0]
        if best_j:
            for r in active:
                r[0], r[best_j] = r[best_j], r[0]
        pivot_mags.append(best)
        p = pivot_row[0]
        s = best.bit_length()
        tail = pivot_row[1:]
        active = [
            [a - ((c * b) >> s) for a, b in zip(r[1:], tail)]
            if (c := (r[0] << s) // p)
            else r[1:]
            for r in active[1:]
        ]
    marginal = False
    if threshold is not None:
        if pivot_mags and min(pivot_mags) < gap * threshold:
            marginal = True
        if max_discarded is not None and max_discarded * gap > threshold:
            marginal = True
    return len(pivot_mags), pivot_mags, max_discarded, marginal


def cube_plus_self(e: Expr) -> Expr:
    """The reparametrization u -> u^3 + u (derivative 3u^2 + 1 never vanishes
    on rational points)."""
    return sum_of([int_power(e, 3), e])


def reparametrize_entry(W: AssembledWeb, index: int) -> AssembledWeb:
    entries = list(W.entries)
    old = entries[index]
    entries[index] = WebEntry(
        label=old.label, generator=cube_plus_self(old.generator), source=old.source
    )
    return AssembledWeb(n=W.n, entries=tuple(entries))


def reparametrize_generating(E: BalancedSet, k: int, b: int) -> BalancedSet:
    webs = []
    for web in E.webs:
        integrals = list(web.integrals)
        if web.k == k:
            integrals[b] = cube_plus_self(integrals[b])
        webs.append(GeneratingWeb(k=web.k, integrals=tuple(integrals)))
    return BalancedSet(k0=E.k0, webs=tuple(webs))


def permute_ambient(W: AssembledWeb, positions: list[int]) -> AssembledWeb:
    """Relabel the ambient variables of every entry (j -> positions[j-1])."""
    entries = tuple(
        WebEntry(
            label=e.label,
            generator=e.generator,
            source=tuple(positions[s - 1] for s in e.source),
        )
        for e in W.entries
    )
    return AssembledWeb(n=W.n, entries=entries)


def single_integral_web(n: int, integral: Expr) -> AssembledWeb:
    return AssembledWeb(
        n=n,
        entries=(
            WebEntry(
                label=(1, 1, 1), generator=integral, source=tuple(range(1, n + 1))
            ),
        ),
    )


def perturb_family(E: BalancedSet, seed: int) -> BalancedSet:
    """Add a small seeded rational multiple of a low-degree monomial to one
    integral of arity >= 2 (exp/log-free integrals only, so the scalar mode
    of the family is preserved)."""
    rng = random.Random(seed)
    candidates = [
        (web.k, b)
        for web in E.webs
        if web.k >= 2
        for b, u in enumerate(web.integrals)
        if not has_transcendental(u)
    ]
    k, b = candidates[rng.randrange(len(candidates))]
    epsilon = rational(Fraction(rng.randint(1, 4), 16))
    i = rng.randint(1, k)
    j = rng.randint(1, k)
    monomial = (
        Variable(i) if rng.random() < 0.5 else product_of([Variable(i), Variable(j)])
    )
    webs = []
    for web in E.webs:
        integrals = list(web.integrals)
        if web.k == k:
            integrals[b] = sum_of(
                [integrals[b], product_of([epsilon, monomial])]
            )
        webs.append(GeneratingWeb(k=web.k, integrals=tuple(integrals)))
    return BalancedSet(k0=E.k0, webs=tuple(webs))


def inflate_first_rank_estimate(monkeypatch) -> list:
    """Make the first rank estimate read one too high, as at a thin-set point.

    Returns the list of points estimated, filled as the estimates run.
    """
    original = abelrank.rank_estimate
    points = []

    def patched(*args):
        estimate = original(*args)
        points.append(args[1])
        if len(points) == 1:
            return abelrank.RankEstimate(
                estimate.dims,
                estimate.stabilized_at,
                estimate.value + 1,
                estimate.method,
                estimate.note,
            )
        return estimate

    monkeypatch.setattr(abelrank, "rank_estimate", patched)
    return points


def generic_point(W: AssembledWeb, seed: int, mode):
    """The point the rank check of W would estimate at first with this
    seed: the first of its dimension's search (ordinary.PointSearch) with
    J_k0 invertible and no proportional pair; None when there is none."""
    search = PointSearch(W, calibration_order(W.n, W.size), seed, mode)
    expanded = abelrank.generic_point_for_web(search.points())
    return None if expanded is None else expanded.point


def web_point(W: AssembledWeb, seed: int, mode):
    """The point at which W's web condition is certified with this seed:
    the first of its dimension's search where every entry is defined and
    no gradient vanishes or is proportional to another; J_k0 may be
    singular there."""
    search = PointSearch(W, calibration_order(W.n, W.size), seed, mode)
    for expanded in search.points():
        if expanded.pairs == [] and not expanded.zero:
            return expanded.point
    return None


def jet_ranks(W: AssembledWeb, point, mode, k0: int):
    """jet_ranks_at_point on the gradients web_gradients takes at point."""
    return jet_ranks_at_point(W, point, mode, k0, web_gradients(W, point, mode))


def jet_systems(W: AssembledWeb, point, k0: int, mode):
    """Oracle: the sparse jet matrices J_1..J_k0 at one point, as
    linalg.ranks takes them, every order built from web_gradients."""
    gradients, unit = web_gradients(W, point, mode)
    matrices = jet_matrix_from_gradients(W.n, k0, gradients)
    return [
        linalg.sparse_rows(matrix, None if unit is None else h * unit)
        for h, matrix in enumerate(matrices, 1)
    ]
