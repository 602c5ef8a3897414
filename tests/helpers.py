"""Shared builders for the test suite."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import mpmath

from webrank import abelrank, linalg
from webrank.expr import (
    Expr,
    Variable,
    diff,
    evaluate,
    has_transcendental,
    int_power,
    product_of,
    rational,
    sum_of,
)
from webrank.jets import degree_multi_indices, jet_coefficient
from webrank.scalars import EXACT
from webrank.tpoly import taylor
from webrank.web import (
    AssembledWeb,
    BalancedSet,
    GeneratingWeb,
    WebEntry,
)


def rational_gradients(W: AssembledWeb, point) -> list[list[Fraction]]:
    """Oracle: each entry's gradient at point by symbolic differentiation of
    its pulled-back tree, evaluated on Fractions."""
    return [
        [evaluate(diff(entry.integral, j), point, EXACT) for j in range(1, W.n + 1)]
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


def rational_rank(rows) -> int:
    """Exact rank of a rational matrix, its rows cleared of denominators."""
    cleared, _ = linalg._integer_rows(rows)
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


def fixed_row(row: dict, precision: int) -> linalg.FixedRow:
    """A sparse row of mpf (or int) entries as float_rank takes it: each
    entry rounded to `precision` bits, then held exactly as ints over the
    lowest binary exponent of the row's nonzero entries."""
    parts = {}
    with mpmath.workprec(precision):
        for j, v in row.items():
            sign, man, exp, bc = mpmath.mpf(v)._mpf_
            if not man:
                if bc:
                    raise ValueError("fixed point needs finite values")
                continue
            parts[j] = (-man if sign else man, exp)
    unit = min((exp for _, exp in parts.values()), default=0)
    return linalg.FixedRow(
        {j: man << (exp - unit) for j, (man, exp) in parts.items()}, unit
    )


def fixed_rows(rows, precision: int) -> tuple[list[linalg.FixedRow], int]:
    """A dense matrix of mpf (or int) entries as float_rank takes it:
    (FixedRows by fixed_row, number of columns)."""
    sparse, ncols = linalg.sparse_rows(rows)
    return [fixed_row(row, precision) for row in sparse], ncols


def mpf_relation_rows(W: AssembledWeb, point, order: int, mode) -> list[dict]:
    """Oracle: the float relation rows as they were built on mpf, before
    the fixed-point powers: each entry's mpf offset and its powers taken in
    mpf at the mode's precision, as sparse rows in the relation columns."""
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
    linalg._fixed_point_rows did before rows carried their own units.

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
    every entry by a - (f*b)//p.  Returns (rank, pivot magnitudes, largest
    discarded magnitude or None, marginal flag).  The rows are modified.
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
        tail = pivot_row[1:]
        active = [
            [a - (f * b) // p for a, b in zip(r[1:], tail)] if (f := r[0]) else r[1:]
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
            return replace(estimate, value=estimate.value + 1)
        return estimate

    monkeypatch.setattr(abelrank, "rank_estimate", patched)
    return points
