#!/usr/bin/env python3
"""Benchmark the elimination kernels on the pipeline's largest systems.

Builds the largest linear systems the verification pipeline actually
produces, as the sparse {column: value} rows it ranks, and times the sparse
exact rank kernel (`linalg.exact_rank`, which removes each row's
content once before eliminating) against the kernel it replaced, which took
the content of every updated row, and the new kernel with the columns in
degree order instead of the support order (within two degree blocks) the
pipeline builds; it checks that all three give the same rank and pivot
columns.  The systems are the
order-6 relation-jet system of k0_4_WB_sum in dimension 4 (210x209) and
those of k0_4_pereira_pirio_affine and k0_4_WB_sum in dimension 5 (420x461,
the systems `verify-family --corroborate` spends its time on; the
Pereira-Pirio one is the largest cost of the `exact_corroborate` workload).
On those two n=5 systems it times the kernel dimensions of the pipeline's
first two truncation orders, 5 and 6, from two eliminations (the order-5
rows sliced out of the order-6 rows, then the order-6 rows) against one
(`abelrank._first_two_dims`: the order-6 elimination, its pivots inside
the degree <= 5 columns counting the order-5 rank), and checks that both
give the same dims.
On the k0_4_exp system in dimension 4 at order 6 (210x209, 128 bits) it
times building the float relation rows in fixed point
(`abelrank._expansion_rows`: each offset held once as ints, its powers
shifted back after every product) against the mpf build they replaced
(mpf powers, then the conversion to fixed point), both up to the rows
aligned to the matrix unit.  On the k0_4_exp relation systems in
dimensions 3 and 4 at orders 5 and 6 (75x55, 90x83, 175x125 and 210x209),
each at 32, 64 and 128 bits, it times the fixed-point complete-pivoting
kernel (`linalg.rank_fixed_rows`: one reciprocal per updated row, running
row maxima) against the kernel it replaced, which divided at every entry
update and rescanned every updated row; it checks that both give the rank
and marginal flag of the dense mpf kernel on the mpf rows.  It also times
building the exact relation systems of k0_4_pereira_pirio_affine and
k0_4_WB_sum in dimension 5 at order 6 (420x461): the integer Taylor kernel
on packed monomial codes, each generating integral expanded at its projected
point (`abelrank._expansion_rows`), against the build it replaced, Fraction
`tpoly.taylor` offsets of the pulled-back entries at the full point cleared
by `linalg._integer_rows` before their powers are taken, and checks that
both give the same rows.  For the ordinariness check it times, on
the assembled k0_4_WB_sum web in dimension 5 (70 entries), the jet matrices
of orders 1..4 built as Fraction jet coefficients of the rational
gradients, one `jets.jet_coefficient` per entry, and ranked after clearing
their rows, against the recurrence (`jets.jet_matrix_from_gradients`) on
the int gradients of `web.web_gradients`, and the proportionality screen of
the 70 int gradients as all-pairs 2x2 minors against grouping
(`web.proportional_pairs`).

Run after `pip install -e .`:

    python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import functools
import math
import time
from fractions import Fraction

import mpmath

from webrank import linalg
from webrank.abelrank import (
    _expansion_rows,
    _first_two_dims,
    _leading_rows,
    _relation_columns,
    _source_columns,
    generic_point_for_web,
)
from webrank.catalog import get_family
from webrank.jets import (
    degree_multi_indices,
    jet_coefficient,
    jet_matrix_from_gradients,
)
from webrank.ordinary import GenericPointSampler
from webrank.scalars import EXACT, Mode
from webrank.tpoly import MonomialCodes, series_gradient, taylor
from webrank.web import (
    assemble,
    gradients_proportional,
    proportional_pairs,
    web_gradients,
)


def _time(fn, repeat: int) -> float:
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _reference_rows(W, point, order: int):
    """The exact system as built before the integer Taylor kernel: Fraction
    offsets cleared of denominators, then their powers, as sparse rows."""
    keys = _relation_columns(W.n, order)
    codes = MonomialCodes(W.n, order)
    position = {codes.encode(key): idx for idx, key in enumerate(keys)}
    rows = []
    for entry in W.entries:
        expansion = taylor(entry.integral, point, codes, EXACT)
        offset = {code: v for code, v in expansion.items() if code}
        (cleared,), _ = linalg._integer_rows([list(offset.values())])
        for power in codes.powers(dict(zip(offset, cleared)), order):
            rows.append({position[code]: value for code, value in power.items()})
    return rows


def _rank_content_per_update(rows, ncols: int):
    """The sparse exact rank kernel as it was before rank_int_rows removed
    each row's content once: every updated row is divided by its content,
    and every column takes a pivot choice."""
    by_lead = {}
    for row in rows:
        sparse = {j: v for j, v in row.items() if v}
        if sparse:
            by_lead.setdefault(min(sparse), []).append(sparse)
    gcd = math.gcd
    pivots = []
    for col in range(ncols):
        if not by_lead:
            break
        here = by_lead.pop(col, None)
        if here is None:
            continue
        pivots.append((len(pivots), col))
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
                content = gcd(*row.values())
                if content > 1:
                    row = {j: v // content for j, v in row.items()}
                by_lead.setdefault(min(row), []).append(row)
    return len(pivots), pivots


def bench_build(name: str, repeat: int):
    E, _ = get_family(name)
    W = assemble(E, 5)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    order = 6
    rows = _expansion_rows(W, point, order, EXACT)
    if _reference_rows(W, point, order) != rows:
        raise AssertionError(f"{name}: integer and Fraction builds differ")
    results = {
        "fraction": _time(lambda: _reference_rows(W, point, order), repeat),
        "integer": _time(lambda: _expansion_rows(W, point, order, EXACT), repeat),
    }
    label = f"exact system build, {name} (Taylor rows to int rows)"
    ncols = len(_relation_columns(W.n, order))
    info = f"{len(rows)}x{ncols}, n=5, order {order}, identical rows"
    return label, info, results


def bench_exact(name: str, n: int, repeat: int):
    E, _ = get_family(name)
    W = assemble(E, n)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    order = 6
    ints = _expansion_rows(W, point, order, EXACT)
    column = {key: j for j, key in enumerate(_relation_columns(W.n, order))}
    ncols = len(column)
    degree_keys = [
        key for h in range(1, order + 1) for key in degree_multi_indices(W.n, h)
    ]
    to_degree = {column[key]: j for j, key in enumerate(degree_keys)}
    degree_rows = [{to_degree[j]: v for j, v in row.items()} for row in ints]
    results = {
        "per-step": _time(lambda: _rank_content_per_update(ints, ncols), repeat),
        "once": _time(lambda: linalg.exact_rank(ints, ncols), repeat),
        "degree": _time(
            lambda: linalg.exact_rank(degree_rows, ncols), repeat
        ),
    }
    rank, pivots = linalg.exact_rank(ints, ncols)
    if _rank_content_per_update(ints, ncols) != (rank, pivots):
        raise AssertionError("content once and per update differ in pivots")
    if linalg.exact_rank(degree_rows, ncols)[0] != rank:
        raise AssertionError("degree and support column orders differ in rank")
    return (
        "exact rank (big-int, sparse fraction-free; row content per step "
        f"or once; once in degree column order), {name}",
        f"{len(ints)}x{ncols}, n={n}, rank {rank}",
        results,
    )


def bench_first_two_orders(name: str, repeat: int):
    E, _ = get_family(name)
    W = assemble(E, 5)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    m_start = E.k0 + 1
    top = m_start + 1
    rows = _expansion_rows(W, point, top, EXACT)
    systems = {
        m_start: _leading_rows(rows, W, top, m_start),
        top: rows,
    }

    def separate():
        return {
            order: W.size * order
            - linalg.exact_rank(system, len(_relation_columns(W.n, order)))[0]
            for order, system in systems.items()
        }

    results = {
        "separate": _time(separate, repeat),
        "merged": _time(lambda: _first_two_dims(W, rows, m_start), repeat),
    }
    dims = separate()
    if _first_two_dims(W, rows, m_start) != dims:
        raise AssertionError(f"{name}: one and two eliminations differ in dims")
    return (
        f"exact rank of orders {m_start} and {top} (two eliminations or one), "
        f"{name}",
        f"n=5, {len(systems[m_start])} and {len(rows)} rows, dims {dims}",
        results,
    )


def _float_system():
    """The k0_4_exp relation system at n = 4, order 6 (210x209), at the
    pipeline's 128 bits: (web, point, mode, number of columns)."""
    E, _ = get_family("k0_4_exp")
    mode = E.default_mode()
    W = assemble(E, 4)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), mode)
    return W, point, mode, len(_relation_columns(W.n, 6))


def _mpf_rows(W, point, order: int, mode):
    """The float system as built before the fixed-point powers: each
    entry's mpf offset and its powers taken in mpf, as sparse rows."""
    rows = []
    with mode.workprec():
        for entry in W.entries:
            codes, column = _source_columns(W.n, order, entry.source)
            at = [point[s - 1] for s in entry.source]
            expansion = taylor(entry.generator, at, codes, mode)
            offset = {code: v for code, v in expansion.items() if code}
            for power in codes.powers(offset, order):
                rows.append({column[code]: v for code, v in power.items()})
    return rows


def _mpf_fixed_rows(rows, precision: int):
    """mpf rows held exactly as FixedRows, each entry rounded to the
    precision, as the mpf build converted them before ranking."""
    fixed = []
    with mpmath.workprec(precision):
        for row in rows:
            parts = {}
            for j, v in row.items():
                sign, man, exp, _ = mpmath.mpf(v)._mpf_
                if man:
                    parts[j] = (-man if sign else man, exp)
            unit = min((exp for _, exp in parts.values()), default=0)
            fixed.append(
                linalg.FixedRow(
                    {j: man << (exp - unit) for j, (man, exp) in parts.items()}, unit
                )
            )
    return fixed


def _mpf_oracle(rows, ncols: int, precision: int):
    """Rank and marginal flag of the dense mpf kernel."""
    with mpmath.workprec(precision):
        rank, _, _, marginal = linalg.rank_float_rows(
            [[row.get(j, 0) for j in range(ncols)] for row in rows],
            mpmath.mpf(2) ** (-(precision // 2)),
            linalg.FLOAT_GAP,
        )
    return rank, marginal


def bench_float_build(repeat: int):
    W, point, mode, ncols = _float_system()
    precision = mode.precision

    def mpf_build():
        rows = _mpf_fixed_rows(_mpf_rows(W, point, 6, mode), precision)
        return linalg._fixed_point_rows(rows, precision)

    def fixed_build():
        rows = _expansion_rows(W, point, 6, mode)
        return linalg._fixed_point_rows(rows, precision)

    results = {"mpf": _time(mpf_build, repeat), "fixed": _time(fixed_build, repeat)}
    rows = _expansion_rows(W, point, 6, mode)
    rank, info = linalg.float_rank(rows, ncols, precision)
    if _mpf_oracle(_mpf_rows(W, point, 6, mode), ncols, precision) != (
        rank,
        info["marginal"],
    ):
        raise AssertionError(
            "fixed-point rows and the mpf oracle disagree on the rank or the "
            "marginal flag"
        )
    label = "float relation rows (128-bit; mpf powers + conversion vs fixed point)"
    return label, f"{len(rows)}x{ncols}, rank {rank}", results


def _rank_floor_division(rows, ncols: int, shift: int, gap: int):
    """The fixed-point complete-pivoting kernel as it was before
    linalg.rank_fixed_rows took one reciprocal per updated row and kept
    running row maxima: every entry update divides, a - (f*b)//p, and every
    updated row is rescanned for its largest magnitude."""
    m = len(rows)
    limit = m if m < ncols else ncols
    row_at = list(range(m))
    col_at = list(range(ncols))
    col_pos = list(range(ncols))
    row_max = [max(map(abs, r.values()), default=0) for r in rows]
    pivot_mags = []
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


def bench_float(n: int, precision: int, repeat: int):
    E, _ = get_family("k0_4_exp")
    W = assemble(E, n)
    mode = Mode.floating(precision)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), mode)
    kernels = {
        "floor div": _rank_floor_division,
        "reciprocal": linalg.rank_fixed_rows,
    }
    results = dict.fromkeys(kernels, 0.0)
    shapes = []
    for order in (E.k0 + 1, E.k0 + 2):
        ncols = len(_relation_columns(n, order))
        fixed, _ = linalg._fixed_point_rows(
            _expansion_rows(W, point, order, mode), precision
        )
        outcomes = set()
        for name, kernel in kernels.items():

            def run(kernel=kernel):
                rows = [dict(row) for row in fixed]
                return kernel(rows, ncols, precision // 2, linalg.FLOAT_GAP)

            results[name] += _time(run, repeat)
            rank, _, _, marginal = run()
            outcomes.add((rank, marginal))
        expected = _mpf_oracle(_mpf_rows(W, point, order, mode), ncols, precision)
        if outcomes != {expected}:
            raise AssertionError(
                f"n={n}, order {order}, {precision} bits: kernels give "
                f"{sorted(outcomes)}, the mpf oracle {expected}"
            )
        rank, marginal = expected
        shapes.append(
            f"{len(fixed)}x{ncols} rank {rank}" + (" marginal" if marginal else "")
        )
    label = (
        f"float rank ({precision}-bit, k0_4_exp n={n}, orders {E.k0 + 1} and "
        f"{E.k0 + 2}; floor division vs one reciprocal per row)"
    )
    return label, ", ".join(shapes), results


def _jet_web():
    E, _ = get_family("k0_4_WB_sum")
    W = assemble(E, 5)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    return W, E.k0, point, web_gradients(W, point, EXACT)[0]


def bench_jets(repeat: int):
    W, k0, point, gradients = _jet_web()
    rational = []
    for entry in W.entries:
        values, den = series_gradient(entry.integral, point, EXACT)
        rational.append([Fraction(v, den) for v in values])

    def fraction():
        ranks = []
        for h in range(1, k0 + 1):
            rows = [
                [jet_coefficient(g, L) for g in rational]
                for L in degree_multi_indices(W.n, h)
            ]
            cleared, _ = linalg._integer_rows(rows)
            ranks.append(linalg.exact_rank(*linalg.sparse_rows(cleared))[0])
        return ranks

    def integer():
        matrices = jet_matrix_from_gradients(W.n, k0, gradients)
        return [linalg.exact_rank(*linalg.sparse_rows(rows))[0] for rows in matrices]

    results = {"fraction": _time(fraction, repeat), "integer": _time(integer, repeat)}
    ranks = integer()
    if fraction() != ranks:
        raise AssertionError("integer and Fraction jet matrices differ in rank")
    info = f"d={W.size}, n={W.n}, orders 1..{k0}, ranks {ranks}"
    return "jet matrices build + exact rank", info, results


def bench_proportional(repeat: int):
    W, _, _, gradients = _jet_web()

    def minors():
        return [
            (i, j)
            for i in range(len(gradients))
            for j in range(i + 1, len(gradients))
            if gradients_proportional(gradients[i], gradients[j], EXACT)
        ]

    results = {
        "minors": _time(minors, repeat),
        "grouping": _time(lambda: proportional_pairs(gradients, EXACT), repeat),
    }
    pairs = proportional_pairs(gradients, EXACT)
    if minors() != pairs:
        raise AssertionError("grouping and minors find different proportional pairs")
    info = f"{len(gradients)} gradients, n={W.n}, {len(pairs)} proportional pairs"
    return "proportionality screen (exact)", info, results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    args = parser.parse_args()

    benches = (
        functools.partial(bench_build, "k0_4_pereira_pirio_affine"),
        functools.partial(bench_build, "k0_4_WB_sum"),
        functools.partial(bench_exact, "k0_4_WB_sum", 4),
        functools.partial(bench_exact, "k0_4_pereira_pirio_affine", 5),
        functools.partial(bench_exact, "k0_4_WB_sum", 5),
        functools.partial(bench_first_two_orders, "k0_4_pereira_pirio_affine"),
        functools.partial(bench_first_two_orders, "k0_4_WB_sum"),
        bench_float_build,
        *(
            functools.partial(bench_float, n, precision)
            for n in (3, 4)
            for precision in (32, 64, 128)
        ),
        bench_jets,
        bench_proportional,
    )
    for bench in benches:
        label, info, results = bench(args.repeat)
        print(f"\n{label}  [{info}]")
        for kernel, seconds in results.items():
            print(f"  {kernel:10s} {seconds * 1000:9.1f} ms")
        if len(results) >= 2:
            base, fast = list(results.values())[:2]
            print(f"  speedup    {base / fast:9.2f} x")


if __name__ == "__main__":
    main()
