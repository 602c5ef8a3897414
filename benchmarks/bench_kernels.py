#!/usr/bin/env python3
"""Time the kernels the verification pipeline runs on its largest systems.

Each bench builds one of the largest systems the pipeline produces and
times the current code on it, layer by layer:

* the exact relation systems of k0_4_pereira_pirio_affine and k0_4_WB_sum
  in dimension 5 at order 6 (461 monomial rows on 420 unknowns, the
  systems `verify-family --corroborate` spends its time on): the build of
  its monomial rows on the integer Taylor kernel (`abelrank._relation_rows`),
  then the elimination that gives the kernel dimensions at orders 5 and 6
  as `abelrank._exact_dims` makes it: two `linalg.exact_extend` calls on
  one echelon, the monomial rows of degree <= 5 first and those of degree
  6 after them;
* the k0_4_exp relation systems in dimension 4 at orders 5 and 6 (125 and
  209 monomial rows on 175 and 210 unknowns) at 32, 64 and 128 bits: the
  builds of the monomial rows of both orders, each offset's powers taken
  in mpf and held exactly as ints, each order built on its own as
  `abelrank._float_dims` builds it, then their float ranks
  (`linalg.float_rank`: fixed-point complete pivoting on the nonzeros,
  every active row rescanned for its largest magnitude at each step, as
  the dense kernels do).  It checks each rank and marginal flag against
  the dense mpf kernel on the system of each order built separately in
  mpf, one row per unknown, a check the tests leave out at this size (the
  mpf kernel takes seconds per system);
* the same web's order-6 system in modular mode, the mode verify-family
  ranks it in: the build of its monomial rows mod q = 2^61 - 1 at
  t = e^(1/L) (`abelrank._relation_rows`), its rank by `linalg.modular_extend`
  and, beside it, the 128-bit float kernel (`linalg.float_rank`, rows
  rescanned at each step) on the 128-bit float build at the same point;
  it checks that the two ranks agree;
* the naive k0=5 WB extension (`benchmarks/k0_5_wb_extension.json`) in
  dimension 5, the fixture with the largest exact systems: its rank
  estimate grown through orders 6, 7 and 8, the orders `rank --n 5` ranks
  at each point (`abelrank.rank_estimate` with m_start 6 and m_cap 8: the
  order-7 build, 791 monomial rows, gives orders 6 and 7, then a build of
  the 495 monomial rows of degree 8 alone extends the same echelon; row
  builds included);
* the jet matrices of orders 1..4 of the assembled k0_4_WB_sum web in
  dimension 5 (70 entries), built on its int gradients
  (`jets.jet_matrix_from_gradients`) and ranked, and the proportionality
  screen of those gradients (`web.proportional_pairs`).

A kernel the pipeline no longer runs is not kept here: when a change
replaces one, its old-against-new figures go to CHANGES.md and the
change's BENCH_*.json, and its code leaves this script.  The tests keep
whatever reference implementations serve as their oracles.

Run after `pip install -e .`:

    python benchmarks/bench_kernels.py [--repeat N]

Each layer prints the best and the median of its N timed runs (default 3)
in one process.  A best-of hides the slow spells of a shared host, so
compare medians, over several runs of the script alternating with the
code it is compared against.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import time
from pathlib import Path

import mpmath

from webrank import linalg
from webrank.abelrank import (
    _relation_columns,
    _relation_rows,
    _source_columns,
    generic_point_for_web,
    rank_estimate,
)
from webrank.catalog import get_family
from webrank.combin import calibration_order
from webrank.jets import jet_matrix_from_gradients
from webrank.ordinary import PointSearch
from webrank.scalars import EXACT, Mode
from webrank.tpoly import taylor
from webrank.web import assemble, load_balanced_set, proportional_pairs, web_gradients

K0_5_WB_EXTENSION = Path(__file__).resolve().parent / "k0_5_wb_extension.json"


def _time(fn, repeat: int) -> tuple[float, float]:
    """The best and the median of repeat timed runs of fn, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def _rank_point(W, mode):
    """The point `rank --seed 0` estimates W's rank at first: the first
    point of its dimension's search with J_k0 invertible."""
    search = PointSearch(W, calibration_order(W.n, W.size), 0, mode)
    return generic_point_for_web(search.points()).point


def _two_batch_dims(W, rows, m_start: int, m_cap: int) -> dict[int, int]:
    """The dims at orders m_start and m_start + 1 from the order-(m_start +
    1) monomial rows with room for m_cap powers (left unchanged), through
    the two exact_extend calls abelrank._exact_dims makes on them."""
    below = len(_relation_columns(W.n, m_start))
    echelon = {}
    linalg.exact_extend(echelon, rows[:below], W.size * m_cap)
    low = W.size * m_start - len(echelon)
    linalg.exact_extend(echelon, rows[below:], W.size * m_cap)
    return {m_start: low, m_start + 1: W.size * (m_start + 1) - len(echelon)}


def bench_exact(name: str, repeat: int):
    E, _ = get_family(name)
    W = assemble(E, 5)
    point = _rank_point(W, EXACT)
    m_start, m_cap = E.k0 + 1, E.k0 + 5  # verify-family's orders
    top = m_start + 1

    def build():
        return _relation_rows(W, point, top, EXACT, m_cap)[0]

    rows = build()
    results = {
        "rows": _time(build, repeat),
        "rank": _time(lambda: _two_batch_dims(W, rows, m_start, m_cap), repeat),
    }
    dims = _two_batch_dims(W, rows, m_start, m_cap)
    info = (
        f"{len(rows)} monomial rows on {W.size * top} unknowns, n={W.n}, "
        f"order {top}, dims {dims}"
    )
    label = f"exact relation system, {name} (int rows, two batches of one echelon)"
    return label, info, results


def bench_k0_5_growth(repeat: int):
    E = load_balanced_set(str(K0_5_WB_EXTENSION))
    W = assemble(E, 5)
    point = _rank_point(W, EXACT)
    m_start, m_cap = E.k0 + 1, E.k0 + 3

    def grow():
        return rank_estimate(W, point, m_start, m_cap, EXACT).dims

    results = {"grow": _time(grow, repeat)}
    label = (
        "exact rank estimate, k0=5 WB extension, orders 6, 7 and 8 "
        "(one growing echelon, row builds included)"
    )
    return label, f"n={W.n}, dims {grow()}", results


def _mpf_rows(W, point, order: int, mode):
    """The float system built in mpf, one row per unknown: each entry's mpf
    offset and its powers taken in mpf, as sparse rows."""
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


def _mpf_oracle(rows, ncols: int, precision: int):
    """Rank and marginal flag of the dense mpf kernel."""
    with mpmath.workprec(precision):
        rank, _, _, marginal = linalg.rank_float_rows(
            [[row.get(j, 0) for j in range(ncols)] for row in rows],
            mpmath.mpf(2) ** (-(precision // 2)),
            linalg.FLOAT_GAP,
        )
    return rank, marginal


def bench_float(precision: int, repeat: int):
    E, _ = get_family("k0_4_exp")
    W = assemble(E, 4)
    mode = Mode.floating(precision)
    point = _rank_point(W, mode)
    orders = (E.k0 + 1, E.k0 + 2)

    def build():
        return {
            order: _relation_rows(W, point, order, mode, order) for order in orders
        }

    systems = build()

    def rank():
        return [
            linalg.float_rank(rows, units, precision)
            for rows, units in systems.values()
        ]

    results = {"rows": _time(build, repeat), "rank": _time(rank, repeat)}
    shapes = []
    for (order, (rows, _)), (got, info) in zip(systems.items(), rank()):
        marginal = info["marginal"]
        ncols = len(_relation_columns(W.n, order))
        expected = _mpf_oracle(_mpf_rows(W, point, order, mode), ncols, precision)
        if (got, marginal) != expected:
            raise AssertionError(
                f"order {order}, {precision} bits: float_rank gives "
                f"{(got, marginal)}, the mpf oracle {expected}"
            )
        shape = f"{len(rows)} monomial rows rank {got}"
        shapes.append(shape + " marginal" if marginal else shape)
    label = (
        f"float relation systems, k0_4_exp n=4 ({precision}-bit mpf powers as "
        f"ints, orders {orders[0]} and {orders[1]}, each from its own build; "
        "fixed-point complete pivoting, rows rescanned per pivot; ranks match "
        "the mpf oracle)"
    )
    return label, ", ".join(shapes), results


def bench_modular(repeat: int):
    E, _ = get_family("k0_4_exp")
    W = assemble(E, 4)
    mode = Mode.modular()
    point = _rank_point(W, mode)
    order = E.k0 + 2

    def build():
        return _relation_rows(W, point, order, mode, order)[0]

    rows = build()
    floats, units = _relation_rows(W, point, order, Mode.floating(128), order)

    def rank():
        return linalg.modular_extend({}, rows, W.size * order)

    def float_rank():
        return linalg.float_rank(floats, units, 128)[0]

    results = {
        "rows": _time(build, repeat),
        "rank": _time(rank, repeat),
        "float": _time(float_rank, repeat),
    }
    if rank() != float_rank():
        raise AssertionError(
            f"order {order}: rank {rank()} mod q, {float_rank()} at 128 bits"
        )
    label = (
        f"modular relation system, k0_4_exp n=4 (order {order} mod 2^61-1 at "
        "t=e^(1/L); rank equal to the 128-bit float kernel's, rows rescanned "
        "per pivot)"
    )
    return label, f"{len(rows)} monomial rows rank {rank()}", results


def bench_jets(repeat: int):
    E, _ = get_family("k0_4_WB_sum")
    W = assemble(E, 5)
    point = _rank_point(W, EXACT)
    gradients = web_gradients(W, point, EXACT)[0]

    def jets():
        matrices = jet_matrix_from_gradients(W.n, E.k0, gradients)
        return [linalg.exact_rank(*linalg.sparse_rows(rows))[0] for rows in matrices]

    results = {
        "jets": _time(jets, repeat),
        "pairs": _time(lambda: proportional_pairs(gradients, EXACT), repeat),
    }
    info = (
        f"d={W.size}, n={W.n}, orders 1..{E.k0}, ranks {jets()}, "
        f"{len(proportional_pairs(gradients, EXACT))} proportional pairs"
    )
    label = "jet matrices build + exact rank, proportionality screen, k0_4_WB_sum"
    return label, info, results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    args = parser.parse_args()

    benches = (
        functools.partial(bench_exact, "k0_4_pereira_pirio_affine"),
        functools.partial(bench_exact, "k0_4_WB_sum"),
        bench_k0_5_growth,
        *(functools.partial(bench_float, precision) for precision in (32, 64, 128)),
        bench_modular,
        bench_jets,
    )
    for bench in benches:
        label, info, results = bench(args.repeat)
        print(f"\n{label}  [{info}]")
        for layer, (best, median) in results.items():
            print(
                f"  {layer:6s} {best * 1000:9.1f} ms best "
                f"{median * 1000:9.1f} ms median"
            )


if __name__ == "__main__":
    main()
