#!/usr/bin/env python3
"""Time the kernels the verification pipeline runs on its largest systems.

Each bench builds one of the largest systems the pipeline produces and
times the current code on it, layer by layer:

* the exact relation systems of k0_4_pereira_pirio_affine and k0_4_WB_sum
  in dimension 5 at order 6 (420x461, the systems `verify-family
  --corroborate` spends its time on): the row build on the integer Taylor
  kernel (`abelrank._expansion_rows`), then the one elimination that gives
  the kernel dimensions at orders 5 and 6 (`abelrank._first_two_dims`, one
  `linalg.exact_rank` call);
* the k0_4_exp relation systems in dimension 4 at orders 5 and 6 (175x125
  and 210x209) at 32, 64 and 128 bits: the fixed-point row build of the
  order-6 system, then the float ranks of both orders, the order-5 rows
  sliced out of the order-6 ones as the pipeline does (`linalg.float_rank`).
  It checks each rank and marginal flag against the dense mpf kernel on
  rows built in mpf, a check the tests leave out at this size (the mpf
  kernel takes seconds per system);
* the order-8 relation system of the naive k0=5 WB extension
  (`benchmarks/k0_5_wb_extension.json`) in dimension 5 (1008x1286, the
  largest exact system any job here eliminates, and the one whose entries
  grow the most): its elimination (one `linalg.exact_rank` call);
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
"""

from __future__ import annotations

import argparse
import functools
import time
from pathlib import Path

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
from webrank.jets import jet_matrix_from_gradients
from webrank.ordinary import GenericPointSampler
from webrank.scalars import EXACT, Mode
from webrank.tpoly import taylor
from webrank.web import assemble, load_balanced_set, proportional_pairs, web_gradients

K0_5_WB_EXTENSION = Path(__file__).resolve().parent / "k0_5_wb_extension.json"


def _time(fn, repeat: int) -> float:
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_exact(name: str, repeat: int):
    E, _ = get_family(name)
    W = assemble(E, 5)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    m_start = E.k0 + 1
    top = m_start + 1
    rows = _expansion_rows(W, point, top, EXACT)
    results = {
        "rows": _time(lambda: _expansion_rows(W, point, top, EXACT), repeat),
        "rank": _time(lambda: _first_two_dims(W, rows, m_start), repeat),
    }
    dims = _first_two_dims(W, rows, m_start)
    ncols = len(_relation_columns(W.n, top))
    label = f"exact relation system, {name} (int rows, one elimination)"
    return label, f"{len(rows)}x{ncols}, n=5, order {top}, dims {dims}", results


def bench_k0_5(repeat: int):
    E = load_balanced_set(str(K0_5_WB_EXTENSION))
    W = assemble(E, 5)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
    order = E.k0 + 3
    rows = _expansion_rows(W, point, order, EXACT)
    ncols = len(_relation_columns(W.n, order))
    results = {"rank": _time(lambda: linalg.exact_rank(rows, ncols), repeat)}
    dim = W.size * order - linalg.exact_rank(rows, ncols)[0]
    label = "exact relation system, k0=5 WB extension (int rows, one elimination)"
    return label, f"{len(rows)}x{ncols}, n=5, order {order}, dim {dim}", results


def _mpf_rows(W, point, order: int, mode):
    """The float system built in mpf: each entry's mpf offset and its powers
    taken in mpf, as sparse rows."""
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
    point = generic_point_for_web(W, GenericPointSampler(seed=0), mode)
    top = E.k0 + 2
    rows = _expansion_rows(W, point, top, mode)
    systems = {}
    for order in (top - 1, top):
        ncols = len(_relation_columns(W.n, order))
        systems[order] = _leading_rows(rows, W, top, order), ncols

    def rank():
        return [
            linalg.float_rank(system, ncols, precision)
            for system, ncols in systems.values()
        ]

    results = {
        "rows": _time(lambda: _expansion_rows(W, point, top, mode), repeat),
        "rank": _time(rank, repeat),
    }
    shapes = []
    for (order, (system, ncols)), (got, info) in zip(systems.items(), rank()):
        marginal = info["marginal"]
        expected = _mpf_oracle(_mpf_rows(W, point, order, mode), ncols, precision)
        if (got, marginal) != expected:
            raise AssertionError(
                f"order {order}, {precision} bits: fixed point gives "
                f"{(got, marginal)}, the mpf oracle {expected}"
            )
        shape = f"{len(system)}x{ncols} rank {got}"
        shapes.append(shape + " marginal" if marginal else shape)
    label = (
        f"float relation systems, k0_4_exp n=4 ({precision}-bit fixed point, "
        f"orders {top - 1} and {top}; ranks match the mpf oracle)"
    )
    return label, ", ".join(shapes), results


def bench_jets(repeat: int):
    E, _ = get_family("k0_4_WB_sum")
    W = assemble(E, 5)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), EXACT)
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
        bench_k0_5,
        *(functools.partial(bench_float, precision) for precision in (32, 64, 128)),
        bench_jets,
    )
    for bench in benches:
        label, info, results = bench(args.repeat)
        print(f"\n{label}  [{info}]")
        for layer, seconds in results.items():
            print(f"  {layer:6s} {seconds * 1000:9.1f} ms")


if __name__ == "__main__":
    main()
