"""Abelian-relation space dimensions from truncated jet systems.

A relation among the first integrals u_1..u_d is a functional identity
sum_i g_i(u_i) = constant with each g_i a function of one variable.  Working
modulo constants, g_i is represented near a base point p by its coefficients
on powers of (u_i - u_i(p)) with no constant term.  For each truncation order
M the coefficients of an order-M relation jet form the kernel of a linear
map, and the kernel dimension as a function of M stabilizes at the rank of
the web (reported as an order-M certificate, never as a proof).

Both scalar modes build the system in one loop on packed monomial codes
(tpoly.MonomialCodes): each entry's offset u_i - u_i(p) is the series of
its generating integral at the projected point, on the codes of that
integral's k variables; its powers are taken by MonomialCodes.powers, and
each power becomes a sparse row, the {column: value} dict of its nonzeros,
through a code-to-column map built once per (n, order, source); the rows go
to the rank kernels in that format (linalg.exact_rank, linalg.float_rank).
In exact mode the offset comes from tpoly.integer_offset as integer
numerators over one denominator L_i in lowest terms, so L_i is the lcm of
the offset's coefficient denominators and row (i, m) is L_i^m times the
rational row, which keeps every rank.  In float mode the offset is the mpf
expansion tpoly.taylor without its constant term, built at the precision it
is ranked at (linalg.ranks); mpmath stops there.  tpoly.fixed_powers holds
the offset once as ints at a binary unit set by its largest degree-1
coefficient and takes its powers on those ints, shifting each product back
(truncated toward zero), so row (i, m) is a linalg.FixedRow, ints with the
row's own power-of-two unit, and linalg.float_rank aligns the rows to one
matrix unit before it eliminates.  An exact row (i, m) is the m-th power of
an integer offset, so it carries at least the m-th power of that offset's
content (the gcd of its numerators); the exact kernel divides each row by
its content before eliminating, and a row once more when it becomes a
pivot, and like the L_i^m that scaling keeps the rank and the pivot
columns.

Columns are the multi-indices of degree 1..M in two blocks, those of degree
< M first and those of degree M last; within each block the keys with the
most nonzero exponents come first, by degree within one support size.  Row
(i, m) is a power of entry i's offset, so its nonzeros lie on monomials in
the variables of that entry (WebEntry.source): the rows of entries on few
variables vanish on the leading, wide-support columns of a block, the
system is close to block-triangular in this order, and fraction-free
elimination clears it top-down with far less fill-in than in degree order.
Orders above the first two are eliminated in this row layout: transposed,
the order-8 system of benchmarks/k0_5_wb_extension.json at n=5 takes
longer (0.42-0.44 s against 0.28 s, best of 5 in each of two processes).

rank_estimate ranks its first two orders, M = m_start and top = M + 1,
with one exact elimination of the transposed order-top system
(_monomial_rows): one row per monomial, a dict over the unknowns (i, m),
numbered in entry order with the powers descending within an entry.
rank(A) = rank(A^T), so the order-top dim is size * top less its rank.
With the degree-top block last, the first rows are the monomials of
degree <= M.  Such a row is zero on every unknown (i, top), as a power
top of an offset has no term of lower degree, and restricted to the other
unknowns it is a row of the transposed order-M system (a power truncated
at top and restricted to degrees <= M is the power truncated at M, the
scales L_i^m alike), so these rows have exactly the order-M rank.
linalg.exact_rank takes them as its leading rows: at a column where one of
them leads it pivots on one of them, so they are only ever reduced by
pivots of their own kind, and the pivots they take count their rank, which
gives the order-M dim.  A row of the transposed system is one monomial
over the unknowns that reach it, and on one perfbench round the merged
systems need about half the row updates they need in the row layout
(exact_corroborate 6,926 against 14,103, catalog_exact 8,999 against
20,302).  Orders above top are built afresh.  Float mode ranks each order
with its own complete-pivoting elimination: it builds the order-top rows
once per precision and slices the order-M system out of them through a
column remap by key, cached per (n, built order, order), so the slice is
the matrix a fresh build gives (the rows keep their units).  A permutation
of the columns cannot change a rank, and complete pivoting picks the same
pivots in any column order except at exact ties of magnitude.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg
from .combin import calibrated_max_rank, exact_support_dims, support_dims
from .expr import EvalError
from .jets import degree_multi_indices
from .report import (
    INCONCLUSIVE,
    VerificationReport,
    combine_verdicts,
    confirm,
)
from .scalars import DEFAULT_PRECISION, ESCALATION_LIMIT, Mode
from .tpoly import MonomialCodes, fixed_powers, integer_offset, taylor
from .web import (
    AssembledWeb,
    BalancedSet,
    assemble,
    proportional_pairs,
    sampled_gradients,
)


class EstimateInconclusive(Exception):
    """A kernel dimension could not be decided (marginal pivots persisted)."""


class RankEstimate:
    """Kernel dimensions per truncation order and the stabilized value, if any."""

    def __init__(
        self,
        dims: dict[int, int],
        stabilized_at: int | None,
        value: int | None,
        method: str,
        note: str | None = None,
    ) -> None:
        self.dims = dims
        self.stabilized_at = stabilized_at
        self.value = value
        self.method = method
        self.note = note


@lru_cache(maxsize=64)
def _relation_columns(n: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Column keys of the relation system: multi-indices of degree < order,
    then those of degree order, each block largest support first and by
    degree within one support size."""
    keys: list[tuple[int, ...]] = []
    for h in range(1, order + 1):
        keys.extend(degree_multi_indices(n, h))
    keys.sort(key=lambda key: (sum(key) == order, -sum(1 for e in key if e)))
    return tuple(keys)


@lru_cache(maxsize=512)
def _source_columns(n: int, order: int, source: tuple[int, ...]):
    """(codes, column) for an entry on the coordinates `source`: the packing
    of the monomials of degree <= order in its len(source) variables, and
    the map from each such code to the column of the key that puts its
    exponents at the source positions."""
    codes = MonomialCodes(len(source), order)
    column = {}
    for j, key in enumerate(_relation_columns(n, order)):
        exponents = [key[s - 1] for s in source]
        if sum(exponents) == sum(key):
            column[codes.encode(exponents)] = j
    return codes, column


def _expansion_rows(W: AssembledWeb, point, order: int, mode: Mode):
    """Rows of the transposed jet system: one row per unknown (entry, power).

    The row for (i, m) holds the Taylor coefficients of (u_i - u_i(p))^m on
    the multi-indices of degree 1..order, as a {column: value} dict of its
    nonzeros (columns as in _relation_columns; there are
    len(_relation_columns(n, order)) of them); the kernel dimension of the
    relation map is (#unknowns - rank of these rows).

    In exact mode the offset u_i - u_i(p) comes from tpoly.integer_offset as
    integer numerators over the lcm L_i of its coefficient denominators, and
    its powers are taken on those numerators, so row (i, m) is L_i^m times
    the rational row; row scaling keeps the rank.  In float mode the offset
    is the mpf series tpoly.taylor gives at the mode's precision and its
    powers are taken in fixed point (tpoly.fixed_powers, which states the
    error model), so each row is a linalg.FixedRow carrying the unit of its
    power.
    """
    rows = []
    for entry in W.entries:
        codes, column = _source_columns(W.n, order, entry.source)
        at = [point[s - 1] for s in entry.source]
        try:
            if mode.is_exact:
                offset, _ = integer_offset(entry.generator, at, codes)
            else:
                expansion = taylor(entry.generator, at, codes, mode)
        except EvalError as err:
            raise EvalError(f"entry {entry.label}: {err}") from None
        if mode.is_exact:
            for power in codes.powers(offset, order):
                rows.append({column[code]: value for code, value in power.items()})
        else:
            for power, unit in fixed_powers(expansion, codes, mode.precision):
                row = {column[code]: value for code, value in power.items()}
                rows.append(linalg.FixedRow(row, unit))
    return rows


@lru_cache(maxsize=64)
def _leading_columns(n: int, built: int, order: int) -> dict[int, int]:
    """Map from each column of degree <= order of the order-`built` system
    to the column of the same key in the order-`order` system."""
    column = {key: k for k, key in enumerate(_relation_columns(n, order))}
    return {
        j: column[key]
        for j, key in enumerate(_relation_columns(n, built))
        if sum(key) <= order
    }


def _leading_rows(rows: list, W: AssembledWeb, built: int, order: int) -> list:
    """The order-`order` system inside rows built at order `built` >= order.

    A power truncated at `built` and then restricted to degrees <= order
    equals the power truncated at `order`, so keeping each entry's first
    `order` power rows and moving each column of degree <= order to its
    key's column in the order-`order` system gives the matrix a fresh build
    gives (in exact mode up to the row scales, which cannot change the
    rank).  Float rows keep their units, which tpoly.fixed_powers sets from
    the degree-1 terms alone, so there the slice equals a fresh build int
    for int and unit for unit.
    """
    remap = _leading_columns(W.n, built, order)
    sliced = []
    for i in range(W.size):
        for row in rows[i * built : i * built + order]:
            kept = {remap[j]: v for j, v in row.items() if j in remap}
            if isinstance(row, linalg.FixedRow):
                kept = linalg.FixedRow(kept, row.unit)
            sliced.append(kept)
    return sliced


def _monomial_rows(rows: list, top: int, ncols: int) -> list[dict[int, int]]:
    """The transpose of an order-`top` relation system: one row per column
    (monomial), a {column: value} dict over the unknowns (i, m), which are
    numbered in entry order with the powers descending within an entry, so
    (i, m) is column i * top + top - m.

    `rows` is emptied as it is read, so the row layout is released while
    the transpose is built and never lives beside it.
    """
    monomials: list[dict[int, int]] = [{} for _ in range(ncols)]
    while rows:
        row = rows.pop()
        i, below = divmod(len(rows), top)  # unknown (i, below + 1)
        unknown = i * top + top - 1 - below
        for j, v in row.items():
            monomials[j][unknown] = v
    return monomials


def _first_two_dims(W: AssembledWeb, rows: list, m_start: int) -> dict[int, int]:
    """Exact kernel dimensions at orders m_start and top = m_start + 1 from
    one elimination of the transposed order-top system (see the module
    docstring); `rows`, the order-top rows, is emptied (_monomial_rows).

    The monomial rows of degree <= m_start lead (linalg.exact_rank's
    leading rows): they are the transposed order-m_start system, so the
    pivots they take count its rank.
    """
    top = m_start + 1
    ncols = len(_relation_columns(W.n, top))
    monomials = _monomial_rows(rows, top, ncols)
    prefix = len(_relation_columns(W.n, m_start))
    rank, _, low = linalg.exact_rank(monomials, W.size * top, leading=prefix)
    return {m_start: W.size * m_start - low, top: W.size * top - rank}


def _kernel_dim(W: AssembledWeb, order: int, mode: Mode, system):
    """Kernel dimension at one truncation order; returns (dim, mode used).

    system(order, mode) returns the order-`order` relation rows built in
    `mode`.
    """
    ncols = len(_relation_columns(W.n, order))
    outcome = linalg.ranks(lambda current: [(system(order, current), ncols)], mode)
    if outcome is None:
        raise EstimateInconclusive(
            f"marginal pivots persist at order {order} up to "
            f"{ESCALATION_LIMIT}-bit precision"
        )
    [(rank, _)], used = outcome
    return W.size * order - rank, used


def rank_estimate(
    W: AssembledWeb, point, m_start: int, m_cap: int, mode: Mode
) -> RankEstimate:
    """Kernel dimensions for orders m_start..m_cap until two agree.

    The stabilized dimension is reported as the web's rank at this point; if
    the cap is reached without stabilization the estimate is inconclusive
    (value None) and the dims trace is still returned for audit.
    Stabilizing takes two orders, so m_cap must exceed m_start.

    In exact mode the dims at m_start and top = m_start + 1 both come from
    one elimination of the order-top rows (_first_two_dims).  In float mode
    each order has its own elimination; the order-top rows are built once
    per precision and the order-m_start rows sliced out of them
    (_leading_rows).  Higher orders are built afresh in both modes.
    """
    if m_start < 1 or m_cap <= m_start:
        raise ValueError(f"need 1 <= m_start < m_cap, got {m_start}..{m_cap}")
    top = m_start + 1
    known = {}  # exact mode: (dim, mode used) at the first two orders
    if mode.is_exact:
        rows = _expansion_rows(W, point, top, mode)  # emptied by the call
        for order, dim in _first_two_dims(W, rows, m_start).items():
            known[order] = dim, mode
    tops = {}  # float mode: the order-top rows per precision

    def system(order: int, current: Mode):
        if order == m_start:
            if current not in tops:
                tops[current] = _expansion_rows(W, point, top, current)
            return _leading_rows(tops[current], W, top, m_start)
        if order == top and current in tops:
            return tops.pop(current)
        return _expansion_rows(W, point, order, current)

    dims: dict[int, int] = {}
    previous = None
    method = mode.label()
    for order in range(m_start, m_cap + 1):
        try:
            dim, used = known.get(order) or _kernel_dim(W, order, mode, system)
        except EstimateInconclusive as err:
            return RankEstimate(
                dims=dims,
                stabilized_at=None,
                value=None,
                method=method,
                note=str(err),
            )
        method = used.label()
        dims[order] = dim
        if previous is not None and previous == dim:
            return RankEstimate(
                dims=dims, stabilized_at=order - 1, value=dim, method=method
            )
        previous = dim
    return RankEstimate(
        dims=dims,
        stabilized_at=None,
        value=None,
        method=method,
        note=f"no stabilization up to order {m_cap}",
    )


# ---------------------------------------------------------------------------
# the finite verification pipeline

def generic_point_for_web(W: AssembledWeb, sampler, mode: Mode):
    """A sampled point where all entries are defined (sampled_gradients
    skips the others) and differentials are pairwise non-proportional;
    None when sampling is exhausted."""
    for point, gradients in sampled_gradients(W, sampler, mode):
        if not proportional_pairs(gradients, mode):
            return point
    return None


class RankCheck:
    """A rank estimate at sampled generic points against an expected value.

    point and estimate belong to the deciding point (the last one estimated;
    None when no generic point was found); mismatches records every point
    whose stabilized value differed from the expected one.
    """

    def __init__(
        self,
        verdict: str,
        point: tuple | None,
        estimate: RankEstimate | None,
        mismatches: list[dict],
    ) -> None:
        self.verdict = verdict
        self.point = point
        self.estimate = estimate
        self.mismatches = mismatches

    def record(self) -> dict:
        """The report keys of a check that found a generic point (rank
        --format json and each verify_max_rank dimension print them)."""
        estimate = self.estimate
        record = {
            "value": estimate.value,
            "dims_trace": dict(sorted(estimate.dims.items())),
            "stabilized_at": estimate.stabilized_at,
            "method": estimate.method,
            "point": [str(c) for c in self.point],
            "note": estimate.note,
            "verdict": self.verdict,
        }
        if self.mismatches:
            record["mismatch_points"] = self.mismatches
        return record


def check_rank(
    W: AssembledWeb, sampler, m_start: int, m_cap: int, mode: Mode, expected: int
) -> RankCheck:
    """Compare the rank estimate of W at a sampled generic point with `expected`.

    The verdict follows report.confirm over generic points, each found by
    its own generic_point_for_web search.  The relation rows are rational in
    the point, so their rank can drop, and the estimate rise, on a thin set
    only.  Two departures: an estimate that does not stabilize stops the
    check as "inconclusive", and when the search runs dry after mismatches
    the last mismatch's note says so.
    """
    last = [None, None]  # point and estimate of the last point estimated

    def outcomes():
        while (point := generic_point_for_web(W, sampler, mode)) is not None:
            estimate = rank_estimate(W, point, m_start, m_cap, mode)
            last[:] = point, estimate
            if estimate.value is None:
                return  # not stabilized: stop as inconclusive
            yield estimate.value == expected, {
                "point": [str(c) for c in point],
                "value": estimate.value,
                "dims_trace": dict(sorted(estimate.dims.items())),
            }

    verdict, mismatches, _ = confirm(outcomes())
    point, estimate = last
    if verdict == INCONCLUSIVE and mismatches and estimate.value is not None:
        estimate = RankEstimate(
            estimate.dims,
            estimate.stabilized_at,
            estimate.value,
            estimate.method,
            note=f"no generic point found after {len(mismatches)} "
            "mismatching points",
        )
    return RankCheck(verdict, point, estimate, mismatches)


def verify_max_rank(
    E: BalancedSet,
    sampler,
    m_cap: int | None = None,
    corroborate: bool = False,
    precision: int = DEFAULT_PRECISION,
) -> VerificationReport:
    """Rank estimates for n = 2..k0 against the calibrated maximal rank.

    When every estimate matches, the assembled webs have maximal rank in
    every dimension (granted ordinariness, certified separately), and the
    empirical exact-support table is reported next to the counting table.
    Each dimension's verdict is check_rank's (report.confirm over generic
    points); its mismatching points are listed under "mismatch_points".
    With corroborate=True the check is repeated at n = k0 + 1 as an
    independent desk-scale corroboration.
    """
    k0 = E.k0
    mode = E.default_mode(precision)
    m_start = k0 + 1
    cap = m_cap if m_cap is not None else k0 + 5
    n_values = list(range(2, k0 + 1)) + ([k0 + 1] if corroborate else [])
    per_n = []
    verdicts = []
    estimates_low: dict[int, RankEstimate] = {}
    for n in n_values:
        expected = calibrated_max_rank(n, k0)
        check = check_rank(assemble(E, n), sampler, m_start, cap, mode, expected)
        estimate = check.estimate
        if estimate is None:
            per_n.append(
                {
                    "n": n,
                    "expected": expected,
                    "verdict": INCONCLUSIVE,
                    "reason": "no generic point found",
                }
            )
            verdicts.append(INCONCLUSIVE)
            continue
        per_n.append({"n": n, "expected": expected, **check.record()})
        verdicts.append(check.verdict)
        if n <= k0:
            estimates_low[n] = estimate
    empirical: dict[int, int] | None = None
    if all(n in estimates_low and estimates_low[n].value is not None for n in range(2, k0 + 1)):
        empirical = support_dims({h: e.value for h, e in estimates_low.items()})
    expected_table = exact_support_dims(k0, k0).N_values
    verdict = combine_verdicts(verdicts)
    return VerificationReport(
        name="verify_max_rank",
        verdict=verdict,
        checks=per_n,
        witnesses={
            "k0": k0,
            "seed": sampler.seed,
            "mode": mode.label(),
            "m_start": m_start,
            "m_cap": cap,
            "N_table_empirical": empirical,
            "N_table": expected_table,
            "N_table_match": empirical == expected_table if empirical else None,
        },
    )
