"""Abelian-relation space dimensions from truncated jet systems.

A relation among the first integrals u_1..u_d is a functional identity
sum_i g_i(u_i) = constant with each g_i a function of one variable.  Working
modulo constants, g_i is represented near a base point p by its coefficients
on powers of (u_i - u_i(p)) with no constant term.  For each truncation order
M the coefficients of an order-M relation jet form the kernel of a linear
map, and the kernel dimension as a function of M stabilizes at the rank of
the web (reported as an order-M certificate, never as a proof).

Both scalar modes build the system in one layout, one row per monomial
(_relation_rows).  Each entry's offset u_i - u_i(p) is the series of its
generating integral at the projected point, on packed monomial codes
(tpoly.MonomialCodes) of that integral's k variables; its powers are taken
by MonomialCodes.powers, and the coefficient of each monomial in the m-th
power goes straight into that monomial's row, a {unknown: value} dict of
its nonzeros, through a code-to-row map built once per (n, order, source).
Unknown (i, m) is numbered in entry order with the powers descending within
an entry and room for every power up to m_cap, so it is column
i * m_cap + m_cap - m at every order.  rank(A) = rank(A^T) for the map A
from the unknowns to the monomials, so the order-M dim is size * M less the
rank of these rows.  In exact mode the offset comes from
tpoly.integer_offset as integer numerators over one denominator L_i in
lowest terms, so L_i is the lcm of the offset's coefficient denominators
and unknown (i, m) carries L_i^m, a column scale that keeps every rank.  In
float mode the offset is the mpf expansion tpoly.taylor without its
constant term, built at the precision it is ranked at (linalg.ranks), and
its powers are taken by MonomialCodes.powers in mpf at that precision.
Each power is then held exactly as ints over its own power-of-two unit
(tpoly.mpf_ints), the unit of unknown (i, m), and linalg.float_rank aligns
the columns to one matrix unit before it eliminates.  In modular mode
(scalars) the offset is tpoly.integer_offset's residues mod q at the
point's one t0, so every L_i is 1, and linalg.modular_extend ranks it.

Monomials are the multi-indices of degree 1..M in two blocks, those of
degree < M first and those of degree M last; within each block the keys
with the most nonzero exponents come first, by degree within one support
size.  Unknown (i, m) is a power of entry i's offset, so its nonzeros lie
on monomials in the variables of that entry (WebEntry.source): the entries
on few variables vanish on the leading, wide-support rows of a block, and
the system is close to block-triangular in this order.  In plain degree
order the estimate of benchmarks/k0_5_wb_extension.json at n=5 through
orders 6, 7 and 8 takes 0.40-0.44 s against 0.37-0.41 s (best of 5 in
each of two processes).

The orders nest by rows: a monomial row of degree D is zero on every
unknown (i, m) with m > D, as an m-th power of an offset has no term of
lower degree, and its other entries do not depend on the order the system
is truncated at.  So the order-M system is the order-(M - 1) one plus its
degree-M monomial rows, and the first rows of the order-(M + 1) build, its
degree <= M block, are the order-M system.  Exact mode grows one echelon
per point (_exact_dims, linalg.exact_extend): it builds the
order-(m_start + 1) rows once, extends an empty echelon by their leading
rows, which gives the order-m_start dim, then by the rows of degree
m_start + 1.  Only while the dims have not stabilized does it build each
higher order M, its degree-M monomial rows alone, and extend the echelon
by them.

The scales need care there.  Unknown (i, m) carries L_i^m, and for rational
integrals L_i, the lcm of the coefficient denominators up to the build's
order, grows with that order: the order-M build's L_i is r_i times the
first build's.  A column scale keeps the rank only if every row carries it,
so the degree-M batch is multiplied by one factor F = lcm_i r_i^M and its
column (i, m) divided by r_i^m: each of its rows is then F times the row at
the first build's scales, and row scaling keeps the rank.  _exact_dims
divides each row of such a batch by its content right after the rescale,
which takes most of F out again; the kernel takes no content of its input
rows, only of a pivot when it first reduces another row.

Modular mode grows one echelon the same way, mod q, with no rescale.
Float mode builds and ranks each order on its own (_float_dims), on the
precision ladder of linalg.ranks: order m_start + 1 first, then order
m_start from the precision that order was decided at, so a start order
whose next order escalated is ranked at the higher precision as well.

A dim mod q is an upper bound on the true dim at that order, equal to it
but with probability at most deg/(q - 1) (scalars); a J_k0 of full rank
mod q is invertible at the point outright.

The system is block lower-triangular by degree: on the power-D unknowns the
degree-D monomial rows hold the degree-D jet matrix J_D of the entries'
gradients (times a multinomial coefficient per row), and every row of
lower degree is zero there.  So the order-M dim is at most
sum_{D <= M} (d - rank J_D), and the degree-(M + 1) rows add at least
rank J_(M + 1) pivots to the order-M rank.  For a calibrated web,
d = monomial_count(n, k0), at a point where the d x d matrix J_k0 is
invertible, J_D has full row rank for D <= k0 and rank d for D >= k0
(ordinary.jet_ranks_at_point).  Then for M >= k0 the bound is
combin.max_rank_bound(n, d) = pi, and the dim at order M + 1 is at most
the dim at order M.  check_rank estimates only at such points, the points
of the dimension's search (ordinary.PointSearch) the direct check reads.

verify_max_rank(corroborate=True) ranks the corroborating dimension
n = k0 + 1, its largest check, in a forked child while it ranks n = 2..k0,
where os.fork and a second CPU exist (_fork_usable, _Forked).  The child
starts after the web condition and the direct check have expanded that
dimension's points, from the state the serial loop would reach it in, and
sends its RankCheck, or the exception it raised, back through a pipe.  The
report and the exit code are the same on either path; the wall time falls,
the CPU time does not.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
from functools import lru_cache

from . import linalg
from .combin import calibrated_max_rank, exact_support_dims, support_dims
from .expr import EvalError
from .jets import degree_multi_indices
from .report import (
    INCONCLUSIVE,
    VerificationReport,
    combine_verdicts,
)
from .scalars import ESCALATION_LIMIT, MODULUS, Mode
from .tpoly import MonomialCodes, integer_offset, modulus_at, mpf_ints, taylor
from .web import AssembledWeb, BalancedSet


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
    """Monomial keys of the relation system, one row each: multi-indices of
    degree < order, then those of degree order, each block largest support
    first and by degree within one support size."""
    keys: list[tuple[int, ...]] = []
    for h in range(1, order + 1):
        keys.extend(degree_multi_indices(n, h))
    keys.sort(key=lambda key: (sum(key) == order, -sum(1 for e in key if e)))
    return tuple(keys)


@lru_cache(maxsize=64)
def _relation_index(n: int, order: int) -> dict[tuple[int, ...], int]:
    """{key: its index in _relation_columns(n, order)}."""
    return {key: j for j, key in enumerate(_relation_columns(n, order))}


@lru_cache(maxsize=512)
def _source_columns(n: int, order: int, source: tuple[int, ...]):
    """(codes, row_of) for an entry on the coordinates `source`: the packing
    of the monomials of degree <= order in its len(source) variables, and
    the map from each such code to the index in _relation_columns of the
    key that puts its exponents at the source positions."""
    codes = MonomialCodes(len(source), order)
    index = _relation_index(n, order)
    row_of = {}
    key = [0] * n
    for h in range(1, order + 1):
        for exponents in degree_multi_indices(len(source), h):
            for s, exponent in zip(source, exponents):
                key[s - 1] = exponent
            row_of[codes.encode(exponents)] = index[tuple(key)]
    return codes, row_of


def _relation_rows(
    W: AssembledWeb,
    point,
    order: int,
    mode: Mode,
    m_cap: int,
    first: int = 0,
):
    """The order-`order` relation system, one row per monomial, from the
    `first`-th monomial on: (rows, scales).

    The row of a monomial (a key of _relation_columns, in that order)
    holds, as an {unknown: value} dict of its nonzeros, its coefficient in
    each power (u_i - u_i(p))^m, m <= order, at the unknown (i, m), column
    i * m_cap + m_cap - m; the kernel dimension of the relation map is
    W.size * order less the rank of these rows.

    In exact mode the offset u_i - u_i(p) comes from tpoly.integer_offset
    as integer numerators over the lcm L_i of its coefficient denominators,
    and its powers are taken on those numerators, so unknown (i, m) carries
    L_i^m, a column scale that keeps the rank; scales is the list of the
    L_i.  In modular mode the offsets and powers are residues mod q at the
    point's one modulus (tpoly.modulus_at), and every L_i is 1.  In float
    mode the offset is the mpf series tpoly.taylor gives at the mode's
    precision, its powers are taken in mpf at that precision, and each
    power is held exactly as ints (tpoly.mpf_ints); scales is the
    power-of-two unit of each unknown, as linalg.float_rank takes them.
    """
    rows: list[dict[int, int]] = [
        {} for _ in range(len(_relation_columns(W.n, order)) - first)
    ]
    scales = [0] * (W.size * m_cap) if mode.is_float else []
    at = [[point[s - 1] for s in entry.source] for entry in W.entries]
    modulus = None
    if mode.is_modular:
        modulus = modulus_at(zip([e.generator for e in W.entries], at), point)
    q = MODULUS if modulus else 0
    for i, (entry, projected) in enumerate(zip(W.entries, at)):
        codes, row_of = _source_columns(W.n, order, entry.source)
        try:
            if mode.is_float:
                expansion = taylor(entry.generator, projected, codes, mode)
            else:
                offset, den = integer_offset(
                    entry.generator, projected, codes, modulus
                )
        except EvalError as err:
            raise EvalError(f"entry {entry.label}: {err}") from None
        if mode.is_float:
            with mode.workprec():
                offset = {code: v for code, v in expansion.items() if code}
                powers = codes.powers(offset, order)
            for m, power in enumerate(powers, 1):
                ints, scales[(i + 1) * m_cap - m] = mpf_ints(power.values())
                powers[m - 1] = dict(zip(power, ints))
        else:
            scales.append(den)
            powers = codes.powers(offset, order, modulus=q)
        for m, power in enumerate(powers, 1):
            unknown = (i + 1) * m_cap - m
            for code, value in power.items():
                j = row_of[code] - first
                if j >= 0:
                    rows[j][unknown] = value
    return rows, scales


def _exact_dims(W: AssembledWeb, point, m_start: int, m_cap: int, mode: Mode):
    """Yield (order, kernel dimension, mode) for orders m_start..m_cap from
    one echelon of the relation system, grown a degree at a time (see the
    module docstring), in exact or modular mode; stop pulling once the
    estimate is decided.

    The order-(m_start + 1) rows are built first, their monomial rows of
    degree <= m_start give order m_start and those of degree m_start + 1
    the next.  Each higher order M builds its degree-M monomial rows only
    and extends the echelon by them; a batch whose offsets' L_i have grown
    since the first build is brought back to the first build's column
    scales L_i^m, and each of its rows divided by its content, which
    takes out most of the factor F that brought it there.
    """
    extend = linalg.exact_extend if mode.is_exact else linalg.modular_extend
    echelon: dict = {}
    unknowns = W.size * m_cap
    scales = None  # each offset's L_i at the first build
    for built in range(m_start + 1, m_cap + 1):
        below = len(_relation_columns(W.n, built - 1))  # the degree < built keys
        if scales is None:
            rows, scales = _relation_rows(W, point, built, mode, m_cap)
            extend(echelon, rows[:below], unknowns)
            yield m_start, W.size * m_start - len(echelon), mode
            batch = rows[below:]
        else:
            batch, fresh = _relation_rows(W, point, built, mode, m_cap, below)
            if fresh != scales:
                # unknown (i, m) carries (r_i L_i)^m: one factor for the
                # batch, divisible by r_i^m for every m <= built, takes it
                # to L_i^m
                ratios = [new // old for new, old in zip(fresh, scales)]
                factor = math.lcm(*(r**built for r in ratios))
                times = [
                    factor // ratios[u // m_cap] ** min(m_cap - u % m_cap, built)
                    for u in range(unknowns)
                ]
                for row in batch:
                    for u in row:
                        row[u] *= times[u]
                    content = math.gcd(*row.values())
                    if content > 1:
                        for u in row:
                            row[u] //= content
        extend(echelon, batch, unknowns)
        yield built, W.size * built - len(echelon), mode


def _float_dims(W: AssembledWeb, point, m_start: int, m_cap: int, mode: Mode):
    """Yield (order, kernel dimension, mode used) for orders m_start..m_cap,
    each order built and ranked on its own through linalg.ranks, which
    escalates the precision from `mode` on marginal pivots; raises
    EstimateInconclusive when they persist.

    The order-(m_start + 1) system is ranked first, then order m_start
    from the precision that order was decided at; both are yielded in
    order, and every later order is ranked from `mode`.
    """

    def ranked(order: int, start: Mode):
        outcome = linalg.ranks(
            lambda current: [_relation_rows(W, point, order, current, order)], start
        )
        if outcome is None:
            raise EstimateInconclusive(
                f"marginal pivots persist at order {order} up to "
                f"{ESCALATION_LIMIT}-bit precision"
            )
        [(rank, _)], used = outcome
        return order, W.size * order - rank, used

    top = ranked(m_start + 1, mode)
    yield ranked(m_start, top[2])
    yield top
    for order in range(m_start + 2, m_cap + 1):
        yield ranked(order, mode)


def rank_estimate(
    W: AssembledWeb, point, m_start: int, m_cap: int, mode: Mode
) -> RankEstimate:
    """Kernel dimensions for orders m_start..m_cap until two agree.

    The stabilized dimension is reported as the web's rank at this point; if
    the cap is reached without stabilization the estimate is inconclusive
    (value None) and the dims trace is still returned for audit.
    Stabilizing takes two orders, so m_cap must exceed m_start.  Exact and
    modular mode grow one echelon per point (_exact_dims), float mode builds
    and ranks each order on its own (_float_dims), order m_start + 1 before
    order m_start.  Either builds a higher order only when the orders below
    it have not stabilized.  In modular mode a ModulusError reaches the
    caller (check_rank falls back).
    """
    if m_start < 1 or m_cap <= m_start:
        raise ValueError(f"need 1 <= m_start < m_cap, got {m_start}..{m_cap}")
    dims_of = _float_dims if mode.is_float else _exact_dims
    dims: dict[int, int] = {}
    method = mode.label()
    try:
        for order, dim, used in dims_of(W, point, m_start, m_cap, mode):
            method = used.label()
            dims[order] = dim
            if dims.get(order - 1) == dim:
                return RankEstimate(
                    dims=dims, stabilized_at=order - 1, value=dim, method=method
                )
    except EstimateInconclusive as err:
        return RankEstimate(
            dims=dims, stabilized_at=None, value=None, method=method, note=str(err)
        )
    return RankEstimate(
        dims=dims,
        stabilized_at=None,
        value=None,
        method=method,
        note=f"no stabilization up to order {m_cap}",
    )


# ---------------------------------------------------------------------------
# the finite verification pipeline

def generic_point_for_web(points):
    """The next of a dimension's expanded points (ordinary.PointSearch) at
    which J_k0 is invertible and no two gradients are proportional; None
    when the search is exhausted."""
    return next((p for p in points if p.ordinary and not p.pairs), None)


class RankCheck:
    """A rank estimate at sampled ordinary points against an expected value.

    point, jet_rank (its J_k0 rank) and estimate belong to the deciding
    point (the last one estimated; None when no ordinary point was found);
    mismatches records every point whose stabilized value differed from
    the expected one.
    """

    def __init__(
        self,
        verdict: str,
        point: tuple | None,
        jet_rank: int | None,
        estimate: RankEstimate | None,
        mismatches: list[dict],
    ) -> None:
        self.verdict = verdict
        self.point = point
        self.jet_rank = jet_rank
        self.estimate = estimate
        self.mismatches = mismatches

    def record(self) -> dict:
        """The report keys of a check that found an ordinary point (rank
        --format json and each verify_max_rank dimension print them)."""
        estimate = self.estimate
        record = {
            "value": estimate.value,
            "dims_trace": dict(sorted(estimate.dims.items())),
            "stabilized_at": estimate.stabilized_at,
            "method": estimate.method,
            "point": [str(c) for c in self.point],
            "jet_rank_k0": self.jet_rank,
            "note": estimate.note,
            "verdict": self.verdict,
        }
        if self.mismatches:
            record["mismatch_points"] = self.mismatches
        return record


def check_rank(
    E: BalancedSet,
    n: int,
    sampler,
    m_start: int,
    m_cap: int,
    mode: Mode,
    expected: int,
) -> RankCheck:
    """Compare the rank estimate of E's assembled web in dimension n at a
    sampled ordinary point with `expected`.

    The points are those of the dimension's search
    (GenericPointSampler.search), which the web condition and the direct
    check read as well; the estimate is made only at points whose J_k0 is
    invertible and whose gradients are pairwise non-proportional
    (generic_point_for_web), where the dims are at most pi (the module
    docstring).  The verdict follows report.confirm over those points.
    The relation rows are rational in the point, so their rank can drop,
    and the estimate rise, on a thin set only.  Two departures: an
    estimate that does not stabilize stops the check as "inconclusive",
    and when the search runs dry after mismatches the last mismatch's note
    says so.  A modular check that meets a ModulusError runs again on the
    search turned to float mode (PointSearch.confirm).
    """
    search = sampler.search(E, n, mode)
    W, k0 = search.W, E.k0
    last = [None, None, None]  # point, J_k0 rank and estimate of the last one

    def outcomes(points):
        last[:] = None, None, None
        while (expanded := generic_point_for_web(points)) is not None:
            estimate = rank_estimate(W, expanded.point, m_start, m_cap, search.mode)
            last[:] = expanded.point, expanded.ranks[k0], estimate
            if estimate.value is None:
                return  # not stabilized: stop as inconclusive
            yield estimate.value == expected, {
                "point": [str(c) for c in expanded.point],
                "jet_rank_k0": expanded.ranks[k0],
                "value": estimate.value,
                "dims_trace": dict(sorted(estimate.dims.items())),
            }

    (verdict, mismatches, _), _ = search.confirm(outcomes)
    point, jet_rank, estimate = last
    if verdict == INCONCLUSIVE and mismatches and estimate.value is not None:
        estimate = RankEstimate(
            estimate.dims,
            estimate.stabilized_at,
            estimate.value,
            estimate.method,
            note=f"no ordinary point found after {len(mismatches)} "
            "mismatching points",
        )
    return RankCheck(verdict, point, jet_rank, estimate, mismatches)


def _fork_usable() -> bool:
    """Whether a check may run in a forked child (_Forked): os.fork exists,
    more than one CPU is usable, no other thread runs (a fork copies only
    the calling one) and no trace or profile function is set (a tracer in
    this process would not see the child's work).  Tests patch it to
    choose the path."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no sched_getaffinity on this platform
        return (os.cpu_count() or 1) > 1


class _Forked:
    """call() started in a forked child, where _fork_usable(), while the
    caller works on; a context manager.

    result() returns what call() returned or raises what it raised, sent
    pickled through a pipe.  It runs call() itself where no child runs:
    in-process, when the fork fails, and when the child left without a
    result (its outcome did not pickle, or it was killed).  The child
    always leaves by os._exit.  Leaving the with block kills a child whose
    result was not collected, as when the caller's own work raised, and
    reaps it.
    """

    def __init__(self, call) -> None:
        self.call = call
        self.pid = None
        if not _fork_usable():
            return
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if self.pid == 0:
            try:
                import pickle

                os.close(read)
                try:
                    outcome = True, call()
                except Exception as err:
                    outcome = False, err
                with os.fdopen(write, "wb") as pipe:
                    pickle.dump(outcome, pipe)
            finally:
                os._exit(0)
        os.close(write)
        self.pipe = os.fdopen(read, "rb")

    def result(self):
        if self.pid is None:
            return self.call()
        import pickle

        with self.pipe:
            sent = self.pipe.read()
        os.waitpid(self.pid, 0)
        self.pid = None
        try:
            returned, value = pickle.loads(sent)
        except Exception:  # no result, or one that does not unpickle
            return self.call()
        if returned:
            return value
        raise value

    def __enter__(self) -> "_Forked":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self.pipe.close()
            os.waitpid(self.pid, 0)
            self.pid = None


def verify_max_rank(
    E: BalancedSet,
    sampler,
    mode: Mode,
    m_cap: int | None = None,
    corroborate: bool = False,
) -> VerificationReport:
    """Rank estimates for n = 2..k0 against the calibrated maximal rank, in
    E's mode.

    When every estimate matches, the assembled webs have maximal rank in
    every dimension: each estimate is read at a point where J_k0 is
    invertible, the point the direct check certifies in that dimension
    when it reads the same search, and the empirical exact-support table is
    reported next to the counting table.  Each dimension's verdict is
    check_rank's (report.confirm over ordinary points); a dimension with
    no ordinary point is "inconclusive", and mismatching points are listed
    under "mismatch_points".
    With corroborate=True the check is repeated at n = k0 + 1 as an
    independent desk-scale corroboration.  Where os.fork and a second CPU
    exist (_fork_usable), that check runs in a forked child while n =
    2..k0 are ranked here (_Forked): its points come from a stream of its
    own that the checks below it do not read or advance
    (ordinary.PointSearch), so the child starts from the state the serial
    loop would reach it in.  The report, and any exception, are the same
    either way; the wall time falls, the CPU time does not.
    """
    k0 = E.k0
    m_start = k0 + 1
    cap = m_cap if m_cap is not None else k0 + 5

    def check_at(n: int) -> RankCheck:
        expected = calibrated_max_rank(n, k0)
        return check_rank(E, n, sampler, m_start, cap, mode, expected)

    with (
        _Forked(lambda: check_at(k0 + 1)) if corroborate else contextlib.nullcontext()
    ) as corroboration:
        checks = {n: check_at(n) for n in range(2, k0 + 1)}
        if corroborate:
            checks[k0 + 1] = corroboration.result()
    per_n = []
    verdicts = []
    estimates_low: dict[int, RankEstimate] = {}
    for n, check in checks.items():
        expected = calibrated_max_rank(n, k0)
        estimate = check.estimate
        if estimate is None:
            per_n.append(
                {
                    "n": n,
                    "expected": expected,
                    "verdict": INCONCLUSIVE,
                    "reason": "no ordinary point found",
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
