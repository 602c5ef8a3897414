"""Rank engines, the point search of each dimension, and ordinariness
certifiers.

Two independent routes decide whether the assembled webs of a balanced set
are ordinary:

* the finite criterion: the square diagonal block of every generating web is
  invertible (one small determinant per arity);
* the direct check: in a given dimension, every jet matrix of order <= k0 of
  the assembled web reaches the maximal rank min(size, monomial_count(n, h)),
  which an order-k0 jet matrix of full row rank decides for all of them
  (jet_ranks_at_point).

Each dimension n has one point search (GenericPointSampler.search), drawn
from a stream of its own, seeded by the run's seed and n alone.  Each of its
points is expanded once (expand_point): one web_gradients pass, the jet
ranks on those gradients and, where they do not prove it, the
proportionality screen.  The web condition (web.validate_balanced), the
direct check and the rank estimate (abelrank.check_rank) all read these
expanded points, so the estimate is read at a point whose J_k0 the direct
check certified invertible.  The finite criterion draws its own points.

Verdicts are point certificates under report.confirm: a "true" is witnessed
at an explicit sampled point, and a rank that degenerates on a thin set must
repeat before it is "false".  A full rank mod q is a full rank at the
point (scalars), so a modular "true" is a certificate too.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import linalg
from .combin import calibration_order, monomial_count
from .expr import EvalError
from .jets import jet_matrix_from_gradients, square_block
from .report import (
    FALSE,
    INCONCLUSIVE,
    TRUE,
    VerificationReport,
    combine_verdicts,
    confirm,
)
from .scalars import Mode, with_float_fallback
from .web import (
    AssembledWeb,
    BalancedSet,
    assemble,
    proportional_pairs,
    web_gradients,
)


class GenericPointSampler:
    """Seeded source of rational sample points.

    Components are rationals in [LOW, HIGH] with denominators up to
    MAX_DENOMINATOR; identical seeds give identical point sequences.  The
    finite criterion and the quasi-symmetry test draw from the sampler
    itself, and a modular one of them that falls back to float mode
    (scalars.with_float_fallback) draws the same points again (rewinder);
    the web condition, the direct check and the rank check read the point
    search of their dimension (search).
    """

    LOW = -3
    HIGH = 3
    MAX_DENOMINATOR = 64
    MAX_RETRIES = 32

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._searches: dict = {}

    def point(self, n: int) -> tuple[Fraction, ...]:
        coords = []
        for _ in range(n):
            den = self._rng.randint(1, self.MAX_DENOMINATOR)
            num = self._rng.randint(self.LOW * den, self.HIGH * den)
            coords.append(Fraction(num, den))
        return tuple(coords)

    def points(self, n: int):
        """The MAX_RETRIES points of one search in n-space, drawn lazily."""
        for _ in range(self.MAX_RETRIES):
            yield self.point(n)

    def rewinder(self):
        """A callable that puts the sampler back in its present state."""
        state = self._rng.getstate()
        return lambda: self._rng.setstate(state)

    def spawn(self, salt: int) -> "GenericPointSampler":
        """Independent sampler with a seed derived deterministically from ours."""
        return GenericPointSampler(seed=self.seed * 1_000_003 + salt + 1)

    def search(self, E: BalancedSet, n: int, mode: Mode) -> "PointSearch":
        """The point search of E's assembled web in dimension n, from our
        seed: a later call with the same set, n and mode returns the same
        search, with the points it has expanded."""
        key = n, mode.kind, mode.precision
        cached = self._searches.get(key)
        if cached is None or cached[0] is not E:
            search = PointSearch(assemble(E, n), E.k0, self.seed, mode)
            cached = self._searches[key] = E, search
        return cached[1]


class ExpandedPoint:
    """One point of a dimension's search, expanded once (expand_point).

    ranks is {h: rank of J_h} for h = 1..k0 and mode the mode they were
    decided in (jet_ranks_at_point), both None where float pivots stay
    marginal; ordinary says that J_k0 is invertible.  pairs lists the
    index pairs of proportional gradients and zero says whether a gradient
    vanishes.  Where an entry is undefined, ranks and pairs are None.
    """

    __slots__ = ("point", "ranks", "mode", "ordinary", "pairs", "zero")

    def __init__(self, point, ranks, mode, ordinary, pairs, zero) -> None:
        self.point = point
        self.ranks = ranks
        self.mode = mode
        self.ordinary = ordinary
        self.pairs = pairs
        self.zero = zero


def expand_point(W: AssembledWeb, point, mode: Mode, k0: int) -> ExpandedPoint:
    """W's gradients at point (one web_gradients pass), the jet ranks on
    them (jet_ranks_at_point) and the proportional pairs.

    In exact and modular mode an invertible J_k0 proves that no two
    gradients are proportional, since proportional l_i, l_j give dependent
    columns l_i^k0, l_j^k0, and that none vanishes; proportional_pairs runs
    only where J_k0 is singular.  Float mode runs it at every point, as its
    J_k0 rank is an estimate, not a proof.  A ModulusError reaches the
    caller.
    """
    try:
        gradients = web_gradients(W, point, mode)
        outcome = jet_ranks_at_point(W, point, mode, k0, gradients)
    except EvalError:
        return ExpandedPoint(point, None, None, False, None, False)
    ranks, used = outcome or (None, None)
    ordinary = ranks is not None and ranks[k0] == W.size
    values, _ = gradients
    if ordinary and not mode.is_float:
        return ExpandedPoint(point, ranks, used, True, [], False)
    pairs = proportional_pairs(values, mode)
    zero = any(not any(g) for g in values)
    return ExpandedPoint(point, ranks, used, ordinary, pairs, zero)


class PointSearch:
    """The one point search of an assembled web's dimension.

    At most GenericPointSampler.MAX_RETRIES points, drawn lazily and each
    expanded once, on first pull, in the search's mode (expand_point).
    Every check reads the same expanded points from the first one on
    (points, confirm).  They come from a stream seeded by the string
    "<seed>/<n>", so neither the order of the checks nor the points other
    dimensions use can move them, and no spawn() stream, whose seeds are
    ints, is one of them.
    """

    def __init__(self, W: AssembledWeb, k0: int, seed: int, mode: Mode) -> None:
        self.W = W
        self.k0 = k0
        self.mode = mode
        self._seed = f"{seed}/{W.n}"
        self._restart()

    def _restart(self) -> None:
        self._draws = GenericPointSampler(self._seed).points(self.W.n)
        self._expanded: list[ExpandedPoint] = []

    def points(self):
        """Yield the expanded points in stream order, expanding each new
        point as it is pulled; nothing is drawn past the last one pulled."""
        i = 0
        while True:
            if i == len(self._expanded):
                point = next(self._draws, None)
                if point is None:
                    return
                self._expanded.append(expand_point(self.W, point, self.mode, self.k0))
            yield self._expanded[i]
            i += 1

    def confirm(self, outcomes):
        """(report.confirm(outcomes(self.points())), mode read).

        A modular check that meets a ModulusError, in an expansion or in
        the check itself, turns the whole search to float mode
        (scalars.with_float_fallback): the stream is drawn again from its
        start and expanded at the same precision, and the check runs again
        on it.  Later checks read the float points.
        """

        def run(mode: Mode):
            self.mode = mode
            return confirm(outcomes(self.points())), mode

        return with_float_fallback(run, self.mode, self._restart)


# ---------------------------------------------------------------------------
# the finite criterion

def check_finite_criterion(
    E: BalancedSet, sampler: GenericPointSampler, mode: Mode
) -> VerificationReport:
    """Invertibility of the square generating block for every arity 1..k0,
    in E's mode.

    Certifying all k0 blocks certifies that every assembled web of E, in
    every dimension, is ordinary.  A modular block check that meets a
    ModulusError runs again in float mode from the same sampler state, and
    its record names the mode that decided it under "mode"; the witnesses'
    "mode" is the one the checks were given.
    """
    checks = []
    verdicts = []
    for k in range(1, E.k0 + 1):
        web = E.generating_web(k)
        size = monomial_count(k, E.k0 - k)
        (verdict, singular, witness), used = with_float_fallback(
            lambda current: (
                confirm(_block_outcomes(web, E.k0, size, sampler.points(k), current)),
                current,
            ),
            mode,
            sampler.rewinder(),
        )
        record: dict = {"k": k, "size": size}
        if used.kind != mode.kind:
            record["mode"] = used.label()
        if singular:
            record["singular_witnesses"] = singular
        if verdict == TRUE:
            record["witness"] = witness
        record["verdict"] = verdict
        checks.append(record)
        verdicts.append(verdict)
    return VerificationReport(
        name="finite_criterion",
        verdict=combine_verdicts(verdicts),
        checks=checks,
        witnesses={"seed": sampler.seed, "mode": mode.label()},
    )


def _block_outcomes(web, k0: int, size: int, points, mode: Mode):
    """(invertible, witness) of the square generating block at each point:
    its determinant in exact mode, else its rank (and, in float mode, its
    precision and pivot certificate).

    Points where an integral is undefined are skipped, and so are, in float
    mode, points whose pivots stay marginal at every precision.
    """
    for point in points:
        coords = [str(c) for c in point]
        try:
            if mode.is_exact:
                rows, scales = square_block(web, k0, point, mode)
                det = Fraction(linalg.exact_det(rows), math.prod(scales))
                outcome = det != 0, {"point": coords, "det": str(det)}
            else:
                ranks = linalg.ranks(
                    lambda m: [square_block(web, k0, point, m)], mode
                )
                if ranks is None:
                    continue
                [(rank, info)], used = ranks
                witness = {"point": coords, "rank": rank}
                if used.is_float:
                    witness["precision"] = used.precision
                    witness.update(linalg.float_certificate(info))
                outcome = rank == size, witness
        except EvalError:
            continue
        yield outcome


# ---------------------------------------------------------------------------
# the direct check

def jet_ranks_at_point(W: AssembledWeb, point, mode: Mode, k0: int, gradients):
    """({h: rank}, mode used) for the jet matrices J_1..J_k0 at one point,
    or None when float pivots stay marginal.

    gradients is web_gradients(W, point, mode); the jet matrices are built
    from it once.  Exact mode ranks them as they are: they are
    column-scaled and have the ranks of the rational ones.  Modular mode
    ranks them mod q.  Float mode ranks the degree-h matrix at h times the
    gradients' unit in every column, and a precision it escalates to builds
    them again from the gradients at that precision.

    J_k0 is ranked first, through linalg.ranks from `mode`.  When it has
    full row rank, monomial_count(n, k0), every J_h with h <= k0 has full
    row rank: x_j times a left-kernel vector of J_(h-1) (a polynomial of
    degree h - 1 vanishing at every gradient) is one of J_h.  So the ranks
    are min(size, monomial_count(n, h)) in J_k0's mode and no other matrix
    is converted or ranked.  Otherwise the orders below k0 are ranked
    through linalg.ranks from J_k0's mode on, and J_k0 keeps its rank; the
    mode used is the higher of the two.

    When J_k0 has full column rank W.size, so has every J_h with h >= k0,
    by induction on h: a relation sum_i c_i l_i^h = 0 among the h-th
    powers of the gradients' linear forms l_i differentiates in x_j to
    sum_i c_i g_ij l_i^(h-1) = 0, so c_i g_ij = 0 for every j, and no
    gradient vanishes.  A calibrated web, W.size = monomial_count(n, k0),
    has both at once when J_k0 is invertible, that is when ranks[k0] is
    W.size; the direct check reads the lower orders off that one rank, and
    the bound on the relation dims in abelrank's module docstring rests on
    the higher ones.
    """
    built = [None]  # (mode, jet matrices, unit) of the last build

    def systems(current: Mode, orders):
        if built[0] is None or built[0][0] is not current:
            values, unit = (
                gradients if current is mode else web_gradients(W, point, current)
            )
            built[0] = current, jet_matrix_from_gradients(W.n, k0, values), unit
        _, matrices, unit = built[0]
        return [
            linalg.sparse_rows(matrices[h - 1], None if unit is None else h * unit)
            for h in orders
        ]

    outcome = linalg.ranks(lambda current: systems(current, [k0]), mode)
    if outcome is None:
        return None
    [(rank, _)], used = outcome
    if rank == monomial_count(W.n, k0):
        ranks = {h: min(W.size, monomial_count(W.n, h)) for h in range(1, k0 + 1)}
        return ranks, used
    outcome = linalg.ranks(lambda current: systems(current, range(1, k0)), used)
    if outcome is None:
        return None
    results, used = outcome
    ranks = {h: r for h, (r, _) in enumerate(results, 1)}
    ranks[k0] = rank
    return ranks, used


def check_ordinary_at(
    E: BalancedSet, n: int, sampler: GenericPointSampler, mode: Mode
) -> VerificationReport:
    """Direct ordinariness check of the assembled web in dimension n, in
    E's mode.

    Every jet matrix of order h <= k0 must reach rank
    min(size, monomial_count(n, h)) at a sampled point; the verdict follows
    report.confirm over the sampled points, except that a "false" with every
    order at its rank at some point (never all at one point) is
    "inconclusive": no single order is shown deficient.  It reads the
    jet ranks of the dimension's point search (GenericPointSampler.search),
    skipping points where an entry is undefined or float pivots stay
    marginal.
    """
    if n < 2:
        raise ValueError(f"direct check needs n >= 2, got {n}")
    search = sampler.search(E, n, mode)
    d = search.W.size
    k0 = E.k0
    if calibration_order(n, d) != k0:
        raise AssertionError("assembled web size is not calibrated to k0")
    expected = {h: min(d, monomial_count(n, h)) for h in range(1, k0 + 1)}

    def outcomes(points):
        for expanded in points:
            if expanded.ranks is None:
                continue
            record = {
                "point": [str(c) for c in expanded.point],
                "ranks": expanded.ranks,
                "mode": expanded.mode.label(),
            }
            yield expanded.ranks == expected, record

    (verdict, point_records, certifying), mode = search.confirm(outcomes)
    if verdict == TRUE:
        point_records.append(certifying)
    else:
        certifying = None
    best_rank = {
        h: max((r["ranks"][h] for r in point_records), default=-1) for h in expected
    }
    if verdict == FALSE and best_rank == expected:
        verdict = INCONCLUSIVE

    # An order below its rank shares the overall verdict, "false" or
    # "inconclusive"; a "true" has every order at its rank.
    checks = [
        {
            "h": h,
            "expected": expected[h],
            "best_rank": best_rank[h],
            "verdict": TRUE if best_rank[h] == expected[h] else verdict,
        }
        for h in expected
    ]
    return VerificationReport(
        name="ordinary_direct",
        verdict=verdict,
        checks=checks,
        witnesses={
            "n": n,
            "size": d,
            "seed": sampler.seed,
            "mode": mode.label(),
            "points": point_records,
            "certifying_point": certifying,
        },
    )


# ---------------------------------------------------------------------------
# crosscheck of the two routes

CROSSCHECK_ROUNDS = 3


def crosscheck_ordinary(
    E: BalancedSet, n_list: list[int], sampler: GenericPointSampler, mode: Mode
) -> VerificationReport:
    """Agreement of the finite criterion with the direct check at each n.

    Inconclusive samples trigger a retry with a fresh derived seed, at most
    CROSSCHECK_ROUNDS times; the verdict is "true" exactly when both routes agree (in
    either direction) for every requested dimension.
    """
    attempts = []
    for round_index in range(CROSSCHECK_ROUNDS):
        sub = sampler.spawn(round_index)
        criterion = check_finite_criterion(E, sub, mode)
        directs = [(n, check_ordinary_at(E, n, sub, mode)) for n in n_list]
        attempt = {
            "round": round_index,
            "seed": sub.seed,
            "finite_criterion": criterion.verdict,
            "direct": {n: r.verdict for n, r in directs},
        }
        attempts.append(attempt)
        if criterion.verdict == INCONCLUSIVE or any(
            r.verdict == INCONCLUSIVE for _, r in directs
        ):
            continue
        agree = all(r.verdict == criterion.verdict for _, r in directs)
        return VerificationReport(
            name="crosscheck_ordinary",
            verdict=TRUE if agree else FALSE,
            checks=attempts,
            witnesses={"n_list": n_list, "seed": sampler.seed},
        )
    return VerificationReport(
        name="crosscheck_ordinary",
        verdict=INCONCLUSIVE,
        checks=attempts,
        witnesses={
            "n_list": n_list,
            "seed": sampler.seed,
            "reason": f"inconclusive after {CROSSCHECK_ROUNDS} rounds",
        },
    )
