"""Rank engines and ordinariness certifiers.

Two independent routes decide whether the assembled webs of a balanced set
are ordinary:

* the finite criterion: the square diagonal block of every generating web is
  invertible (one small determinant per arity);
* the direct check: in a given dimension, every jet matrix of order <= k0 of
  the assembled web reaches the maximal rank min(size, monomial_count(n, h)),
  which an order-k0 jet matrix of full row rank decides for all of them
  (jet_ranks_at_point, which the float rank estimate also asks whether
  that matrix is invertible).

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
from .scalars import DEFAULT_PRECISION, Mode, ModulusError
from .web import AssembledWeb, BalancedSet, assemble, web_gradients


class GenericPointSampler:
    """Seeded source of rational sample points.

    Components are rationals in [LOW, HIGH] with denominators up to
    MAX_DENOMINATOR; identical seeds give identical point sequences.
    """

    LOW = -3
    HIGH = 3
    MAX_DENOMINATOR = 64
    MAX_RETRIES = 32

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

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

    def with_fallback(self, check, mode: Mode):
        """(check(mode), mode); if a modular check meets a ModulusError,
        (check(float mode), float mode) from the same sampler state."""
        if not mode.is_modular:
            return check(mode), mode
        state = self._rng.getstate()
        try:
            return check(mode), mode
        except ModulusError:
            self._rng.setstate(state)
            mode = Mode.floating(mode.precision)
            return check(mode), mode

    def spawn(self, salt: int) -> "GenericPointSampler":
        """Independent sampler with a seed derived deterministically from ours."""
        return GenericPointSampler(seed=self.seed * 1_000_003 + salt + 1)


# ---------------------------------------------------------------------------
# the finite criterion

def check_finite_criterion(
    E: BalancedSet, sampler: GenericPointSampler, precision: int = DEFAULT_PRECISION
) -> VerificationReport:
    """Invertibility of the square generating block for every arity 1..k0.

    Certifying all k0 blocks certifies that every assembled web of E, in
    every dimension, is ordinary.
    """
    mode = E.default_mode(precision)
    checks = []
    verdicts = []
    for k in range(1, E.k0 + 1):
        web = E.generating_web(k)
        size = monomial_count(k, E.k0 - k)
        (verdict, singular, witness), _ = sampler.with_fallback(
            lambda current: confirm(
                _block_outcomes(web, E.k0, size, sampler.points(k), current)
            ),
            mode,
        )
        record: dict = {"k": k, "size": size}
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

def _jet_systems(W: AssembledWeb, point, k0: int, mode: Mode):
    """The jet matrices of order 1..k0 at one point, as linalg.ranks takes
    them, built on web_gradients' int gradients.

    Exact mode ranks them as they are: they are column-scaled and have the
    ranks of the rational ones.  Modular mode ranks them mod q.  Float mode
    ranks the degree-h matrix at h times the gradients' unit in every
    column.
    """
    gradients, unit = web_gradients(W, point, mode)
    matrices = jet_matrix_from_gradients(W.n, k0, gradients)
    for h, matrix in enumerate(matrices, 1):
        yield linalg.sparse_rows(matrix, None if unit is None else h * unit)


def jet_ranks_at_point(W: AssembledWeb, point, mode: Mode, k0: int):
    """({h: rank}, mode used) for the jet matrices J_1..J_k0 at one point,
    or None when float pivots stay marginal.

    J_k0 is ranked first, through linalg.ranks from `mode`.  When it has
    full row rank, monomial_count(n, k0), every J_h with h <= k0 has full
    row rank: x_j times a left-kernel vector of J_(h-1) (a polynomial of
    degree h - 1 vanishing at every gradient) is one of J_h.  So the ranks
    are min(size, monomial_count(n, h)) in J_k0's mode and no other matrix
    is ranked.  Otherwise the orders below k0 are built and ranked afresh
    through linalg.ranks from J_k0's mode on, and J_k0 keeps its rank; the
    mode used is the higher of the two.

    When J_k0 has full column rank W.size, so has every J_h with h >= k0,
    by induction on h: a relation sum_i c_i l_i^h = 0 among the h-th
    powers of the gradients' linear forms l_i differentiates in x_j to
    sum_i c_i g_ij l_i^(h-1) = 0, so c_i g_ij = 0 for every j, and no
    gradient vanishes.  A calibrated web, W.size = monomial_count(n, k0),
    has both at once when J_k0 is invertible, that is when ranks[k0] is
    W.size; the direct check reads the lower orders off that one rank, and
    the float rank estimate (abelrank._float_dims) the higher ones.
    """
    outcome = linalg.ranks(
        lambda current: list(_jet_systems(W, point, k0, current))[-1:], mode
    )
    if outcome is None:
        return None
    [(rank, _)], used = outcome
    if rank == monomial_count(W.n, k0):
        ranks = {h: min(W.size, monomial_count(W.n, h)) for h in range(1, k0 + 1)}
        return ranks, used
    outcome = linalg.ranks(
        lambda current: list(_jet_systems(W, point, k0, current))[:-1], used
    )
    if outcome is None:
        return None
    results, used = outcome
    ranks = {h: r for h, (r, _) in enumerate(results, 1)}
    ranks[k0] = rank
    return ranks, used


def check_ordinary_at(
    E: BalancedSet,
    n: int,
    sampler: GenericPointSampler,
    precision: int = DEFAULT_PRECISION,
) -> VerificationReport:
    """Direct ordinariness check of the assembled web in dimension n.

    Every jet matrix of order h <= k0 must reach rank
    min(size, monomial_count(n, h)) at a sampled point; the verdict follows
    report.confirm over the sampled points, except that a "false" with every
    order at its rank at some point (never all at one point) is
    "inconclusive": no single order is shown deficient.  At each point
    jet_ranks_at_point ranks J_k0 first: at full row rank the lower orders
    have theirs too and are not ranked, otherwise they are ranked in J_k0's
    mode or above.
    """
    if n < 2:
        raise ValueError(f"direct check needs n >= 2, got {n}")
    W = assemble(E, n)
    d = W.size
    k0 = E.k0
    if calibration_order(n, d) != k0:
        raise AssertionError("assembled web size is not calibrated to k0")
    mode = E.default_mode(precision)
    expected = {h: min(d, monomial_count(n, h)) for h in range(1, k0 + 1)}

    def outcomes(mode):
        for point in sampler.points(n):
            try:
                outcome = jet_ranks_at_point(W, point, mode, k0)
            except EvalError:
                continue
            if outcome is None:
                continue
            ranks, used_mode = outcome
            record = {
                "point": [str(c) for c in point],
                "ranks": ranks,
                "mode": used_mode.label(),
            }
            yield ranks == expected, record

    (verdict, point_records, certifying), mode = sampler.with_fallback(
        lambda current: confirm(outcomes(current)), mode
    )
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
    E: BalancedSet,
    n_list: list[int],
    sampler: GenericPointSampler,
    precision: int = DEFAULT_PRECISION,
) -> VerificationReport:
    """Agreement of the finite criterion with the direct check at each n.

    Inconclusive samples trigger a retry with a fresh derived seed, at most
    CROSSCHECK_ROUNDS times; the verdict is "true" exactly when both routes agree (in
    either direction) for every requested dimension.
    """
    attempts = []
    for round_index in range(CROSSCHECK_ROUNDS):
        sub = sampler.spawn(round_index)
        criterion = check_finite_criterion(E, sub, precision)
        directs = [(n, check_ordinary_at(E, n, sub, precision)) for n in n_list]
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
