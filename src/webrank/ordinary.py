"""Rank engines and ordinariness certifiers.

Two independent routes decide whether the assembled webs of a balanced set
are ordinary:

* the finite criterion: the square diagonal block of every generating web is
  invertible (one small determinant per arity);
* the direct check: in a given dimension, every jet matrix of order <= k0 of
  the assembled web reaches the maximal rank min(size, monomial_count(n, h)).

Verdicts are point certificates under report.confirm: a "true" is witnessed
at an explicit sampled point, and a rank that degenerates on a thin set must
repeat before it is "false".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

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
from .scalars import DEFAULT_PRECISION, Mode
from .web import AssembledWeb, BalancedSet, assemble, web_gradients


@dataclass
class GenericPointSampler:
    """Seeded source of rational sample points.

    Components are rationals in [LOW, HIGH] with denominators up to
    MAX_DENOMINATOR; identical seeds give identical point sequences.
    """

    seed: int
    LOW: ClassVar[int] = -3
    HIGH: ClassVar[int] = 3
    MAX_DENOMINATOR: ClassVar[int] = 64
    MAX_RETRIES: ClassVar[int] = 32

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

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
        verdict, singular, witness = confirm(
            _block_outcomes(web, E.k0, size, sampler.points(k), mode)
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
    """(invertible, witness) of the square generating block at each point.

    Points where an integral is undefined are skipped, and so are, in float
    mode, points whose pivots stay marginal at every precision.
    """
    for point in points:
        coords = [str(c) for c in point]
        try:
            if mode.is_exact:
                det = linalg.exact_det(square_block(web, k0, point, mode))
                outcome = det != 0, {"point": coords, "det": str(det)}
            else:
                ranks = linalg.ranks(
                    lambda m: [(square_block(web, k0, point, m), size)], mode
                )
                if ranks is None:
                    continue
                [(rank, info)], used = ranks
                outcome = rank == size, {
                    "point": coords,
                    "rank": rank,
                    "precision": used.precision,
                    **info["certificate"],
                }
        except EvalError:
            continue
        yield outcome


# ---------------------------------------------------------------------------
# the direct check

def _jet_systems(W: AssembledWeb, point, k0: int, mode: Mode):
    """The jet matrices of order 1..k0 at one point, as linalg.ranks takes
    them, built on web_gradients' int gradients.

    Exact mode ranks them as they are: they are column-scaled and have the
    ranks of the rational ones.  Float mode ranks the degree-h matrix as
    FixedRows at h times the gradients' unit.
    """
    gradients, unit = web_gradients(W, point, mode)
    matrices = jet_matrix_from_gradients(W.n, k0, gradients)
    for h, matrix in enumerate(matrices, 1):
        yield linalg.sparse_rows(matrix, None if unit is None else h * unit)


def _ranks_at_point(W: AssembledWeb, point, mode: Mode, k0: int):
    """({h: rank}, mode used) for the jet matrices of order 1..k0 at one
    point, or None when float pivots stay marginal."""
    outcome = linalg.ranks(lambda current: _jet_systems(W, point, k0, current), mode)
    if outcome is None:
        return None
    results, used = outcome
    return {h: rank for h, (rank, _) in enumerate(results, 1)}, used


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
    "inconclusive": no single order is shown deficient.
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

    def outcomes():
        for point in sampler.points(n):
            try:
                outcome = _ranks_at_point(W, point, mode, k0)
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

    verdict, point_records, certifying = confirm(outcomes())
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
