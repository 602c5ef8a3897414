"""Rank engines and ordinariness certifiers.

Two independent routes decide whether the assembled webs of a balanced set
are ordinary:

* the finite criterion: the square diagonal block of every generating web is
  invertible (one small determinant per arity);
* the direct check: in a given dimension, every jet matrix of order <= k0 of
  the assembled web reaches the maximal rank min(size, monomial_count(n, h)).

Verdicts are point certificates.  A "true" is witnessed at an explicit
sampled point; a "false" is only reported after the failure repeats at four
sampled points (rank can degenerate on thin sets, so one bad point proves
nothing); "inconclusive" means sampling was exhausted and is never silently
promoted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .combin import calibration_order, monomial_count
from .expr import EvalError
from .jets import (
    JetMatrix,
    integer_jet_rows,
    jet_matrix_from_gradients,
    square_block,
)
from .report import (
    CONFIRMATIONS_FOR_FALSE,
    FALSE,
    INCONCLUSIVE,
    TRUE,
    VerificationReport,
    combine_verdicts,
)
from .scalars import DEFAULT_PRECISION, Mode
from .web import AssembledWeb, BalancedSet, assemble, web_gradients


@dataclass(frozen=True)
class RankResult:
    """Rank with its certificate: pivot positions (exact) or pivot gaps (float)."""

    rank: int
    method: str
    certificate: dict
    marginal: bool = False


def matrix_rank(M: JetMatrix) -> RankResult:
    """Rank of a jet matrix in its own scalar mode."""
    if M.mode.is_exact:
        rank, pivots = linalg.exact_rank(M.entries)
        certificate = {"pivots": [list(p) for p in pivots]}
        return RankResult(rank=rank, method="exact", certificate=certificate)
    rank, info = linalg.float_rank(M.entries, M.mode.precision)
    return RankResult(
        rank=rank,
        method=M.mode.label(),
        certificate=info["certificate"],
        marginal=info["marginal"],
    )


@dataclass
class GenericPointSampler:
    """Seeded source of rational sample points.

    Components are rationals in [low, high] with denominators up to
    max_denominator; identical seeds give identical point sequences.
    """

    seed: int
    low: int = -3
    high: int = 3
    max_denominator: int = 64
    max_retries: int = 32

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def point(self, n: int) -> tuple[Fraction, ...]:
        coords = []
        for _ in range(n):
            den = self._rng.randint(1, self.max_denominator)
            num = self._rng.randint(self.low * den, self.high * den)
            coords.append(Fraction(num, den))
        return tuple(coords)

    def spawn(self, salt: int) -> "GenericPointSampler":
        """Independent sampler with a seed derived deterministically from ours."""
        return GenericPointSampler(
            seed=self.seed * 1_000_003 + salt + 1,
            low=self.low,
            high=self.high,
            max_denominator=self.max_denominator,
            max_retries=self.max_retries,
        )


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
        verdict = INCONCLUSIVE
        record: dict = {"k": k, "size": size}
        singular_seen = 0
        for _ in range(sampler.max_retries):
            point = sampler.point(k)
            try:
                if mode.is_exact:
                    block = square_block(web, E.k0, point, mode)
                    det = linalg.exact_det(block.entries)
                    invertible = det != 0
                    witness = {"point": [str(c) for c in point], "det": str(det)}
                else:
                    outcome = linalg.escalating_float_ranks(
                        lambda m: [square_block(web, E.k0, point, m).entries], mode
                    )
                    if outcome is None:
                        continue  # persistently marginal: try a fresh point
                    [(rank, info)], used = outcome
                    invertible = rank == size
                    witness = {
                        "point": [str(c) for c in point],
                        "rank": rank,
                        "precision": used.precision,
                        **info["certificate"],
                    }
            except EvalError:
                continue
            if invertible:
                verdict = TRUE
                record["witness"] = witness
                break
            singular_seen += 1
            record.setdefault("singular_witnesses", []).append(witness)
            if singular_seen >= CONFIRMATIONS_FOR_FALSE:
                verdict = FALSE
                break
        record["verdict"] = verdict
        checks.append(record)
        verdicts.append(verdict)
    return VerificationReport(
        name="finite_criterion",
        verdict=combine_verdicts(verdicts),
        checks=checks,
        witnesses={"seed": sampler.seed, "mode": mode.label()},
    )


# ---------------------------------------------------------------------------
# the direct check

def _ranks_at_point(W: AssembledWeb, point, mode: Mode, k0: int):
    """({h: rank}, mode used) for the jet matrices of order 1..k0 at one
    point, or None when float pivots stay marginal.

    Exact mode ranks the column-scaled integer matrices of integer_jet_rows,
    which have the ranks of the rational ones.
    """
    if mode.is_exact:
        matrices, _ = integer_jet_rows(W.n, k0, web_gradients(W, point, mode))
        ranks = {h: linalg.exact_rank(rows)[0] for h, rows in enumerate(matrices, 1)}
        return ranks, mode
    labels = [entry.label for entry in W.entries]

    def build(current: Mode):
        gradients = web_gradients(W, point, current)
        for h in range(1, k0 + 1):
            yield jet_matrix_from_gradients(W.n, h, gradients, labels, current).entries

    outcome = linalg.escalating_float_ranks(build, mode)
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
    min(size, monomial_count(n, h)) at a sampled point.  A single point
    certifying all orders yields "true"; a deficiency must survive four
    sampled points to yield "false".
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

    point_records = []
    best_rank = {h: -1 for h in range(1, k0 + 1)}
    valid_points = 0
    verdict = INCONCLUSIVE
    certifying = None
    for _ in range(sampler.max_retries):
        point = sampler.point(n)
        try:
            outcome = _ranks_at_point(W, point, mode, k0)
        except EvalError:
            continue
        if outcome is None:
            continue
        ranks, used_mode = outcome
        valid_points += 1
        point_records.append(
            {
                "point": [str(c) for c in point],
                "ranks": ranks,
                "mode": used_mode.label(),
            }
        )
        for h, rank in ranks.items():
            best_rank[h] = max(best_rank[h], rank)
        if all(ranks[h] == expected[h] for h in expected):
            verdict = TRUE
            certifying = point_records[-1]
            break
        if valid_points >= CONFIRMATIONS_FOR_FALSE:
            deficient = [h for h in expected if best_rank[h] < expected[h]]
            if deficient:
                verdict = FALSE
            break
    def order_verdict(h: int) -> str:
        if best_rank[h] == expected[h]:
            return TRUE
        if verdict == FALSE and 0 <= best_rank[h] < expected[h]:
            return FALSE
        return INCONCLUSIVE

    checks = [
        {
            "h": h,
            "expected": expected[h],
            "best_rank": best_rank[h],
            "verdict": order_verdict(h),
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

def crosscheck_ordinary(
    E: BalancedSet,
    n_list: list[int],
    sampler: GenericPointSampler,
    precision: int = DEFAULT_PRECISION,
    rounds: int = 3,
) -> VerificationReport:
    """Agreement of the finite criterion with the direct check at each n.

    Inconclusive samples trigger a retry with a fresh derived seed, at most
    `rounds` times; the verdict is "true" exactly when both routes agree (in
    either direction) for every requested dimension.
    """
    attempts = []
    for round_index in range(rounds):
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
            "reason": f"inconclusive after {rounds} rounds",
        },
    )
