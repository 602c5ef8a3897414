"""Verification reports: verdicts plus the witnesses needed to re-check them."""

from __future__ import annotations

from fractions import Fraction

from .scalars import scalar_to_str

TRUE = "true"
FALSE = "false"
INCONCLUSIVE = "inconclusive"

CONFIRMATIONS_FOR_FALSE = 4  # first failure plus three confirmations

_EXIT_CODES = {TRUE: 0, FALSE: 1, INCONCLUSIVE: 2}


def exit_code(verdict: str) -> int:
    """Process exit code of a verdict: 0 true, 1 false, 2 inconclusive."""
    return _EXIT_CODES[verdict]


def confirm(outcomes) -> tuple[str, list, object]:
    """The three-valued verdict of a sampled check: (verdict, failing, deciding).

    `outcomes` yields (passed, witness) pairs, one per sampled point, and is
    consumed lazily.  "true" at the first passing pair: one point certifies.
    A check can fail on a thin set only, so "false" needs
    CONFIRMATIONS_FOR_FALSE failing pairs.  "inconclusive" when the pairs
    run out first; it is reported, never promoted.  `failing` lists the
    witnesses of the failing pairs and `deciding` is the witness of the pair
    that decided (None when inconclusive).  No pair is pulled after the
    deciding one: each point is drawn and expanded on first pull, and the
    finite criterion's draws share one sampler across its arities.
    """
    failing = []
    for passed, witness in outcomes:
        if passed:
            return TRUE, failing, witness
        failing.append(witness)
        if len(failing) == CONFIRMATIONS_FOR_FALSE:
            return FALSE, failing, witness
    return INCONCLUSIVE, failing, None


def combine_verdicts(verdicts) -> str:
    """false dominates, then inconclusive; true only if everything is true."""
    verdicts = list(verdicts)
    if any(v == FALSE for v in verdicts):
        return FALSE
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE
    return TRUE


class VerificationReport:
    """Outcome of one check: a verdict, per-item records, and shared witnesses."""

    def __init__(
        self,
        name: str,
        verdict: str,
        checks: list[dict] | None = None,
        witnesses: dict | None = None,
        config: dict | None = None,
    ) -> None:
        self.name = name
        self.verdict = verdict
        self.checks = [] if checks is None else checks
        self.witnesses = {} if witnesses is None else witnesses
        self.config = config

    def exit_code(self) -> int:
        return exit_code(self.verdict)

    def to_jsonable(self) -> dict:
        out = {
            "name": self.name,
            "verdict": self.verdict,
            "checks": jsonable(self.checks),
            "witnesses": jsonable(self.witnesses),
        }
        if self.config is not None:
            out["config"] = jsonable(self.config)
        return out


def jsonable(value):
    """Recursively convert report payloads to JSON-safe primitives.

    Fractions and mpf scalars become strings so nothing is rounded silently.
    """
    if isinstance(value, VerificationReport):
        return value.to_jsonable()
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return scalar_to_str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return scalar_to_str(value)


def _key(key) -> str:
    if isinstance(key, tuple):
        return ",".join(str(part) for part in key)
    return str(key)
