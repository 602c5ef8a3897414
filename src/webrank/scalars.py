"""Scalar models shared by the whole toolkit.

Two models: exact rationals (fractions.Fraction over Python big ints) and
arbitrary-precision binary floats (mpmath, configurable mantissa).  Exact is
the default wherever the inputs are free of exp/log.  Float mode leaves mpf
after the Taylor series: its relation rows, rank kernel and proportionality
minors run on ints in fixed point, an int v standing for v * 2^unit
(mpf_ints, shifted).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

DEFAULT_PRECISION = 128
ESCALATION_LIMIT = 512  # highest precision a marginal float rank escalates to


@dataclass(frozen=True)
class Mode:
    """Scalar model selector: kind is "exact" or "float" (with mantissa bits)."""

    kind: str
    precision: int = 0

    @staticmethod
    def exact() -> "Mode":
        return Mode("exact")

    @staticmethod
    def floating(precision: int = DEFAULT_PRECISION) -> "Mode":
        if precision < 8:
            raise ValueError(f"float precision too small: {precision}")
        return Mode("float", precision)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def label(self) -> str:
        return "exact" if self.is_exact else f"float{self.precision}"

    def workprec(self):
        """mpmath context manager for this mode's precision (float mode only)."""
        if self.is_exact:
            raise ValueError("workprec is only meaningful in float mode")
        return mpmath.workprec(self.precision)

    def escalate(self) -> "Mode":
        """Next precision level for marginal-pivot retries (doubles the mantissa)."""
        if self.is_exact:
            return self
        return Mode.floating(self.precision * 2)


EXACT = Mode.exact()


def to_scalar(value: Fraction | int, mode: Mode):
    """Convert an exact rational to the mode's scalar type."""
    if mode.is_exact:
        return value if isinstance(value, Fraction) else Fraction(value)
    with mode.workprec():
        return to_mpf(Fraction(value))


def to_mpf(value: Fraction | int):
    """An int or Fraction as an mpf at mpmath's current precision."""
    return mpmath.mpf(value.numerator) / value.denominator


def zero_tolerance(mode: Mode):
    """2^(-precision/2): float magnitudes at or below it, relative to their
    scale, count as zero."""
    return mpmath.ldexp(1, -(mode.precision // 2))


def scalar_is_zero(value, mode: Mode) -> bool:
    """Zero test: exact equality, or magnitude below 2^(-precision/2)."""
    if mode.is_exact:
        return value == 0
    with mode.workprec():
        return abs(value) <= zero_tolerance(mode)


def scalar_to_str(value) -> str:
    """Serialize a scalar for reports: "p/q" for rationals, decimal for floats.

    The CLI's reports hold their scalars as strings already; this keeps any
    other scalar that reaches report.jsonable exact.
    """
    if isinstance(value, (int, Fraction)):
        return str(value)
    return mpmath.nstr(value, 24)


def mpf_ints(values) -> tuple[list[int], int]:
    """Finite mpf values held exactly as ints over one power of two:
    (ints, unit) with values[k] == ints[k] * 2^unit, unit the lowest binary
    exponent among the nonzero values (0 when every value is zero)."""
    parts = []
    for value in values:
        sign, man, exp, bc = value._mpf_
        if not man and bc:
            raise ValueError("fixed point needs finite values")
        parts.append((-man if sign else man, exp))
    unit = min((exp for man, exp in parts if man), default=0)
    return [man << (exp - unit) if man else 0 for man, exp in parts], unit


def shifted(values: dict, bits: int) -> dict:
    """{key: int} times 2^bits; for bits < 0 each value is truncated toward
    zero, and the values that become zero are left out."""
    if bits >= 0:
        return {key: v << bits for key, v in values.items()}
    bits = -bits
    out = {}
    for key, v in values.items():
        v = v >> bits if v > 0 else -(-v >> bits)
        if v:
            out[key] = v
    return out
