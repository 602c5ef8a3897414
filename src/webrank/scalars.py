"""Scalar models shared by the whole toolkit.

Two models: exact rationals (fractions.Fraction over Python big ints) and
arbitrary-precision binary floats (mpmath, configurable mantissa).  Exact is
the default wherever the inputs are free of exp/log.  Only float mode loads
mpmath: the package imports it inside the functions of the float path, so
an exact run never does.  Float mode leaves mpf
after the Taylor series (tpoly): its gradients, jet matrices, square
blocks, relation rows, rank kernel and proportionality minors run on ints
in fixed point, an int v standing for v * 2^unit (shifted moves such ints
to another unit).
"""

from __future__ import annotations

from fractions import Fraction

from .frozen import Frozen

DEFAULT_PRECISION = 128
ESCALATION_LIMIT = 512  # highest precision a marginal float rank escalates to


class Mode(Frozen):
    """Scalar model selector: kind is "exact" (precision 0) or "float"
    (precision: mantissa bits)."""

    __slots__ = ("kind", "precision")

    @staticmethod
    def exact() -> "Mode":
        return Mode("exact", 0)

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
        import mpmath

        return mpmath.workprec(self.precision)

    def escalate(self) -> "Mode":
        """Next precision level for marginal-pivot retries (doubles the mantissa)."""
        if self.is_exact:
            return self
        return Mode.floating(self.precision * 2)


EXACT = Mode.exact()


def to_mpf(value: Fraction | int):
    """An int or Fraction as an mpf at mpmath's current precision."""
    import mpmath

    return mpmath.mpf(value.numerator) / value.denominator


def zero_tolerance(mode: Mode):
    """2^(-precision/2): float magnitudes at or below it, relative to their
    scale, count as zero.  Only the mpf minor test uses it: the oracle
    gradients_proportional, and proportional_pairs inside its rounding
    band, which no CLI job has met."""
    import mpmath

    return mpmath.ldexp(1, -(mode.precision // 2))


def scalar_to_str(value) -> str:
    """Serialize a scalar for reports: "p/q" for rationals, decimal for floats.

    The CLI's reports hold their scalars as strings already; this keeps any
    other scalar that reaches report.jsonable exact.
    """
    if isinstance(value, (int, Fraction)):
        return str(value)
    import mpmath

    return mpmath.nstr(value, 24)


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
