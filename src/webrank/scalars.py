"""Scalar models shared by the whole toolkit.

Exact: rationals, as ints over one denominator, for exp/log-free inputs.
Modular: F_q, q = MODULUS = 2^61 - 1, for inputs whose only exp/log nodes
are exp of exp/log-free arguments.  At a rational point every exp constant
is e^r = t^(rL), t = e^(1/L), L the lcm of the denominators of the exp
arguments' values there; t is transcendental (Hermite-Lindemann), so every
matrix the checks rank has entries in Q[t, 1/t].  Mapping t to a t0 in F_q
drawn per point (tpoly.modulus_at) is a ring map: a rank mod q is a lower
bound on the rank at the true point, equal to it unless t0 is a root of a
nonzero minor, with probability at most deg/(q - 1) (Schwartz 1980; Zippel
1979).  The bound needs the minor to stay nonzero mod q as a polynomial in
t, its coefficients not all divisible by q: tpoly.mode_for keeps a set
with a nonzero constant whose numerator q divides out of modular mode, but
constants that only combine to a multiple of q are not caught.  So full
ranks, nonzero minors and non-proportional gradients mod q are point
certificates, and a kernel dimension mod q is an upper bound.  A
denominator divisible by q raises ModulusError, and the check that met it
runs again in float mode at the same precision (with_float_fallback).  Float:
mpmath binary floats of a configurable mantissa, for every other exp/log
input; only float mode loads mpmath.  Float mode computes its Taylor
series, relation powers and proportionality minors in mpf at the mode's
precision, and holds its gradients, jet matrices, square blocks and
relation rows exactly as ints over a power-of-two unit (tpoly.mpf_ints),
an int v standing for v * 2^unit, which the fixed-point rank kernel
(linalg.float_rank) eliminates.
"""

from __future__ import annotations

from fractions import Fraction

from .frozen import Frozen

DEFAULT_PRECISION = 128
ESCALATION_LIMIT = 512  # highest precision a marginal float rank escalates to
MODULUS = 2**61 - 1  # the prime q of modular mode


class ModulusError(ArithmeticError):
    """A denominator divisible by q, or a divisor that vanishes mod q but
    perhaps not over Q(t): the check falls back to float mode."""


class Mode(Frozen):
    """Scalar model selector: kind is "exact" (precision 0), "modular"
    (precision: the mantissa bits of the float mode it falls back to) or
    "float" (precision: mantissa bits)."""

    __slots__ = ("kind", "precision")

    @staticmethod
    def exact() -> "Mode":
        return Mode("exact", 0)

    @staticmethod
    def floating(precision: int = DEFAULT_PRECISION) -> "Mode":
        if precision < 8:
            raise ValueError(f"float precision too small: {precision}")
        return Mode("float", precision)

    @staticmethod
    def modular(precision: int = DEFAULT_PRECISION) -> "Mode":
        """Modular mode; precision is validated as Mode.floating validates
        it, since a check that meets a ModulusError runs at it."""
        return Mode("modular", Mode.floating(precision).precision)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def is_modular(self) -> bool:
        return self.kind == "modular"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    def label(self) -> str:
        if self.is_modular:
            return "exact mod 2^61-1 at t=e^(1/L)"
        return "exact" if self.is_exact else f"float{self.precision}"

    def workprec(self):
        """mpmath context manager for this mode's precision (float mode only)."""
        if not self.is_float:
            raise ValueError("workprec is only meaningful in float mode")
        import mpmath

        return mpmath.workprec(self.precision)

    def escalate(self) -> "Mode":
        """Next precision level for marginal-pivot retries (doubles the
        mantissa); exact and modular ranks are never marginal."""
        if not self.is_float:
            return self
        return Mode.floating(self.precision * 2)


EXACT = Mode.exact()


def with_float_fallback(check, mode: Mode, reset=None):
    """check(mode); where mode is modular and the check meets a
    ModulusError, reset() (when given: it undoes what the modular run
    drew or built) and check again in float mode at mode's precision."""
    try:
        return check(mode)
    except ModulusError:
        if not mode.is_modular:
            raise
        if reset is not None:
            reset()
        return check(Mode.floating(mode.precision))


def to_mpf(value: Fraction | int):
    """An int or Fraction as an mpf at mpmath's current precision."""
    import mpmath

    return mpmath.mpf(value.numerator) / value.denominator


def zero_tolerance(mode: Mode):
    """2^(-precision/2): float magnitudes at or below it, relative to their
    scale, count as zero; the mpf minor test (web.gradients_proportional)
    uses it."""
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
