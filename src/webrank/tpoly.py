"""Truncated multivariate Taylor expansion on packed monomial codes, the one
evaluator of first integrals.

A monomial x^e on n offset variables truncated at cap is packed into one
int, its code deg*B^n + sum_j e_j*B^j with deg = |e| and B = cap + 1
(MonomialCodes), so codes order monomials by degree first.  The product of
two monomials is the sum of their codes: multiplication only pairs terms
whose degrees sum to at most cap, so every exponent stays below B and no
digit overflows into the next, and a code of degree above the cap is
exactly one >= (cap+1)*B^n.  A series is a dict {code: coefficient} with
zero coefficients left out.

taylor walks an expression tree once in this arithmetic, never
differentiating symbolically (forward-mode Taylor arithmetic; Griewank and
Walther, Evaluating Derivatives, 2008).  Its coefficients are Fractions in
exact mode and mpf at the mode's precision in float mode.  An
integer_taylor series holds int numerators over one positive denominator,
kept in lowest terms after every operation, so it needs no Fraction
arithmetic.  In float mode mpmath ends with the series: mpf_ints holds
mpf coefficients exactly as ints over one power of two, fixed_powers takes
the powers of an mpf offset on ints in fixed point, and series_gradient
returns a float gradient as ints.  Expanding a generating integral at its
projected point gives everything the certificates need there: the relation
rows (to the truncation order), and the gradient and the domain check
(series_gradient, the order-1 expansion, which raises wherever the
integral is undefined).
"""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath

from .expr import (
    EvalError,
    Exp,
    Expr,
    IntPower,
    Log,
    Neg,
    Product,
    Quotient,
    RationalConst,
    Sum,
    Variable,
    has_transcendental,
    variables,
)
from .scalars import EXACT, Mode, shifted, to_mpf


class MonomialCodes:
    """Packed codes of the monomials on n variables of total degree <= cap.

    The monomial x^e is the int |e|*B^n + sum_j e_j*B^j with B = cap + 1,
    e_j the exponent of x_(j+1); see the module docstring for why products
    are sums of codes.  Dicts {code: coefficient}, with int numerators,
    Fractions or mpf coefficients, are series over this packing.
    """

    __slots__ = ("n", "cap", "base", "limit", "units")

    def __init__(self, n: int, cap: int):
        if cap < 0:
            raise ValueError(f"degree cap must be >= 0, got {cap}")
        self.n = n
        self.cap = cap
        self.base = cap + 1
        top = self.base**n
        self.limit = (cap + 1) * top  # the smallest code of degree cap + 1
        self.units = tuple(top + self.base**j for j in range(n))

    def encode(self, key: Sequence[int]) -> int:
        code = sum(key) * self.base**self.n
        for j, exponent in enumerate(key):
            code += exponent * self.base**j
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        """The exponents of a code; the pipeline only encodes, the tests
        decode."""
        key = []
        for _ in range(self.n):
            code, exponent = divmod(code, self.base)
            key.append(exponent)
        return tuple(key)

    def mul(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        """Product of two series dicts, truncated at the cap."""
        limit = self.limit
        inner = sorted(b.items())
        out: dict[int, int] = {}
        get = out.get
        for code_a, value_a in a.items():
            bound = limit - code_a
            for code_b, value_b in inner:
                if code_b >= bound:
                    break  # codes ascend, so every later product is over the cap
                code = code_a + code_b
                out[code] = get(code, 0) + value_a * value_b
        return {code: value for code, value in out.items() if value}

    def powers(
        self, a: dict[int, int], m_max: int, shift: int = 0
    ) -> list[dict[int, int]]:
        """[a^1, ..., a^m_max], each truncated at the cap.

        With shift > 0, a holds ints in fixed point and each product is
        shifted right by shift bits, truncating toward zero: if a stands for
        a * 2^u, the m-th entry stands for itself times 2^(m*u + (m-1)*shift).
        """
        out = [a]
        for _ in range(1, m_max):
            power = self.mul(out[-1], a)
            out.append(shifted(power, -shift) if shift else power)
        return out

    def compose(self, tail: dict, series: Sequence) -> dict:
        """sum_m series[m] * tail^m for a one-variable series, truncated at
        the cap; tail must have no constant term."""
        if 0 in tail:
            raise ValueError("composition requires a zero constant term")
        total = {0: series[0]} if series[0] != 0 else {}
        for coeff, power in zip(series[1:], self.powers(tail, len(series) - 1)):
            if coeff != 0:
                _add_into(total, {code: v * coeff for code, v in power.items()})
        return total


def _add_into(total: dict, terms: dict) -> None:
    """total += terms in place, term by term, pruning zero sums."""
    for code, value in terms.items():
        value = total.get(code, 0) + value
        if value:
            total[code] = value
        else:
            total.pop(code, None)


def taylor(
    e: Expr, point: Sequence, codes: MonomialCodes, mode: Mode = EXACT
) -> dict:
    """Taylor expansion of e at point, truncated at codes.cap, as {code: scalar}.

    The expansion variables are the offsets (x_j - point[j-1]); coefficients
    are Fractions in exact mode and mpf in float mode.  Exact mode requires
    a tree free of exp/log; poles at the expansion point raise EvalError.
    The point's coordinates are ints or Fractions.
    """
    if len(point) != codes.n:
        raise ValueError(f"point of length {len(point)} for {codes.n} variables")
    scalar = Fraction if mode.is_exact else to_mpf  # under mode.workprec()
    cap = codes.cap

    def inverse(terms: dict) -> dict:
        """1/terms; no catalog tree that taylor expands in float mode has a
        quotient or negative power, but input files and test oracles do."""
        c0 = terms.get(0, 0)
        if c0 == 0:
            raise EvalError("expansion point is singular (zero constant term)")
        # 1/(c0 (1 + u)) = (1/c0) sum (-u)^m with u = (terms - c0)/c0
        first = one / c0
        factor = -first
        tail = {code: v * factor for code, v in terms.items() if code}
        return codes.compose(tail, [first] * (cap + 1))

    def walk(e: Expr) -> dict:
        if isinstance(e, Variable):
            if e.index > codes.n:
                raise EvalError(
                    f"point of length {codes.n} cannot feed variable x{e.index}"
                )
            value = values[e.index - 1]
            terms = {0: value} if value != 0 else {}
            if cap >= 1:
                terms[codes.units[e.index - 1]] = one
            return terms
        if isinstance(e, RationalConst):
            value = scalar(e.value)
            return {0: value} if value != 0 else {}
        if isinstance(e, Sum):
            total: dict = {}
            for term in e.terms:
                _add_into(total, walk(term))
            return total
        if isinstance(e, Product):
            total = {0: one}
            for factor in e.factors:
                total = codes.mul(total, walk(factor))
            return total
        if isinstance(e, Quotient):
            return codes.mul(walk(e.numerator), inverse(walk(e.denominator)))
        if isinstance(e, Neg):
            return {code: -v for code, v in walk(e.child).items()}
        if isinstance(e, IntPower):
            base, exponent = walk(e.base), e.exponent
            if exponent < 0:
                base, exponent = inverse(base), -exponent
            total = {0: one}
            while exponent:
                if exponent & 1:
                    total = codes.mul(total, base)
                exponent >>= 1
                if exponent:
                    base = codes.mul(base, base)
            return total
        if isinstance(e, (Exp, Log)):
            if mode.is_exact:
                raise EvalError("exact mode cannot expand exp/log nodes")
            child = walk(e.child)
            c0 = child.get(0, 0)
            if isinstance(e, Exp):
                series = [mpmath.exp(c0)]
                for m in range(1, cap + 1):
                    series.append(series[-1] / m)
            else:
                if c0 <= 0:
                    raise EvalError(
                        "log of a non-positive value at the expansion point"
                    )
                series = [mpmath.log(c0)]
                for m in range(1, cap + 1):
                    series.append((-1) ** (m - 1) / (m * c0**m))
            tail = {code: v for code, v in child.items() if code}
            return codes.compose(tail, series)
        raise TypeError(f"not an expression node: {e!r}")

    with contextlib.nullcontext() if mode.is_exact else mode.workprec():
        values = tuple(map(scalar, point))
        one = scalar(1)
        return walk(e)


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


SERIES_GUARD_BITS = 96  # bits kept below the precision in fixed-point powers


def fixed_powers(
    expansion: dict, codes: MonomialCodes, precision: int
) -> list[tuple[dict[int, int], int]]:
    """The powers 1..codes.cap of an mpf expansion's offset (the expansion
    without its constant term) in fixed point: [(ints, unit), ...], the m-th
    power equal to ints * 2^unit up to truncation.

    Let t be the binary exponent just above the offset's largest degree-1
    coefficient (above its largest coefficient when it has no degree-1
    terms) and s = precision + SERIES_GUARD_BITS.  The offset is held once
    as ints at the unit 2^(t - s), truncated toward zero, and its powers are
    taken by MonomialCodes.powers with shift s, so the m-th power sits at
    the unit 2^(m*t - s).  The units depend on the degree-1 terms only, so
    the powers truncated at a lower cap are the restrictions of these, int
    for int.

    Error model.  Every truncation errs by less than one unit, and a
    product carries the errors of its factors forward scaled by the other
    factor's coefficients over 2^s, as a floating-point product carries
    relative errors.  The largest degree-1 coefficient has s bits, so the
    m-th power errs by a few units times m and the number of terms
    multiplied, scaled by how far the offset's largest coefficient exceeds
    that degree-1 one.  The power has an entry at least that large: its
    coefficient of x_j^m is g_j^m, g the degree-1 terms, which lies s - m
    bits above the unit.  With 96 guard bits the errors stay far below both
    the 2^-precision rounding of every coefficient in an mpf build and the
    unit 2^-(precision+64) of the largest entry that linalg.float_rank
    aligns the rows to.
    """
    terms = [(code, v) for code, v in expansion.items() if code]
    ints, low = mpf_ints(v for _, v in terms)
    offset = {code: v for (code, _), v in zip(terms, ints) if v}
    linear = [abs(offset.get(unit, 0)) for unit in codes.units]
    largest = max(linear, default=0) or max(map(abs, offset.values()), default=0)
    if not largest:
        return [({}, 0) for _ in range(codes.cap)]
    shift = precision + SERIES_GUARD_BITS
    top = low + largest.bit_length()
    offset = shifted(offset, low - (top - shift))
    return [
        (power, m * top - shift)
        for m, power in enumerate(codes.powers(offset, codes.cap, shift), 1)
    ]


def integer_taylor(
    e: Expr, point: Sequence, codes: MonomialCodes
) -> tuple[dict[int, int], int]:
    """Exact Taylor expansion of e at point, truncated at codes.cap.

    Returns (numerators, den): the coefficient of the monomial with code c is
    numerators[c] / den, with den > 0 and gcd(den, *numerators) == 1.  It
    equals taylor(e, point, codes) term for term; exp/log nodes and poles
    at the point raise EvalError as there.
    """
    if len(point) != codes.n:
        raise ValueError(f"point of length {len(point)} for {codes.n} variables")
    return _int_taylor(e, point, codes)


def integer_offset(
    e: Expr, point: Sequence, codes: MonomialCodes
) -> tuple[dict[int, int], int]:
    """integer_taylor of e - e(point): the expansion without its constant
    term, again in lowest terms, so den is the lcm of the denominators of
    the offset's coefficients and the numerators are those coefficients
    times den."""
    terms, den = integer_taylor(e, point, codes)
    return _lowest_terms({code: v for code, v in terms.items() if code}, den)


def _lowest_terms(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    common = math.gcd(den, *terms.values())
    if common == 1:
        return terms, den
    return {code: v // common for code, v in terms.items()}, den // common


def _int_taylor(e: Expr, point: tuple, codes: MonomialCodes):
    if isinstance(e, Variable):
        if e.index > codes.n:
            raise EvalError(
                f"point of length {codes.n} cannot feed variable x{e.index}"
            )
        # a/b + offset = (a + b*offset) / b, in lowest terms as a/b is
        value = point[e.index - 1]
        terms = {0: value.numerator} if value else {}
        if codes.cap >= 1:
            terms[codes.units[e.index - 1]] = value.denominator
        return terms, value.denominator
    if isinstance(e, RationalConst):
        value = e.value
        return ({0: value.numerator} if value else {}), value.denominator
    if isinstance(e, Sum):
        terms: dict[int, int] = {}
        den = 1
        for term in e.terms:
            t_terms, t_den = _int_taylor(term, point, codes)
            common = math.lcm(den, t_den)
            mine, theirs = common // den, common // t_den
            if mine != 1:
                terms = {code: v * mine for code, v in terms.items()}
            for code, v in t_terms.items():
                terms[code] = terms.get(code, 0) + v * theirs
            den = common
        return _lowest_terms({code: v for code, v in terms.items() if v}, den)
    if isinstance(e, Product):
        terms, den = _int_taylor(e.factors[0], point, codes)
        for factor in e.factors[1:]:
            f_terms, f_den = _int_taylor(factor, point, codes)
            terms, den = _lowest_terms(codes.mul(terms, f_terms), den * f_den)
        return terms, den
    if isinstance(e, Quotient):
        num_terms, num_den = _int_taylor(e.numerator, point, codes)
        inv_terms, inv_den = _int_inverse(
            *_int_taylor(e.denominator, point, codes), codes
        )
        return _lowest_terms(codes.mul(num_terms, inv_terms), num_den * inv_den)
    if isinstance(e, Neg):
        terms, den = _int_taylor(e.child, point, codes)
        return {code: -v for code, v in terms.items()}, den
    if isinstance(e, IntPower):
        terms, den = _int_taylor(e.base, point, codes)
        exponent = e.exponent
        if exponent < 0:
            terms, den = _int_inverse(terms, den, codes)
            exponent = -exponent
        result, result_den = {0: 1}, 1
        while exponent:
            if exponent & 1:
                result, result_den = _lowest_terms(
                    codes.mul(result, terms), result_den * den
                )
            exponent >>= 1
            if exponent:
                terms, den = _lowest_terms(codes.mul(terms, terms), den * den)
        return result, result_den
    if isinstance(e, (Exp, Log)):
        raise EvalError("exact mode cannot expand exp/log nodes")
    raise TypeError(f"not an expression node: {e!r}")


def _int_inverse(terms: dict[int, int], den: int, codes: MonomialCodes):
    """1/((a0 + T)/den) = den * sum_m (-T)^m a0^(cap-m) / a0^(cap+1)."""
    a0 = terms.get(0, 0)
    if a0 == 0:
        raise EvalError("expansion point is singular (zero constant term)")
    cap = codes.cap
    negated_tail = {code: -v for code, v in terms.items() if code}
    total = {0: a0**cap}
    power = {0: 1}
    for m in range(1, cap + 1):
        power = codes.mul(power, negated_tail)
        if not power:
            break
        weight = a0 ** (cap - m)
        for code, v in power.items():
            total[code] = total.get(code, 0) + v * weight
    out_den = a0 ** (cap + 1)
    if out_den < 0:  # a0 < 0 with cap + 1 odd: carry the sign into the numerators
        out_den, den = -out_den, -den
    return _lowest_terms(
        {code: v * den for code, v in total.items() if v}, out_den
    )


# ---------------------------------------------------------------------------
# first-order data: gradients and used variables

@lru_cache(maxsize=None)
def _linear_codes(n: int) -> MonomialCodes:
    return MonomialCodes(n, 1)


def series_gradient(
    e: Expr, point: Sequence, mode: Mode = EXACT
) -> tuple[list[int], int]:
    """The gradient of e at point as ints, read off the degree-1 terms of
    the order-1 Taylor series: (values, den) in exact mode, (values, unit)
    in float mode.

    Exact mode: integer_offset's numerators over the lcm den of the
    partials' denominators, so values / den is the gradient.  Float mode:
    taylor's mpf coefficients at the mode's precision held exactly as ints
    over one power of two (mpf_ints), so values * 2^unit is the gradient
    as mpmath computes it.  The expansion computes e itself, so a pole of e
    or a log outside its domain raises EvalError even where the partials
    are defined.
    """
    codes = _linear_codes(len(point))
    if mode.is_exact:
        terms, den = integer_offset(e, point, codes)
        return [terms.get(unit, 0) for unit in codes.units], den
    terms, zero = taylor(e, point, codes, mode), mpmath.mpf(0)
    return mpf_ints([terms.get(unit, zero) for unit in codes.units])


def common_unit(gradients: Sequence[tuple[list[int], int]]):
    """Float gradients (values, unit) from series_gradient held exactly at
    one unit, the lowest of theirs: (ints, unit)."""
    unit = min((u for _, u in gradients), default=0)
    return [[v << (u - unit) for v in g] for g, u in gradients], unit


def _zero_test_points(n: int) -> list[tuple[Fraction, ...]]:
    """vars_used's 8 seeded points, coordinates in [-3, 3] with
    denominators up to 64."""
    rng = random.Random(0x7EB5)

    def coordinate():
        den = rng.randint(1, 64)
        return Fraction(rng.randint(-3 * den, 3 * den), den)

    return [tuple(coordinate() for _ in range(n)) for _ in range(8)]


def vars_used(e: Expr) -> set[int]:
    """Indices j whose partial derivative is not identically zero: nonzero
    (above 2^-64, at 128 bits, for exp/log trees) at one of the
    _zero_test_points where e expands; all variables of e if it expands at
    none of them."""
    present = variables(e)
    mode = Mode.floating() if has_transcendental(e) else EXACT
    used: set[int] = set()
    expanded = False
    for point in _zero_test_points(max(present, default=0)):
        try:
            values, scale = series_gradient(e, point, mode)
        except EvalError:
            continue
        expanded = True
        if mode.is_exact:
            used.update(j for j, v in enumerate(values, 1) if v)
        else:
            # |v| * 2^scale > 2^-(p//2), as |v| * 2^shift > 1 on ints
            shift = scale + mode.precision // 2
            one = 1 << max(-shift, 0)
            used.update(
                j for j, v in enumerate(values, 1) if abs(v) << max(shift, 0) > one
            )
        if used == present:
            break
    return used if expanded else present
