"""Truncated multivariate polynomials and structural Taylor expansion.

A TruncatedPoly is a polynomial in n offset variables with all terms of total
degree above the cap discarded.  Taylor expansion walks the expression tree
once using this arithmetic; it never differentiates repeatedly.  It is the
float expander, the relation-residual audit and the tests' oracle.

The relation rows of both modes take powers on packed monomial codes, and
exact expansions run on an integer kernel over the same codes
(integer_taylor).  A monomial x^e on n variables truncated at cap is packed
into one int, its code deg*B^n + sum_j e_j*B^j with deg = |e| and
B = cap + 1 (MonomialCodes), so codes order monomials by degree first.  The
product of two monomials is the sum of their codes: multiplication only
pairs terms whose degrees sum to at most cap, so every exponent stays below
B and no digit overflows into the next, and a code of degree above the cap
is exactly one >= (cap+1)*B^n.  A series is a dict {code: coefficient};
float relation rows re-key a TruncatedPoly's mpf coefficients to codes.  An
exact series holds int numerators over one positive denominator, kept in
lowest terms (gcd of the denominator and all numerators 1) after every
operation, so exact Taylor expansion needs no Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
)
from .scalars import EXACT, Mode, to_scalar


class TruncatedPoly:
    """Sparse truncated polynomial: coeffs maps exponent tuples to scalars.

    All stored keys have total degree <= cap; zero coefficients are pruned.
    Instances are treated as immutable; arithmetic returns new objects.
    """

    __slots__ = ("n", "cap", "coeffs")

    def __init__(self, n: int, cap: int, coeffs: dict[tuple[int, ...], object]):
        self.n = n
        self.cap = cap
        self.coeffs = coeffs

    @staticmethod
    def constant(n: int, cap: int, value) -> "TruncatedPoly":
        if value == 0:
            return TruncatedPoly(n, cap, {})
        return TruncatedPoly(n, cap, {(0,) * n: value})

    @property
    def constant_term(self):
        return self.coeffs.get((0,) * self.n, 0)

    def coefficient(self, key: tuple[int, ...], zero=0):
        return self.coeffs.get(key, zero)

    def _compatible(self, other: "TruncatedPoly") -> None:
        if self.n != other.n or self.cap != other.cap:
            raise ValueError("mismatched truncated-polynomial shapes")

    def add(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._compatible(other)
        coeffs = dict(self.coeffs)
        for key, value in other.coeffs.items():
            total = coeffs.get(key, 0) + value
            if total == 0:
                coeffs.pop(key, None)
            else:
                coeffs[key] = total
        return TruncatedPoly(self.n, self.cap, coeffs)

    def scale(self, factor) -> "TruncatedPoly":
        if factor == 0:
            return TruncatedPoly(self.n, self.cap, {})
        return TruncatedPoly(
            self.n, self.cap, {k: v * factor for k, v in self.coeffs.items()}
        )

    def negate(self) -> "TruncatedPoly":
        return TruncatedPoly(
            self.n, self.cap, {k: -v for k, v in self.coeffs.items()}
        )

    def mul(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._compatible(other)
        # bucket keys by total degree so pairs over the cap are skipped wholesale
        mine = _degree_buckets(self.coeffs)
        theirs = _degree_buckets(other.coeffs)
        coeffs: dict[tuple[int, ...], object] = {}
        for deg_a, bucket_a in mine.items():
            for deg_b, bucket_b in theirs.items():
                if deg_a + deg_b > self.cap:
                    continue
                for key_a, val_a in bucket_a:
                    for key_b, val_b in bucket_b:
                        key = tuple(a + b for a, b in zip(key_a, key_b))
                        total = coeffs.get(key, 0) + val_a * val_b
                        if total == 0:
                            coeffs.pop(key, None)
                        else:
                            coeffs[key] = total
        return TruncatedPoly(self.n, self.cap, coeffs)

    def power(self, exponent: int) -> "TruncatedPoly":
        if exponent < 0:
            return self.inverse().power(-exponent)
        result = TruncatedPoly.constant(self.n, self.cap, _one_like(self.coeffs))
        base = self
        remaining = exponent
        while remaining:
            if remaining & 1:
                result = result.mul(base)
            remaining >>= 1
            if remaining:
                base = base.mul(base)
        return result

    def drop_constant(self) -> "TruncatedPoly":
        key = (0,) * self.n
        if key not in self.coeffs:
            return self
        coeffs = dict(self.coeffs)
        del coeffs[key]
        return TruncatedPoly(self.n, self.cap, coeffs)

    def truncate(self, cap: int) -> "TruncatedPoly":
        """The terms of degree <= cap; cap may not exceed this expansion's cap,
        whose terms above it are unknown, not zero."""
        if cap > self.cap:
            raise ValueError(
                f"cannot truncate an expansion of cap {self.cap} at {cap}"
            )
        if cap == self.cap:
            return TruncatedPoly(self.n, cap, dict(self.coeffs))
        return TruncatedPoly(
            self.n, cap, {k: v for k, v in self.coeffs.items() if sum(k) <= cap}
        )

    def powers(self, m_max: int) -> list["TruncatedPoly"]:
        """[self^1, ..., self^m_max], each truncated at the cap."""
        out = [self]
        for _ in range(1, m_max):
            out.append(out[-1].mul(self))
        return out

    def compose_series(self, series: Sequence) -> "TruncatedPoly":
        """sum series[m] * self^m for a one-variable series; needs zero constant term."""
        if self.constant_term != 0:
            raise ValueError("composition requires a zero constant term")
        result = TruncatedPoly.constant(self.n, self.cap, series[0])
        if len(series) > 1:
            for coeff, pw in zip(series[1:], self.powers(len(series) - 1)):
                if coeff != 0:
                    result = result.add(pw.scale(coeff))
        return result

    def inverse(self) -> "TruncatedPoly":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.constant_term
        if c0 == 0:
            raise EvalError("expansion point is singular (zero constant term)")
        # 1/(c0 (1 + u)) = (1/c0) sum (-u)^m with u = (self - c0)/c0
        tail = self.drop_constant().scale(-(_one_like(self.coeffs) / c0))
        series = [_one_like(self.coeffs) / c0] * (self.cap + 1)
        return tail.compose_series(series)

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{key}: {value}" for key, value in sorted(self.coeffs.items())
        )
        return f"TruncatedPoly(n={self.n}, cap={self.cap}, {{{terms}}})"


def _degree_buckets(coeffs: dict) -> dict[int, list]:
    buckets: dict[int, list] = {}
    for key, value in coeffs.items():
        buckets.setdefault(sum(key), []).append((key, value))
    return buckets


def _one_like(coeffs: dict):
    for value in coeffs.values():
        if isinstance(value, Fraction):
            return Fraction(1)
        if isinstance(value, int):
            return Fraction(1)
        return mpmath.mpf(1)
    return Fraction(1)


def taylor(e: Expr, point: Sequence, cap: int, mode: Mode = EXACT) -> TruncatedPoly:
    """Taylor expansion of e at point with all terms of total degree <= cap.

    The expansion variables are the offsets (x_j - point[j-1]).  Exact mode
    requires a tree free of exp/log; poles at the expansion point raise
    EvalError.
    """
    if cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {cap}")
    if mode.is_exact:
        scalars = tuple(Fraction(v) for v in point)
        return _taylor(e, scalars, cap, mode)
    with mode.workprec():
        scalars = tuple(to_scalar(Fraction(v), mode) for v in point)
        return _taylor(e, scalars, cap, mode)


def _taylor(e: Expr, point: tuple, cap: int, mode: Mode) -> TruncatedPoly:
    n = len(point)
    if isinstance(e, Variable):
        if e.index > n:
            raise EvalError(f"point of length {n} cannot feed variable x{e.index}")
        coeffs: dict[tuple[int, ...], object] = {}
        value = point[e.index - 1]
        if value != 0:
            coeffs[(0,) * n] = value
        if cap >= 1:
            key = tuple(1 if j == e.index - 1 else 0 for j in range(n))
            coeffs[key] = _unit_scalar(mode)
        return TruncatedPoly(n, cap, coeffs)
    if isinstance(e, RationalConst):
        return TruncatedPoly.constant(n, cap, to_scalar(e.value, mode))
    if isinstance(e, Sum):
        result = TruncatedPoly(n, cap, {})
        for term in e.terms:
            result = result.add(_taylor(term, point, cap, mode))
        return result
    if isinstance(e, Product):
        result = TruncatedPoly.constant(n, cap, _unit_scalar(mode))
        for factor in e.factors:
            result = result.mul(_taylor(factor, point, cap, mode))
        return result
    if isinstance(e, Quotient):
        num = _taylor(e.numerator, point, cap, mode)
        den = _taylor(e.denominator, point, cap, mode)
        return num.mul(den.inverse())
    if isinstance(e, Neg):
        return _taylor(e.child, point, cap, mode).negate()
    if isinstance(e, IntPower):
        return _taylor(e.base, point, cap, mode).power(e.exponent)
    if isinstance(e, Exp):
        if mode.is_exact:
            raise EvalError("exact mode cannot expand exp/log nodes")
        child = _taylor(e.child, point, cap, mode)
        scale = mpmath.exp(child.constant_term)
        series = [scale]
        for m in range(1, cap + 1):
            series.append(series[-1] / m)
        return child.drop_constant().compose_series(series)
    if isinstance(e, Log):
        if mode.is_exact:
            raise EvalError("exact mode cannot expand exp/log nodes")
        child = _taylor(e.child, point, cap, mode)
        c0 = child.constant_term
        if c0 <= 0:
            raise EvalError("log of a non-positive value at the expansion point")
        series = [mpmath.log(c0)]
        sign = 1
        for m in range(1, cap + 1):
            series.append(sign / (m * c0**m))
            sign = -sign
        return child.drop_constant().compose_series(series)
    raise TypeError(f"not an expression node: {e!r}")


def _unit_scalar(mode: Mode):
    return Fraction(1) if mode.is_exact else mpmath.mpf(1)


# ---------------------------------------------------------------------------
# exact expansion on packed monomial codes


class MonomialCodes:
    """Packed codes of the monomials on n variables of total degree <= cap.

    The monomial x^e is the int |e|*B^n + sum_j e_j*B^j with B = cap + 1,
    e_j the exponent of x_(j+1); see the module docstring for why products
    are sums of codes.  Dicts {code: coefficient}, with int numerators or
    mpf coefficients, are series over this packing.
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

    def powers(self, a: dict[int, int], m_max: int) -> list[dict[int, int]]:
        """[a^1, ..., a^m_max], each truncated at the cap."""
        out = [a]
        for _ in range(1, m_max):
            out.append(self.mul(out[-1], a))
        return out


def integer_taylor(
    e: Expr, point: Sequence, codes: MonomialCodes
) -> tuple[dict[int, int], int]:
    """Exact Taylor expansion of e at point, truncated at codes.cap.

    Returns (numerators, den): the coefficient of the monomial with code c is
    numerators[c] / den, with den > 0 and gcd(den, *numerators) == 1.  It
    equals taylor(e, point, codes.cap) term for term; exp/log nodes and poles
    at the point raise EvalError as there.
    """
    if len(point) != codes.n:
        raise ValueError(f"point of length {len(point)} for {codes.n} variables")
    return _int_taylor(e, tuple(Fraction(v) for v in point), codes)


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
        terms, den = {0: 1}, 1
        for factor in e.factors:
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
