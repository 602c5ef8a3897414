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
arithmetic; it divides by a series one degree at a time (_int_divide),
where taylor multiplies by the inverse series, whose float rounding the
float reports keep.  Given a Modulus, the same walk runs mod q for modular
mode (scalars): residues over 1, an exp node t0^(rL) times the exp series, r
its argument's exact value.  Each residue is the image of the exact
coefficient, an element of Q[t, 1/t], under t -> t0, so nothing is rounded;
only the ranks taken on them bound (linalg).  In float mode mpf_ints holds
mpf values (series coefficients, the powers of an offset) exactly as ints
over one power of two, and series_gradient returns a float gradient as
ints.  Expanding a generating integral at its projected point gives
everything the certificates need there: the relation rows (to the
truncation order), and the gradient and the domain check
(series_gradient, the order-1 expansion, which raises wherever the
integral is undefined).
"""

from __future__ import annotations

import contextlib
import math
import operator
import random
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

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
    constants,
    exp_arguments,
    has_transcendental,
    variables,
)
from .frozen import Frozen
from .scalars import (
    DEFAULT_PRECISION,
    EXACT,
    MODULUS,
    Mode,
    ModulusError,
    to_mpf,
    with_float_fallback,
)


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
        """The code of x^key: the sum of key[j] codes of x_(j+1), units[j]."""
        return sum(map(operator.mul, key, self.units))

    def decode(self, code: int) -> tuple[int, ...]:
        """The exponents of a code; the pipeline only encodes, the tests
        decode."""
        key = []
        for _ in range(self.n):
            code, exponent = divmod(code, self.base)
            key.append(exponent)
        return tuple(key)

    def mul(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        """Product of two series dicts, truncated at the cap: _times with
        b's items sorted by code."""
        return self._times(a, sorted(b.items()))

    def _times(self, a: dict[int, int], inner: list) -> dict[int, int]:
        """Product of a series dict and a series given as its items in
        ascending code order, truncated at the cap.  The codes come out in
        the order a's terms first reach them; the dict is rebuilt without
        its zero values only when some product cancelled to zero."""
        limit = self.limit
        out: dict[int, int] = {}
        get = out.get
        for code_a, value_a in a.items():
            bound = limit - code_a
            for code_b, value_b in inner:
                if code_b >= bound:
                    break  # codes ascend, so every later product is over the cap
                code = code_a + code_b
                out[code] = get(code, 0) + value_a * value_b
        if 0 in out.values():
            return {code: value for code, value in out.items() if value}
        return out

    def powers(
        self, a: dict[int, int], m_max: int, modulus: int = 0
    ) -> list[dict[int, int]]:
        """[a^1, ..., a^m_max], each truncated at the cap: the m-th is the
        (m-1)-th times a, as mul takes it, with a's items sorted once for
        all m.  With a modulus, each product is reduced mod it, its zeros
        left out.
        """
        inner = sorted(a.items())
        out = [a]
        for _ in range(1, m_max):
            power = self._times(out[-1], inner)
            if modulus:
                power = _residues(power, modulus)
            out.append(power)
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


def _residues(terms: dict[int, int], q: int) -> dict[int, int]:
    """The values of terms mod q, the zero residues left out."""
    out = {}
    for code, v in terms.items():
        v %= q
        if v:
            out[code] = v
    return out


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
            import mpmath

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


class Modulus(Frozen):
    """Modular mode at one point (modulus_at): t0, the image in F_q of
    t = e^(1/L), q = MODULUS."""

    __slots__ = ("t0", "L")

    def exp(self, numerator: int, den: int) -> int:
        """e^(numerator/den) = t^(numerator*L/den) at t = t0."""
        common = math.gcd(numerator, den)
        numerator, den = numerator // common, den // common
        if self.L % den:
            raise ValueError(f"exp argument over {den} is not a multiple of 1/{self.L}")
        return _power(self.t0, numerator * (self.L // den) % (MODULUS - 1), MODULUS)


# a point's entries share their exp constants, each a 61-bit exponentiation
_power = lru_cache(maxsize=1024)(pow)


@lru_cache(maxsize=None)
def _inverse_factorials(cap: int) -> tuple[int, ...]:
    """1/m! mod q for m = 0..cap, the exp series' coefficients."""
    out = [1]
    for m in range(1, cap + 1):
        out.append(out[-1] * pow(m, -1, MODULUS) % MODULUS)
    return tuple(out)


@lru_cache(maxsize=None)
def _constant_codes(n: int) -> MonomialCodes:
    return MonomialCodes(n, 0)


def modulus_at(expansions, point: Sequence) -> Modulus:
    """The Modulus shared by the (integral, projected point) pairs
    expanded at one point: L the lcm of the denominators of their exp
    arguments' values, t0 from a random.Random seeded with the point's
    text, so it draws nothing from the sampler and a point gets one t0 in
    every check.  A pole of an exp argument raises EvalError."""
    L = 1
    found: dict[int, list] = {}  # by id: the entries of a web share integrals
    for e, at in expansions:
        arguments = found.get(id(e))
        if arguments is None:
            arguments = found[id(e)] = exp_arguments(e)
        if arguments is None:
            raise EvalError("modular mode expands exp of exp/log-free arguments only")
        for argument in arguments:
            L = math.lcm(L, _int_taylor(argument, at, _constant_codes(len(at)))[1])
    t0 = random.Random(",".join(map(str, point))).randrange(2, MODULUS - 1)
    return Modulus(t0, L)


def integer_taylor(
    e: Expr, point: Sequence, codes: MonomialCodes, modulus: Modulus | None = None
) -> tuple[dict[int, int], int]:
    """Exact Taylor expansion of e at point, truncated at codes.cap.

    Returns (numerators, den): the coefficient of the monomial with code c is
    numerators[c] / den, with den > 0 and gcd(den, *numerators) == 1.  It
    equals taylor(e, point, codes) term for term; exp/log nodes and poles
    at the point raise EvalError as there.

    With a modulus: residues mod q over den = 1, exp nodes included.  A
    denominator divisible by q raises ModulusError, as does a divisor
    zero mod q, unless it is exp-free and zero exactly (a pole: EvalError).
    """
    if len(point) != codes.n:
        raise ValueError(f"point of length {len(point)} for {codes.n} variables")
    return _int_taylor(e, point, codes, modulus)


def integer_offset(
    e: Expr, point: Sequence, codes: MonomialCodes, modulus: Modulus | None = None
) -> tuple[dict[int, int], int]:
    """integer_taylor of e - e(point): the expansion without its constant
    term, again in lowest terms, so den is the lcm of the denominators of
    the offset's coefficients and the numerators are those coefficients
    times den (residues over 1 with a modulus)."""
    terms, den = integer_taylor(e, point, codes, modulus)
    return _lowest_terms({code: v for code, v in terms.items() if code}, den)


def _lowest_terms(
    terms: dict[int, int], den: int, modulus: Modulus | None = None
) -> tuple[dict[int, int], int]:
    """terms over den in lowest terms; with a modulus, residues over 1."""
    if modulus is not None:
        if den % MODULUS == 0:
            raise ModulusError(f"a denominator divisible by q = {MODULUS}")
        if den != 1:
            inverse = pow(den, -1, MODULUS)
            terms = {code: v * inverse for code, v in terms.items()}
        return _residues(terms, MODULUS), 1
    common = math.gcd(den, *terms.values())
    if common == 1:
        return terms, den
    return {code: v // common for code, v in terms.items()}, den // common


def _vanishing_divisor(e: Expr, point: tuple) -> None:
    """Raise for a divisor e zero mod q: EvalError at a pole of an exp-free
    e, else ModulusError, so that float mode decides."""
    if not has_transcendental(e):
        if not _int_taylor(e, point, _constant_codes(len(point)))[0]:
            raise EvalError("expansion point is singular (zero constant term)")
    raise ModulusError("a divisor vanishes mod q")


def _int_taylor(e: Expr, point: tuple, codes: MonomialCodes, modulus=None):
    """integer_taylor's walk; see there for the modulus."""
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
        if modulus is not None:
            return _lowest_terms(terms, value.denominator, modulus)
        return terms, value.denominator
    if isinstance(e, RationalConst):
        value = e.value
        terms = {0: value.numerator} if value else {}
        if modulus is not None:
            return _lowest_terms(terms, value.denominator, modulus)
        return terms, value.denominator
    if isinstance(e, Sum):
        terms: dict[int, int] = {}
        den = 1
        for term in e.terms:
            t_terms, t_den = _int_taylor(term, point, codes, modulus)
            common = math.lcm(den, t_den)
            mine, theirs = common // den, common // t_den
            if mine != 1:
                terms = {code: v * mine for code, v in terms.items()}
            for code, v in t_terms.items():
                terms[code] = terms.get(code, 0) + v * theirs
            den = common
        return _lowest_terms({code: v for code, v in terms.items() if v}, den, modulus)
    if isinstance(e, Product):
        terms, den = _int_taylor(e.factors[0], point, codes, modulus)
        for factor in e.factors[1:]:
            f_terms, f_den = _int_taylor(factor, point, codes, modulus)
            terms, den = _lowest_terms(
                codes.mul(terms, f_terms), den * f_den, modulus
            )
        return terms, den
    if isinstance(e, Quotient):
        numerator = _int_taylor(e.numerator, point, codes, modulus)
        divisor = _int_taylor(e.denominator, point, codes, modulus)
        if modulus is not None and 0 not in divisor[0]:
            _vanishing_divisor(e.denominator, point)
        return _int_divide(*numerator, *divisor, codes, modulus)
    if isinstance(e, Neg):
        terms, den = _int_taylor(e.child, point, codes, modulus)
        if modulus is not None:
            return {code: MODULUS - v for code, v in terms.items()}, den
        return {code: -v for code, v in terms.items()}, den
    if isinstance(e, IntPower):
        terms, den = _int_taylor(e.base, point, codes, modulus)
        exponent = abs(e.exponent)
        result, result_den = {0: 1}, 1
        while exponent:
            if exponent & 1:
                result, result_den = _lowest_terms(
                    codes.mul(result, terms), result_den * den, modulus
                )
            exponent >>= 1
            if exponent:
                terms, den = _lowest_terms(codes.mul(terms, terms), den * den, modulus)
        if e.exponent < 0:
            if modulus is not None and 0 not in result:
                _vanishing_divisor(e.base, point)
            return _int_divide({0: 1}, 1, result, result_den, codes, modulus)
        return result, result_den
    if isinstance(e, Exp) and modulus is not None:
        # e^(r + tail) = t0^(rL) * sum_m tail^m / m!
        child, den = _int_taylor(e.child, point, codes)
        constant = modulus.exp(child.get(0, 0), den)
        series = [constant * f % MODULUS for f in _inverse_factorials(codes.cap)]
        tail, _ = _lowest_terms(
            {code: v for code, v in child.items() if code}, den, modulus
        )
        return _lowest_terms(codes.compose(tail, series), 1, modulus)
    if isinstance(e, (Exp, Log)):
        raise EvalError("exact mode cannot expand exp/log nodes")
    raise TypeError(f"not an expression node: {e!r}")


def _int_divide(
    num: dict[int, int],
    num_den: int,
    terms: dict[int, int],
    den: int,
    codes: MonomialCodes,
    modulus: Modulus | None = None,
) -> tuple[dict[int, int], int]:
    """(num / num_den) / (terms / den), truncated at the cap, in lowest terms
    (residues over 1 with a modulus; the caller checks a0 mod q).

    With a0 the constant term of `terms` and T_j, N_D the homogeneous parts
    of its tail and of num, the quotient of num by terms has the degree-D
    part q_D / a0^(D+1), where
    q_D = a0^D N_D - sum_{j>=1} a0^(j-1) T_j q_(D-j) (series division,
    one degree at a time, on ints).  Each q_D is multiplied by the tail
    once, and the result is den * sum_D a0^(cap-D) q_D over
    num_den * a0^(cap+1).
    """
    a0 = terms.get(0, 0)
    if a0 == 0:
        raise EvalError("expansion point is singular (zero constant term)")
    cap = codes.cap
    step = codes.base**codes.n  # a code of degree D lies in [D*step, (D+1)*step)
    tail = {code: v * a0 ** (code // step - 1) for code, v in terms.items() if code}
    pending: list[dict[int, int]] = [{} for _ in range(cap + 1)]
    for code, v in num.items():
        pending[code // step][code] = v * a0 ** (code // step)
    out_den = num_den * a0 ** (cap + 1)
    if out_den < 0:  # a0 < 0 with cap + 1 odd: carry the sign into the numerators
        out_den, den = -out_den, -den
    out: dict[int, int] = {}
    for degree, q in enumerate(pending):
        q = {code: v for code, v in q.items() if v}
        for code, v in codes.mul(tail, q).items():
            later = pending[code // step]
            later[code] = later.get(code, 0) - v
        weight = den * a0 ** (cap - degree)
        for code, v in q.items():
            out[code] = v * weight
    return _lowest_terms(out, out_den, modulus)


# ---------------------------------------------------------------------------
# first-order data: gradients and used variables

@lru_cache(maxsize=None)
def _linear_codes(n: int) -> MonomialCodes:
    return MonomialCodes(n, 1)


def series_gradient(
    e: Expr, point: Sequence, mode: Mode = EXACT, modulus: Modulus | None = None
) -> tuple[list[int], int]:
    """The gradient of e at point as ints, read off the degree-1 terms of
    the order-1 Taylor series: (values, den) in exact and modular mode,
    (values, unit) in float mode.

    Exact mode: integer_offset's numerators over the lcm den of the
    partials' denominators, so values / den is the gradient.  Modular mode
    (given the point's modulus): residues mod q over den = 1.  Float mode:
    taylor's mpf coefficients at the mode's precision held exactly as ints
    over one power of two (mpf_ints), so values * 2^unit is the gradient
    as mpmath computes it.  The expansion computes e itself, so a pole of e
    or a log outside its domain raises EvalError even where the partials
    are defined.  It is the one place a gradient is expanded: web_gradients
    calls it once per entry, and no relation build reads a gradient off its
    own, higher-order expansion.
    """
    codes = _linear_codes(len(point))
    if not mode.is_float:
        terms, den = integer_offset(e, point, codes, modulus)
        return [terms.get(unit, 0) for unit in codes.units], den
    import mpmath

    terms, zero = taylor(e, point, codes, mode), mpmath.mpf(0)
    return mpf_ints([terms.get(unit, zero) for unit in codes.units])


def common_unit(gradients: Sequence[tuple[list[int], int]]):
    """Float gradients (values, unit) from series_gradient held exactly at
    one unit, the lowest of theirs: (ints, unit)."""
    unit = min((u for _, u in gradients), default=0)
    return [[v << (u - unit) for v in g] for g, u in gradients], unit


def _zero_test_points(n: int):
    """vars_used's 8 seeded points, coordinates in [-3, 3] with
    denominators up to 64, drawn one at a time from one seeded stream: a
    caller that stops at the first point pays for that point only."""
    rng = random.Random(0x7EB5)
    for _ in range(8):
        point = []
        for _ in range(n):
            den = rng.randint(1, 64)
            point.append(Fraction(rng.randint(-3 * den, 3 * den), den))
        yield tuple(point)


def mode_for(integrals: Sequence[Expr], precision: int = DEFAULT_PRECISION) -> Mode:
    """The scalar model of a set of integrals: exact when every one is
    exp/log-free; modular when their only exp/log nodes are exp of
    exp/log-free arguments and no nonzero constant of theirs is 0 mod q,
    its numerator divisible by q (the probability bound of scalars needs
    coefficients that do not vanish mod q); else extended floats.
    precision is the float mode's, or its fallback's."""
    if not any(map(has_transcendental, integrals)):
        return EXACT
    if all(exp_arguments(u) is not None for u in integrals) and not any(
        c and c.numerator % MODULUS == 0 for u in integrals for c in constants(u)
    ):
        return Mode.modular(precision)
    return Mode.floating(precision)


def vars_used(e: Expr) -> set[int]:
    """Indices j whose partial derivative is not identically zero: nonzero
    at one of the _zero_test_points where e expands; all variables of e if
    it expands at none of them.  The test runs in mode_for([e]): exactly
    for an exp/log-free e; mod q for exp of exp/log-free arguments, where a
    nonzero residue proves the partial nonzero and a point that raises
    ModulusError takes the float test; for every other exp/log tree, above
    2^-64 at 128 bits, the one test that loads mpmath."""
    present = variables(e)
    mode = mode_for([e])
    used: set[int] = set()
    expanded = False
    for point in _zero_test_points(max(present, default=0)):
        try:
            used |= _nonzero_partials(e, point, mode)
        except EvalError:
            continue
        expanded = True
        if used == present:
            break
    return used if expanded else present


def _nonzero_partials(e: Expr, point: tuple, mode: Mode) -> set[int]:
    """vars_used's test at one point: the j whose partial of e is nonzero
    there, in mode (float at its precision where a modular one raises
    ModulusError)."""

    def partials(current: Mode) -> set[int]:
        modulus = modulus_at([(e, point)], point) if current.is_modular else None
        values, scale = series_gradient(e, point, current, modulus)
        if not current.is_float:
            return {j for j, v in enumerate(values, 1) if v}
        # |v| * 2^scale > 2^-(p//2), as |v| * 2^shift > 1 on ints
        shift = scale + current.precision // 2
        one = 1 << max(-shift, 0)
        return {j for j, v in enumerate(values, 1) if abs(v) << max(shift, 0) > one}

    return with_float_fallback(partials, mode)
