"""Expression trees for first integrals.

The node set is deliberately small: rational constants, indexed variables,
sums, products, quotients, negation, integer powers, exp and log.  Trees are
immutable; construction goes through the folding constructors below, which
flatten nested sums/products and evaluate constant subexpressions, but never
reassociate or otherwise simplify.

The text grammar (parse/to_text) is a stable interface: variables x1..xN,
integer and decimal literals, + - * / ^ with the usual precedence
(^ binds tighter than unary minus, which binds tighter than * and /),
^ right-associative with integer-literal exponents, exp(...) and log(...).

The pipeline never differentiates or evaluates a tree here: values,
gradients and relation rows all come from its Taylor expansion
(webrank.tpoly).  Symbolic differentiation (diff) and direct evaluation
(evaluate) stay as the independent oracles the tests hold that expansion
to.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .frozen import Frozen
from .scalars import EXACT, Mode, to_mpf


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    """A malformed expression string from outside input (the CLI exits 65)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    """A pole, a log of a non-positive value, or a scalar-model mismatch."""


class Expr(Frozen):
    """Base class for expression nodes.  Each concrete node is an immutable
    record (frozen.Frozen) whose fields are its __slots__, so two trees are
    equal, and hash alike, when their node classes and fields match."""

    __slots__ = ()


class Variable(Expr):
    __slots__ = ("index",)  # 1-based int


class RationalConst(Expr):
    __slots__ = ("value",)  # Fraction


class Sum(Expr):
    __slots__ = ("terms",)  # tuple of nodes


class Product(Expr):
    __slots__ = ("factors",)  # tuple of nodes


class Quotient(Expr):
    __slots__ = ("numerator", "denominator")


class Neg(Expr):
    __slots__ = ("child",)


class IntPower(Expr):
    __slots__ = ("base", "exponent")  # exponent: int


class Exp(Expr):
    __slots__ = ("child",)


class Log(Expr):
    __slots__ = ("child",)


# ---------------------------------------------------------------------------
# folding constructors

def rational(value) -> RationalConst:
    return RationalConst(Fraction(value))


_ZERO = rational(0)
_ONE = rational(1)


def sum_of(terms: Iterable[Expr]) -> Expr:
    """Sum with flattening of nested sums and merging of constant terms."""
    flat: list[Expr] = []
    const = Fraction(0)
    for term in terms:
        if isinstance(term, Sum):
            for sub in term.terms:
                if isinstance(sub, RationalConst):
                    const += sub.value
                else:
                    flat.append(sub)
        elif isinstance(term, RationalConst):
            const += term.value
        else:
            flat.append(term)
    if not flat:
        return rational(const)
    if const != 0:
        flat.append(rational(const))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def product_of(factors: Iterable[Expr]) -> Expr:
    """Product with flattening, constant folding, and 0/1 absorption."""
    flat: list[Expr] = []
    const = Fraction(1)
    for factor in factors:
        if isinstance(factor, Product):
            for sub_ in factor.factors:
                if isinstance(sub_, RationalConst):
                    const *= sub_.value
                else:
                    flat.append(sub_)
        elif isinstance(factor, RationalConst):
            const *= factor.value
        else:
            flat.append(factor)
    if const == 0:
        return _ZERO
    if not flat:
        return rational(const)
    if const != 1:
        flat.insert(0, rational(const))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def quotient(numerator: Expr, denominator: Expr) -> Expr:
    if isinstance(denominator, RationalConst):
        if denominator.value == 0:
            raise ZeroDivisionError("division by constant zero")
        return product_of([numerator, rational(1 / denominator.value)])
    if isinstance(numerator, RationalConst) and numerator.value == 0:
        return _ZERO
    return Quotient(numerator, denominator)


def neg(e: Expr) -> Expr:
    if isinstance(e, RationalConst):
        return rational(-e.value)
    if isinstance(e, Neg):
        return e.child
    return Neg(e)


def int_power(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int):
        raise TypeError(f"exponent must be an integer, got {exponent!r}")
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, RationalConst):
        if base.value == 0 and exponent < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        return rational(base.value**exponent)
    return IntPower(base, exponent)


def exp_of(e: Expr) -> Expr:
    return Exp(e)


def log_of(e: Expr) -> Expr:
    """A log node; no catalog family uses log, only input files do."""
    return Log(e)


# ---------------------------------------------------------------------------
# structural queries

def _children(e: Expr) -> tuple:
    """The subtrees of a node, in tree order: () for a variable or a
    constant, the operands of a sum, product or quotient, the base of a
    power (its exponent is an int, not a node), the argument of a negation,
    exp or log.  Raises TypeError for anything that is not a node."""
    if isinstance(e, (Variable, RationalConst)):
        return ()
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Quotient):
        return (e.numerator, e.denominator)
    if isinstance(e, IntPower):
        return (e.base,)
    if isinstance(e, (Neg, Exp, Log)):
        return (e.child,)
    raise TypeError(f"not an expression node: {e!r}")


def variables(e: Expr) -> set[int]:
    """Indices of the variables syntactically present in the tree."""
    if isinstance(e, Variable):
        return {e.index}
    return set().union(*map(variables, _children(e)))


def max_var_index(e: Expr) -> int:
    """Largest variable index syntactically present (0 for constant trees)."""
    return max(variables(e), default=0)


def has_transcendental(e: Expr) -> bool:
    """True if the tree contains an exp or log node."""
    return isinstance(e, (Exp, Log)) or any(map(has_transcendental, _children(e)))


def exp_arguments(e: Expr) -> list[Expr] | None:
    """The arguments of e's exp nodes, in tree order, when every exp/log
    node of e is an exp of an exp/log-free argument, the trees modular
    mode expands (an empty list for an exp/log-free tree); None otherwise."""
    if isinstance(e, Exp):
        return None if has_transcendental(e.child) else [e.child]
    if isinstance(e, Log):
        return None
    out: list[Expr] = []
    for part in _children(e):
        found = exp_arguments(part)
        if found is None:
            return None
        out += found
    return out


def largest_power(e: Expr) -> int:
    """The largest product of |exponents| along a chain of nested powers,
    1 for a tree without powers: (x1^3)^4 gives 12.  The Taylor series of
    e raises values to powers of that order, so this bounds its cost."""
    if isinstance(e, IntPower):
        return abs(e.exponent) * largest_power(e.base)
    return max(map(largest_power, _children(e)), default=1)


def constants(e: Expr) -> list[Fraction]:
    """The values of e's constant nodes, in tree order; a power's exponent
    is an int of its node, not a constant.  A 0 may be among them, since
    exp(0) is not folded."""
    if isinstance(e, RationalConst):
        return [e.value]
    return [c for part in _children(e) for c in constants(part)]


def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace each Variable(j) with mapping[j]; unmapped variables stay."""
    if isinstance(e, Variable):
        return mapping.get(e.index, e)
    if isinstance(e, RationalConst):
        return e
    if isinstance(e, Sum):
        return sum_of(substitute(t, mapping) for t in e.terms)
    if isinstance(e, Product):
        return product_of(substitute(f, mapping) for f in e.factors)
    if isinstance(e, Quotient):
        return quotient(
            substitute(e.numerator, mapping), substitute(e.denominator, mapping)
        )
    if isinstance(e, Neg):
        return neg(substitute(e.child, mapping))
    if isinstance(e, IntPower):
        return int_power(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Exp):
        return exp_of(substitute(e.child, mapping))
    if isinstance(e, Log):
        return log_of(substitute(e.child, mapping))
    raise TypeError(f"not an expression node: {e!r}")


def relabel(e: Expr, positions: Sequence[int]) -> Expr:
    """Send the j-th formal variable to Variable(positions[j-1]); for
    is_quasi_symmetric and the tests' pulled-back integrals, which no CLI
    job builds."""
    return substitute(e, {j + 1: Variable(p) for j, p in enumerate(positions)})


# ---------------------------------------------------------------------------
# differentiation

def diff(e: Expr, j: int) -> Expr:
    """Symbolic partial derivative with respect to variable j, folded; the
    tests' oracle for the series gradients (see the module docstring)."""
    if j < 1:
        raise ValueError(f"variable index must be >= 1, got {j}")
    if isinstance(e, Variable):
        return _ONE if e.index == j else _ZERO
    if isinstance(e, RationalConst):
        return _ZERO
    if isinstance(e, Sum):
        return sum_of(diff(t, j) for t in e.terms)
    if isinstance(e, Product):
        terms = []
        for i, factor in enumerate(e.factors):
            dfactor = diff(factor, j)
            if isinstance(dfactor, RationalConst) and dfactor.value == 0:
                continue
            terms.append(
                product_of([*e.factors[:i], dfactor, *e.factors[i + 1 :]])
            )
        return sum_of(terms)
    if isinstance(e, Quotient):
        num, den = e.numerator, e.denominator
        top = sum_of(
            [
                product_of([diff(num, j), den]),
                neg(product_of([num, diff(den, j)])),
            ]
        )
        return quotient(top, int_power(den, 2))
    if isinstance(e, Neg):
        return neg(diff(e.child, j))
    if isinstance(e, IntPower):
        return product_of(
            [rational(e.exponent), int_power(e.base, e.exponent - 1), diff(e.base, j)]
        )
    if isinstance(e, Exp):
        return product_of([e, diff(e.child, j)])
    if isinstance(e, Log):
        return quotient(diff(e.child, j), e.child)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, point: Sequence, mode: Mode = EXACT):
    """Value of e at point (point[j-1] feeds Variable(j)).

    Exact mode returns a Fraction and rejects exp/log nodes; float mode
    returns an mpf computed at the mode's precision.  The tests' oracle
    for the series values (see the module docstring).
    """
    point = tuple(map(Fraction, point))
    if mode.is_exact:
        return _eval(e, point, Fraction)
    with mode.workprec():
        return _eval(e, tuple(map(to_mpf, point)), to_mpf)


def _eval(e: Expr, point: tuple, scalar):
    """The value of e, its constants converted by `scalar`: Fraction, or
    to_mpf at the caller's precision."""
    if isinstance(e, Variable):
        if e.index > len(point):
            raise EvalError(
                f"point of length {len(point)} cannot feed variable x{e.index}"
            )
        return point[e.index - 1]
    if isinstance(e, RationalConst):
        return scalar(e.value)
    if isinstance(e, Sum):
        out = scalar(0)
        for t in e.terms:
            out += _eval(t, point, scalar)
        return out
    if isinstance(e, Product):
        out = scalar(1)
        for f in e.factors:
            out *= _eval(f, point, scalar)
        return out
    if isinstance(e, Quotient):
        den = _eval(e.denominator, point, scalar)
        if den == 0:
            raise EvalError("division by zero")
        return _eval(e.numerator, point, scalar) / den
    if isinstance(e, Neg):
        return -_eval(e.child, point, scalar)
    if isinstance(e, IntPower):
        base = _eval(e.base, point, scalar)
        if base == 0 and e.exponent < 0:
            raise EvalError("division by zero")
        return base**e.exponent
    if isinstance(e, (Exp, Log)):
        if scalar is Fraction:
            raise EvalError("exact mode cannot evaluate exp/log nodes")
        import mpmath

        arg = _eval(e.child, point, scalar)
        if isinstance(e, Exp):
            return mpmath.exp(arg)
        if arg <= 0:
            raise EvalError("log of a non-positive value")
        return mpmath.log(arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# printing

_LEVEL_SUM = 1
_LEVEL_TERM = 2
_LEVEL_UNARY = 3
_LEVEL_POWER = 4
_LEVEL_ATOM = 5


def _node_level(e: Expr) -> int:
    if isinstance(e, Sum):
        return _LEVEL_SUM
    if isinstance(e, (Product, Quotient)):
        return _LEVEL_TERM
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, IntPower):
        return _LEVEL_POWER
    return _LEVEL_ATOM


def _render(e: Expr, min_level: int) -> str:
    text = _render_bare(e)
    if _node_level(e) < min_level:
        return f"({text})"
    return text


def _render_bare(e: Expr) -> str:
    if isinstance(e, Variable):
        return f"x{e.index}"
    if isinstance(e, RationalConst):
        return str(e.value)
    if isinstance(e, Sum):
        parts = [_render(e.terms[0], _LEVEL_TERM)]
        for term in e.terms[1:]:
            if isinstance(term, Neg):
                parts.append(f" - {_render(term.child, _LEVEL_UNARY)}")
            elif isinstance(term, RationalConst) and term.value < 0:
                parts.append(f" - {-term.value}")
            else:
                parts.append(f" + {_render(term, _LEVEL_TERM)}")
        return "".join(parts)
    if isinstance(e, Product):
        return "*".join(_render(f, _LEVEL_UNARY) for f in e.factors)
    if isinstance(e, Quotient):
        return (
            f"{_render(e.numerator, _LEVEL_TERM)}/"
            f"{_render(e.denominator, _LEVEL_UNARY)}"
        )
    if isinstance(e, Neg):
        return f"-{_render(e.child, _LEVEL_POWER)}"
    if isinstance(e, IntPower):
        exponent = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{_render(e.base, _LEVEL_ATOM)}^{exponent}"
    if isinstance(e, Exp):
        return f"exp({_render(e.child, _LEVEL_SUM)})"
    if isinstance(e, Log):
        return f"log({_render(e.child, _LEVEL_SUM)})"
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Grammar-conformant rendering; parse(to_text(e)) reproduces e."""
    return _render(e, 0)


# ---------------------------------------------------------------------------
# parsing

# The parser's own bound: it refuses an exponent tower before computing a
# value beyond it.  Web definitions are held to MAX_POWER (largest_power).
# The parser folds a constant raised to a power, so largest_power never
# sees it: the parser itself refuses, before computing it, a constant power
# whose exponent exceeds MAX_POWER or whose value would exceed
# MAX_CONSTANT_BITS bits (a 64-bit constant to the power MAX_POWER), the
# size bound that holds nested constant powers too.  0 and +-1 stay legal.
_MAX_EXPONENT = 1_000_000
MAX_POWER = 1000
MAX_CONSTANT_BITS = 64 * MAX_POWER


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < length and text[i].isdigit():
                i += 1
            if i + 1 < length and text[i] == "." and text[i + 1].isdigit():
                i += 1
                while i < length and text[i].isdigit():
                    i += 1
            tokens.append(_Token("number", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < length and text[i].isalnum():
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", length))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], arity: int):
        self.tokens = tokens
        self.arity = arity
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}", token.pos
            )
        return self.advance()

    def expression(self) -> Expr:
        result = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            result = sum_of([result, rhs if op.kind == "+" else neg(rhs)])
        return result

    def term(self) -> Expr:
        result = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            if op.kind == "*":
                result = product_of([result, rhs])
            else:
                try:
                    result = quotient(result, rhs)
                except ZeroDivisionError:
                    raise ParseError("division by constant zero", op.pos) from None
        return result

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            op = self.advance()
            exponent = self.exponent()
            if isinstance(base, RationalConst) and abs(base.value) not in (0, 1):
                value = base.value
                if abs(exponent) > MAX_POWER:
                    raise ParseError(
                        f"constant raised to a power above {MAX_POWER}", op.pos
                    )
                bits = max(value.numerator.bit_length(), value.denominator.bit_length())
                if abs(exponent) * bits > MAX_CONSTANT_BITS:
                    raise ParseError(
                        f"constant power above {MAX_CONSTANT_BITS} bits", op.pos
                    )
            try:
                return int_power(base, exponent)
            except ZeroDivisionError:
                raise ParseError("zero raised to a negative power", op.pos) from None
        return base

    def exponent(self) -> int:
        token = self.peek()
        if token.kind == "(":
            self.advance()
            value = self.exponent()
            self.expect(")")
            return value
        sign = 1
        if token.kind == "-":
            self.advance()
            sign = -1
            token = self.peek()
        if token.kind != "number" or "." in token.text:
            raise ParseError("exponent must be an integer literal", token.pos)
        self.advance()
        value = sign * int(token.text)
        if self.peek().kind == "^":
            caret = self.advance()
            upper = self.exponent()
            if upper < 0:
                raise ParseError("exponent tower is not an integer", caret.pos)
            if abs(value) > 1 and upper >= _MAX_EXPONENT.bit_length():
                # |value|^upper >= 2^upper exceeds the bound: refuse it
                # before computing it
                raise ParseError(f"exponent exceeds {_MAX_EXPONENT}", token.pos)
            value = value**upper
        if abs(value) > _MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {_MAX_EXPONENT}", token.pos)
        return value

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return rational(Fraction(token.text))
        if token.kind == "ident":
            self.advance()
            name = token.text
            if name in ("exp", "log"):
                self.expect("(")
                inner = self.expression()
                self.expect(")")
                return exp_of(inner) if name == "exp" else log_of(inner)
            if name[0] == "x" and len(name) > 1 and name[1:].isdigit():
                index = int(name[1:])
                if index < 1:
                    raise ParseError("variable index must be >= 1", token.pos)
                if index > self.arity:
                    raise ParseError(
                        f"variable {name} exceeds arity {self.arity}", token.pos
                    )
                return Variable(index)
            raise ParseError(f"unknown identifier {name!r}", token.pos)
        if token.kind == "(":
            self.advance()
            inner = self.expression()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a value, found {token.text or 'end of input'!r}", token.pos
        )


def parse(text: str, arity: int) -> Expr:
    """Parse a first-integral expression over variables x1..x<arity>."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    parser = _Parser(_tokenize(text), arity)
    result = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r} after expression", trailing.pos)
    return result
