"""Balanced sets of generating webs and their assembled pullback webs.

A balanced set E of order k0 holds one generating web per arity k = 1..k0,
the k-ary web carrying monomial_count(k, k0-k) first integrals.  Pulling every
integral back along every coordinate projection of n-space and superposing
yields the assembled web of E in dimension n, whose entry count is
monomial_count(n, k0).

An entry's gradient is its generating integral's, read off the order-1
Taylor series at the projected point (tpoly.series_gradient), which also
checks the domain.  Gradients are ints in every mode.  Exact gradients are
the series' numerators, a positive multiple of the gradient that neither
the proportionality screen nor the jet ranks can see; modular gradients
are residues mod q at the point's one t0; float gradients are the
series' mpf values held exactly at one power-of-two unit for the whole
web, so the jet matrices built from them are exact products.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from fractions import Fraction

from .combin import binom, monomial_count
from .expr import (
    EvalError,
    Expr,
    MAX_POWER,
    exp_arguments,
    has_transcendental,
    largest_power,
    max_var_index,
    parse,
    rational,
    relabel,
    substitute,
)
from .report import (
    FALSE,
    INCONCLUSIVE,
    TRUE,
    VerificationReport,
    combine_verdicts,
    confirm,
)
from .frozen import Frozen
from .scalars import DEFAULT_PRECISION, EXACT, MODULUS, Mode, zero_tolerance
from .tpoly import common_unit, modulus_at, series_gradient, vars_used


class GeneratingWeb(Frozen):
    """A web on k-space given by an ordered tuple of first integrals."""

    __slots__ = ("k", "integrals")


class BalancedSet(Frozen):
    """Candidate balanced set: one generating web per arity 1..k0 (webs,
    a tuple of GeneratingWeb)."""

    __slots__ = ("k0", "webs")

    def generating_web(self, k: int) -> GeneratingWeb:
        if not 1 <= k <= self.k0:
            raise ValueError(f"no generating web of arity {k} (k0={self.k0})")
        return self.webs[k - 1]

    def all_integrals(self) -> list[Expr]:
        return [u for web in self.webs for u in web.integrals]

    def default_mode(self, precision: int = DEFAULT_PRECISION) -> Mode:
        """Exact when every integral is exp/log-free; modular when the only
        exp/log nodes are exp of exp/log-free arguments; else extended
        floats.  precision is the float mode's, or its fallback's."""
        integrals = self.all_integrals()
        if not any(map(has_transcendental, integrals)):
            return EXACT
        if all(exp_arguments(u) is not None for u in integrals):
            return Mode.modular(precision)
        return Mode.floating(precision)


def balanced_set(k0: int, webs_integrals: Sequence[Sequence[Expr]]) -> BalancedSet:
    """Assemble a BalancedSet from per-arity integral lists (index 0 is arity 1)."""
    if k0 < 2:
        raise ValueError(f"k0 must be >= 2, got {k0}")
    if len(webs_integrals) != k0:
        raise ValueError(f"expected {k0} generating webs, got {len(webs_integrals)}")
    webs = tuple(
        GeneratingWeb(k=k, integrals=tuple(integrals))
        for k, integrals in enumerate(webs_integrals, start=1)
    )
    return BalancedSet(k0=k0, webs=webs)


class WebEntry(Frozen):
    """One assembled first integral with its (k, a, b) label: the generating
    integral `generator` pulled back along the projection onto the
    coordinates `source` (a tuple of 1-based indices)."""

    __slots__ = ("label", "generator", "source")


class AssembledWeb(Frozen):
    """The superposed pullback web in dimension n, entries (a tuple of
    WebEntry) in (k, a, b) order."""

    __slots__ = ("n", "entries")

    @property
    def size(self) -> int:
        return len(self.entries)


def multi_indices(k: int, n: int) -> list[tuple[int, ...]]:
    """All strictly increasing k-tuples from {1..n}, lexicographically."""
    if not 1 <= k <= n:
        raise ValueError(f"multi_indices requires 1 <= k <= n, got k={k}, n={n}")
    return list(itertools.combinations(range(1, n + 1), k))


def assemble(E: BalancedSet, n: int) -> AssembledWeb:
    """Superpose the pullbacks of every generating web along every projection.

    Only arities k <= n contribute.  The entry count always equals
    monomial_count(n, k0).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    entries = []
    for k in range(1, min(n, E.k0) + 1):
        web = E.generating_web(k)
        for a, index in enumerate(multi_indices(k, n), start=1):
            for b, integral in enumerate(web.integrals, start=1):
                entries.append(WebEntry((k, a, b), integral, index))
    assembled = AssembledWeb(n=n, entries=tuple(entries))
    expected = monomial_count(n, E.k0)
    if assembled.size != expected:
        raise AssertionError(
            f"assembled web has {assembled.size} entries, expected {expected}"
        )
    return assembled


# ---------------------------------------------------------------------------
# differential helpers shared with the jet and rank layers

def gradients_proportional(g1, g2, mode: Mode) -> bool:
    """True when all 2x2 minors of the two gradient vectors vanish.

    In float mode a minor vanishes when it is at most 2^(-precision/2) times
    the product of the two gradients' largest components, computed at the
    mode's precision on mpf gradients.  No CLI job calls it; it stays as
    the oracle of proportional_pairs in the tests.
    """
    n = len(g1)
    if mode.is_exact:
        return all(
            g1[i] * g2[j] - g1[j] * g2[i] == 0
            for i in range(n)
            for j in range(i + 1, n)
        )
    with mode.workprec():
        tol = zero_tolerance(mode)
        return _minors_vanish(g1, _largest(g1), g2, _largest(g2), tol)


def _largest(g):
    """max |g_j|, the scale _minors_vanish compares minors against."""
    return max(map(abs, g))


def _minors_vanish(g1, top1, g2, top2, tol) -> bool:
    """Float minor test of gradients_proportional, given each gradient's
    largest |component| and the tolerance; runs at the caller's precision.
    _float_proportional_pairs falls back on it inside its rounding band,
    which no CLI job has met.
    """
    bound = top1 * top2
    if not bound:
        return True
    bound *= tol
    n = len(g1)
    return all(
        abs(g1[i] * g2[j] - g1[j] * g2[i]) <= bound
        for i in range(n)
        for j in range(i + 1, n)
    )


def proportional_pairs(
    gradients: Sequence[Sequence], mode: Mode
) -> list[tuple[int, int]]:
    """All index pairs (i, j), i < j, of proportional gradients, in order.

    The gradients are int vectors (web_gradients, series_gradient); exact
    mode also takes rationals.  Float mode decides each pair as
    gradients_proportional does on the mpf values the ints stand for, on
    exact integers (_float_proportional_pairs).  In exact mode two nonzero
    gradients are proportional iff they have the same _direction, so
    grouping by it finds every pair in O(d*n); a zero gradient is
    proportional to every other one.  Modular mode groups residue
    gradients by _residue_direction; an empty list mod q certifies that no
    pair is proportional at the point.
    """
    if mode.is_float:
        return _float_proportional_pairs(gradients, mode)
    direction = _direction if mode.is_exact else _residue_direction
    zeros = []
    groups: dict[tuple, list[int]] = {}
    for i, g in enumerate(gradients):
        key = direction(g)
        if key is None:
            zeros.append(i)
        else:
            groups.setdefault(key, []).append(i)
    pairs = {
        pair
        for members in groups.values()
        for pair in itertools.combinations(members, 2)
    }
    for z in zeros:
        pairs.update((min(z, i), max(z, i)) for i in range(len(gradients)) if i != z)
    return sorted(pairs)


def _float_proportional_pairs(gradients, mode: Mode) -> list[tuple[int, int]]:
    """proportional_pairs of float gradients given as ints, each standing
    for the int times a power of two of its own, so for mpf values with at
    most p bits of mantissa, p the mode's precision: the pairs the mpf
    minor test (_minors_vanish at precision p) accepts on those values,
    decided on ints.

    A power of two on either gradient scales its minors and the bound alike,
    in the ints and in the rounded mpf arithmetic, so neither test sees the
    units.  With T = top_i * top_j, the product of the two gradients'
    largest |components|, the mpf test accepts a pair when every minor d
    satisfies |round(d)| <= round(T) * 2^-(p//2), and the exact test asks
    |d| <= b with b = T * 2^-(p//2).  On the ints both are integer
    comparisons.

    Proof that the pairs are identical.  Rounding to nearest at p bits, the
    mpf minor rounds its two products, of magnitude at most T, by at most
    2^-p * T each, and their difference by at most 2^-p * (2 + 2^(1-p)) * T,
    so it differs from d by less than 2^(3-p) * T; round(T) differs from T
    by at most 2^-p * T, and 2^-(p//2) is exact.  Hence, if
    ||d| - b| > 2^(8-p) * T, both tests decide that minor the same way.
    Every minor is decided exactly unless one lies within that band, and
    then the pair is decided by the mpf test itself, on the ints as mpf
    (exact, as each has at most p significant bits); so each pair gets the
    mpf test's answer.  A zero gradient (T = 0) is proportional to every
    other one in both tests.  Outside the band a pair costs int products
    only, and the first minor above the bound ends it.
    """
    import mpmath

    precision = mode.precision
    tops = [max(map(abs, g), default=0) for g in gradients]
    n = len(gradients[0]) if gradients else 0
    minors = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = []
    for i, (gi, top_i) in enumerate(zip(gradients, tops)):
        for j in range(i + 1, len(gradients)):
            gj = gradients[j]
            both = top_i * tops[j]
            if not both:
                pairs.append((i, j))
                continue
            # minors scaled by 2^p against the bound T * 2^(p - p//2), with
            # the band 2^8 * T around it
            bound = both << (precision - precision // 2)
            band = both << 8
            low, high = bound - band, bound + band
            vanish = True
            for a, b in minors:
                d = abs(gi[a] * gj[b] - gi[b] * gj[a]) << precision
                if d < low:
                    continue
                vanish = False if d > high else None
                break
            if vanish is None:
                with mode.workprec():
                    g1 = list(map(mpmath.mpf, gi))
                    g2 = list(map(mpmath.mpf, gj))
                    vanish = _minors_vanish(
                        g1, _largest(g1), g2, _largest(g2), zero_tolerance(mode)
                    )
            if vanish:
                pairs.append((i, j))
    return pairs


def _direction(g) -> tuple[int, ...] | None:
    """The primitive int vector on the line of the int or rational vector g
    with its first nonzero component positive; None when g is zero."""
    den = math.lcm(*(v.denominator for v in g))
    g = [v.numerator * (den // v.denominator) for v in g]
    common = math.gcd(*g)
    if common and next(v for v in g if v) < 0:
        common = -common
    return tuple(v // common for v in g) if common else None


def _residue_direction(g) -> tuple[int, ...] | None:
    """The residue vector on the line of g mod q whose first nonzero
    component is 1; None when g is zero mod q."""
    first = next((v for v in g if v % MODULUS), None)
    if first is None:
        return None
    inverse = pow(first, -1, MODULUS)
    return tuple(v * inverse % MODULUS for v in g)


def web_gradients(W: AssembledWeb, point: Sequence, mode: Mode):
    """(gradients, unit): the gradient of every entry at point, as int
    vectors; EvalError is tagged with the entry's label.

    An entry's partial in x_source[j-1] is its generating integral's j-th
    partial at the point's `source` coordinates (tpoly.series_gradient),
    and its partial in any other variable is zero.  Exact gradients are the
    series' int numerators, each a positive multiple of the gradient, and
    unit is None.  Modular gradients are residues mod q, unit None.  Float
    gradients are the series' mpf values held exactly at one unit for all
    entries: gradient * 2^unit is the mpf gradient.
    """
    at = [[point[s - 1] for s in entry.source] for entry in W.entries]
    modulus = None
    if mode.is_modular:
        modulus = modulus_at(zip([e.generator for e in W.entries], at), point)
    out = []
    for entry, projected in zip(W.entries, at):
        try:
            values, scale = series_gradient(
                entry.generator, projected, mode, modulus
            )
        except EvalError as err:
            raise EvalError(f"entry {entry.label}: {err}") from None
        gradient = [0] * W.n
        for s, value in zip(entry.source, values):
            gradient[s - 1] = value
        out.append((gradient, scale))
    if not mode.is_float:
        return [gradient for gradient, _ in out], None
    return common_unit(out)


def sampled_gradients(W: AssembledWeb, sampler, mode: Mode):
    """Yield (point, gradients) for each point of sampler.points(W.n) where
    every entry is defined and no gradient vanishes; the gradients are
    web_gradients' int vectors."""
    for point in sampler.points(W.n):
        try:
            gradients, _ = web_gradients(W, point, mode)
        except EvalError:
            continue
        if any(not any(g) for g in gradients):
            continue
        yield point, gradients


# ---------------------------------------------------------------------------
# validation

def validate_balanced(
    E: BalancedSet, n_check: int, sampler, precision: int = DEFAULT_PRECISION
) -> VerificationReport:
    """Check the balanced-set definition and the web condition at one dimension.

    (a) each generating web carries monomial_count(k, k0-k) integrals;
    (b) every integral explicitly uses all of its k variables;
    (c) at a sampled generic point of n_check-space, the differentials of all
        assembled entries are pairwise non-proportional (in float mode at
        `precision` bits).
    """
    checks: list[dict] = []
    verdicts: list[str] = []
    mode = E.default_mode(precision)

    for k in range(1, E.k0 + 1):
        web = E.generating_web(k)
        expected = monomial_count(k, E.k0 - k)
        ok = len(web.integrals) == expected
        checks.append(
            {
                "check": "cardinality",
                "k": k,
                "expected": expected,
                "actual": len(web.integrals),
                "verdict": TRUE if ok else FALSE,
            }
        )
        verdicts.append(TRUE if ok else FALSE)
        for b, integral in enumerate(web.integrals, start=1):
            used = vars_used(integral)
            ok = used == set(range(1, k + 1))
            checks.append(
                {
                    "check": "all_variables_used",
                    "k": k,
                    "b": b,
                    "used": sorted(used),
                    "verdict": TRUE if ok else FALSE,
                }
            )
            verdicts.append(TRUE if ok else FALSE)

    if combine_verdicts(verdicts) == TRUE:
        verdict, mode = sampler.with_fallback(
            lambda current: _web_condition(E, n_check, sampler, current, checks),
            mode,
        )
        verdicts.append(verdict)
    else:
        checks.append(
            {
                "check": "web_condition",
                "n": n_check,
                "verdict": INCONCLUSIVE,
                "reason": "structural checks failed",
            }
        )
        verdicts.append(INCONCLUSIVE)

    return VerificationReport(
        name="validate_balanced",
        verdict=combine_verdicts(verdicts),
        checks=checks,
        witnesses={"n_check": n_check, "seed": sampler.seed, "mode": mode.label()},
    )


def _web_condition(E, n_check, sampler, mode, checks) -> str:
    """Pairwise non-proportional differentials at a sampled point of n_check-space.

    The verdict follows report.confirm over the sampled points.  Every point
    with proportional pairs is kept in the record under "proportional_points",
    and "point" / "proportional_pairs" describe the deciding point.
    """
    W = assemble(E, n_check)

    def outcomes():
        for point, gradients in sampled_gradients(W, sampler, mode):
            failures = [
                [list(W.entries[i].label), list(W.entries[j].label)]
                for i, j in proportional_pairs(gradients, mode)
            ]
            yield not failures, {
                "point": [str(c) for c in point],
                "proportional_pairs": failures,
            }

    verdict, failing, deciding = confirm(outcomes())
    record: dict = {"check": "web_condition", "n": n_check}
    if deciding is None:
        record["reason"] = f"no generic point found in {sampler.MAX_RETRIES} attempts"
    else:
        record.update(deciding)
    if failing:
        record["proportional_points"] = failing
    record["verdict"] = verdict
    checks.append(record)
    return verdict


def is_quasi_symmetric(E: BalancedSet, trials: int, sampler) -> dict[int, bool]:
    """Per-arity verdicts: is each generating web invariant under permutations?

    For every adjacent transposition, each permuted integral must define a
    foliation already present in the web, tested by gradient proportionality
    at `trials` sampled points.  Heuristic: a sampled "yes" is a
    probably-yes.  No CLI command reports it; it stays because
    quasi-symmetry is one of the paper's acceptance checks, which the tests
    run on every catalog family.
    """
    out: dict[int, bool] = {}
    mode = E.default_mode()
    for k in range(1, E.k0 + 1):
        web = E.generating_web(k)
        if k == 1:
            out[k] = True
            continue
        invariant = True
        for swap_at in range(1, k):
            positions = list(range(1, k + 1))
            positions[swap_at - 1], positions[swap_at] = (
                positions[swap_at],
                positions[swap_at - 1],
            )
            for integral in web.integrals:
                permuted = relabel(integral, positions)
                present, _ = sampler.with_fallback(
                    lambda current: _foliation_present(
                        permuted, web, k, trials, sampler, current
                    ),
                    mode,
                )
                if not present:
                    invariant = False
                    break
            if not invariant:
                break
        out[k] = invariant
    return out


def _foliation_present(candidate, web, k, trials, sampler, mode) -> bool:
    """Is candidate's gradient proportional to one member's at `trials` points?"""
    integrals = (candidate, *web.integrals)

    def samples():
        for point in sampler.points(k):
            try:
                modulus = None
                if mode.is_modular:
                    modulus = modulus_at([(u, point) for u in integrals], point)
                gradients = [
                    series_gradient(u, point, mode, modulus)[0] for u in integrals
                ]
            except EvalError:
                continue
            yield set(proportional_pairs(gradients, mode))

    pair_sets = list(itertools.islice(samples(), trials))
    if not pair_sets:
        return False
    return any(
        all((0, m) in pairs for pairs in pair_sets)
        for m in range(1, len(integrals))
    )


# ---------------------------------------------------------------------------
# generated families

def cross_ratio_family(f: Expr, marks: Sequence) -> BalancedSet:
    """Balanced set generated by specializing trailing arguments of f to marks.

    f has arity k0; marks is a list of k0-1 distinct finite rationals.  The
    arity-k web consists of f with every increasing choice of k0-k marks
    substituted for its last k0-k variables.
    """
    k0 = max_var_index(f)
    if k0 < 2:
        raise ValueError("generator must use at least two variables")
    mark_values = [Fraction(m) for m in marks]
    if len(mark_values) != k0 - 1:
        raise ValueError(
            f"need exactly {k0 - 1} marks for a generator of arity {k0}, "
            f"got {len(mark_values)}"
        )
    if len(set(mark_values)) != len(mark_values):
        raise ValueError("marks must be pairwise distinct")
    webs: list[list[Expr]] = []
    for k in range(1, k0 + 1):
        integrals = []
        for chosen in itertools.combinations(range(k0 - 1), k0 - k):
            mapping = {
                k + 1 + slot: rational(mark_values[i])
                for slot, i in enumerate(chosen)
            }
            integrals.append(substitute(f, mapping))
        expected = binom(k0 - 1, k0 - k)
        if len(integrals) != expected:
            raise AssertionError(
                f"arity {k}: generated {len(integrals)} integrals, expected {expected}"
            )
        webs.append(integrals)
    return balanced_set(k0, webs)


# ---------------------------------------------------------------------------
# web-definition files

def balanced_set_from_json(obj: dict) -> BalancedSet:
    if not isinstance(obj, dict) or "k0" not in obj or "webs" not in obj:
        raise ValueError('web definition must be {"k0": int, "webs": [[...], ...]}')
    k0 = obj["k0"]
    if not isinstance(k0, int):
        raise ValueError("k0 must be an integer")
    raw_webs = obj["webs"]
    if not isinstance(raw_webs, list) or len(raw_webs) != k0:
        raise ValueError(f"webs must list integral strings for each arity 1..{k0}")
    webs = []
    for k, raw in enumerate(raw_webs, start=1):
        if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
            raise ValueError(f"webs[{k - 1}] must be a list of integral strings")
        integrals = [parse(text, k) for text in raw]
        for text, e in zip(raw, integrals):
            if largest_power(e) > MAX_POWER:
                raise ValueError(
                    f"webs[{k - 1}]: {text!r} raises to a power above {MAX_POWER}"
                )
        webs.append(integrals)
    return balanced_set(k0, webs)


def load_balanced_set(path: str) -> BalancedSet:
    with open(path, "r", encoding="utf-8") as handle:
        return balanced_set_from_json(json.load(handle))
