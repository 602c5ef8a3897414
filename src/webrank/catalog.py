"""Built-in balanced-set families with their expected verification outcomes.

Every entry records the family's expression strings, its expected verdicts
(all of these are classically known to be ordinary of maximal rank), and a
short provenance note.  Alternative choices for the top generating web are
separate named variants; the unsuffixed names alias their first variant.
"""

from __future__ import annotations

from .expr import parse, to_text
from .frozen import Frozen
from .web import BalancedSet, balanced_set, cross_ratio_family


class FamilySpec(Frozen):
    """Catalog entry: expressions per arity (webs, a tuple of string tuples)
    plus the expected outcomes (bools) and a provenance note."""

    __slots__ = (
        "name",
        "k0",
        "webs",
        "expected_ordinary",
        "expected_max_rank",
        "provenance",
    )


def _crossratio_webs() -> tuple[tuple[str, ...], ...]:
    family = cross_ratio_family(parse("(x1-x3)/(x2-x3)", 3), [0, 1])
    return tuple(tuple(to_text(u) for u in web.integrals) for web in family.webs)


def _entry(name, webs, provenance) -> FamilySpec:
    return FamilySpec(
        name=name,
        k0=len(webs),
        webs=tuple(tuple(w) for w in webs),
        expected_ordinary=True,
        expected_max_rank=True,
        provenance=provenance,
    )


_WB_BASE = (
    ("x1",),
    ("x1+x2", "x1-x2", "x1*x2"),
    ("x1+x2+x3", "x1^2+x2^2+x3^2", "x1*x2*x3"),
)

_FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in [
        _entry(
            "k0_2_linear",
            (("x1",), ("x1+x2",)),
            "coordinate lines and diagonals; every assembled web is linearizable",
        ),
        _entry(
            "k0_3_quadrics",
            (("x1",), ("x1+x2", "x1-x2"), ("x1^2+x2^2+x3^2",)),
            "pair sums and differences topped by the round quadric",
        ),
        _entry(
            "k0_3_sym_sum",
            (("x1",), ("x1+x2", "x1*x2"), ("x1+x2+x3",)),
            "elementary symmetric functions, sum on top",
        ),
        _entry(
            "k0_3_sym_prod",
            (("x1",), ("x1+x2", "x1*x2"), ("x1*x2*x3",)),
            "elementary symmetric functions, product on top",
        ),
        _entry(
            "k0_3_moebius_sum",
            (
                ("x1",),
                ("x1*x2", "(x1-1)*(x2-1)/((x1+1)*(x2+1))"),
                ("x1+x2+x3",),
            ),
            "products and a Moebius-type ratio, sum on top",
        ),
        _entry(
            "k0_3_moebius_prod",
            (
                ("x1",),
                ("x1*x2", "(x1-1)*(x2-1)/((x1+1)*(x2+1))"),
                ("(x1-1)*(x2-1)*(x3-1)/((x1+1)*(x2+1)*(x3+1))",),
            ),
            "products and Moebius-type ratios at both levels",
        ),
        _entry(
            "k0_3_harmonic_sum",
            (("x1",), ("x1+x2", "1/x1+1/x2"), ("x1+x2+x3",)),
            "sums and harmonic sums, sum on top",
        ),
        _entry(
            "k0_3_harmonic_inv",
            (("x1",), ("x1+x2", "1/x1+1/x2"), ("1/x1+1/x2+1/x3",)),
            "sums and harmonic sums at both levels",
        ),
        _entry(
            "k0_3_crossratio_affine",
            _crossratio_webs(),
            "generated from the three-point ratio with marks 0 and 1; the "
            "assembled webs are linearizable",
        ),
        _entry(
            "k0_4_WB_sum",
            (*_WB_BASE, ("x1+x2+x3+x4",)),
            "WB series (Pirio's planar 5-web at n=2), sum on top",
        ),
        _entry(
            "k0_4_WB_quad",
            (*_WB_BASE, ("x1^2+x2^2+x3^2+x4^2",)),
            "WB series, quadric on top",
        ),
        _entry(
            "k0_4_WB_prod",
            (*_WB_BASE, ("x1*x2*x3*x4",)),
            "WB series, product on top",
        ),
        _entry(
            "k0_4_exp",
            (
                ("x1",),
                ("x1+x2", "x1-x2", "exp(x1)+exp(x2)"),
                ("x1+x2+x3", "x1+x2-x3", "exp(x1)+exp(x2)+exp(x3)"),
                ("x1+x2+x3+x4",),
            ),
            "exponential family (a quasi-linear maximal-rank planar 5-web "
            "at n=2)",
        ),
        _entry(
            "k0_4_pereira_pirio_affine",
            (
                ("1-x1",),
                ("x1/x2", "(x1-1)/(x2-1)", "x1*(x2-1)/(x2*(x1-1))"),
                (
                    "x2*(x1-x3)/(x1*(x2-x3))",
                    "(x1-x3)*(x2-1)/((x2-x3)*(x1-1))",
                    "(x1-x3)/(x2-x3)",
                ),
                ("(x1-x3)*(x2-x4)/((x2-x3)*(x1-x4))",),
            ),
            "Pereira-Pirio arrangement webs written in affine coordinates "
            "(Bol's 5-web at n=2)",
        ),
    ]
}

_ALIASES = {
    "k0_3_sym": "k0_3_sym_sum",
    "k0_3_moebius": "k0_3_moebius_sum",
    "k0_3_harmonic": "k0_3_harmonic_sum",
    "k0_4_WB": "k0_4_WB_sum",
}


def family_names() -> list[str]:
    """Canonical catalog names (aliases excluded), in catalog order."""
    return list(_FAMILIES)


def get_family(name: str) -> tuple[BalancedSet, FamilySpec]:
    """Look up a family (or alias) and build its balanced set."""
    spec = _FAMILIES.get(_ALIASES.get(name, name))
    if spec is None:
        known = ", ".join(family_names())
        raise KeyError(f"unknown family {name!r}; known families: {known}")
    webs = [
        [parse(text, k) for text in integrals]
        for k, integrals in enumerate(spec.webs, start=1)
    ]
    return balanced_set(spec.k0, webs), spec
