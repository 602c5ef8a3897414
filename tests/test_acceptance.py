"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here: exact arithmetic wherever a
family is exp/log-free, 128-bit floats otherwise with the pivot-gap rule
built into the rank kernels (escalation would show up as a float256 method
label and is asserted absent at the default seed).
"""

import time
from fractions import Fraction

import pytest

from webrank.abelrank import generic_point_for_web, rank_estimate, verify_max_rank
from webrank.catalog import family_names, get_family
from webrank.combin import (
    calibrated_max_rank,
    exact_support_dims,
    max_rank_bound,
    verify_counting_identities,
)
from webrank.expr import parse
from webrank.ordinary import (
    GenericPointSampler,
    check_finite_criterion,
    check_ordinary_at,
    crosscheck_ordinary,
)
from webrank.report import FALSE, TRUE
from webrank.scalars import EXACT, Mode
from webrank.web import assemble, balanced_set

from helpers import perturb_family, permute_ambient, reparametrize_entry
from test_abelrank import homogeneous_kernel_dim

ALL_FAMILIES = family_names()

MODULAR = Mode.modular().label()  # k0_4_exp's mode


def _report(number: int, label: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]")


def counterexample_family():
    return balanced_set(
        4,
        [
            [parse("x1", 1)],
            [parse("x1+x2", 2), parse("x1-x2", 2), parse("x1*x2", 2)],
            [
                parse("x1+x2+x3", 3),
                parse("x1+2*x2+3*x3", 3),
                parse("2*x1+3*x2+4*x3", 3),
            ],
            [parse("x1+x2+x3+x4", 4)],
        ],
    )


def test_criterion_1_counting_identities_exact():
    start = time.perf_counter()
    for k0 in range(2, 7):
        ok, counterexample = verify_counting_identities(k0, n_max=20, h_max=12)
        assert ok, counterexample
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (limit 1s)"
    _report(1, "counting identities, exact", elapsed)


def test_criterion_2_derived_counts():
    start = time.perf_counter()
    assert calibrated_max_rank(2, 3) == 3
    assert calibrated_max_rank(3, 3) == 11
    assert calibrated_max_rank(4, 3) == 26
    assert calibrated_max_rank(2, 4) == 6
    assert calibrated_max_rank(3, 4) == 26
    assert calibrated_max_rank(4, 4) == 71
    assert calibrated_max_rank(5, 4) == 155
    assert exact_support_dims(3, 3).N_values[3] == 2
    table4 = exact_support_dims(4, 4).N_values
    assert table4[3] == 8 and table4[4] == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s (limit 1s)"
    _report(2, "derived counting values", elapsed)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_criterion_3_ordinariness_per_family(name):
    start = time.perf_counter()
    E, _ = get_family(name)
    sampler = GenericPointSampler(seed=0)
    criterion = check_finite_criterion(E, sampler)
    assert criterion.verdict == TRUE, f"{name}: finite criterion {criterion.verdict}"
    assert criterion.witnesses["mode"] in ("exact", MODULAR)
    for check in criterion.checks:
        assert "precision" not in check["witness"], f"{name}: fell back to float"
    for n in sorted({2, 3, E.k0, E.k0 + 1}):
        direct = check_ordinary_at(E, n, sampler)
        assert direct.verdict == TRUE, f"{name}: direct check failed at n={n}"
        assert direct.witnesses["certifying_point"]["mode"] in ("exact", MODULAR)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"{name} took {elapsed:.1f}s (limit 30s per family)"
    _report(3, f"ordinariness, {name}", elapsed)


def test_criterion_4_equivalence_catalog_and_perturbations():
    start = time.perf_counter()
    for name in ALL_FAMILIES:
        E, _ = get_family(name)
        report = crosscheck_ordinary(
            E, [E.k0, E.k0 + 1], GenericPointSampler(seed=0)
        )
        assert report.verdict == TRUE, f"{name}: {report.verdict}"
    for i in range(20):
        base = ALL_FAMILIES[i % len(ALL_FAMILIES)]
        E, _ = get_family(base)
        perturbed = perturb_family(E, seed=1000 + i)
        report = crosscheck_ordinary(
            perturbed, [E.k0, E.k0 + 1], GenericPointSampler(seed=i)
        )
        assert report.verdict == TRUE, f"perturbation {i} of {base}: {report.verdict}"
    bad = counterexample_family()
    criterion = check_finite_criterion(bad, GenericPointSampler(seed=0))
    direct = check_ordinary_at(bad, 4, GenericPointSampler(seed=0))
    assert criterion.verdict == FALSE and direct.verdict == FALSE
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s (limit 5min)"
    _report(4, "two-route equivalence, catalog + 20 perturbations", elapsed)


_RANK_REPORTS: dict[str, object] = {}


def _rank_report(name):
    if name not in _RANK_REPORTS:
        E, _ = get_family(name)
        _RANK_REPORTS[name] = verify_max_rank(
            E, GenericPointSampler(seed=0), corroborate=(E.k0 == 3)
        )
    return _RANK_REPORTS[name]


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_criterion_5_maximal_rank_per_family(name):
    start = time.perf_counter()
    E, _ = get_family(name)
    report = _rank_report(name)
    assert report.verdict == TRUE, f"{name}: {report.verdict}"
    for check in report.checks:
        assert check["value"] == calibrated_max_rank(check["n"], E.k0)
        assert check["stabilized_at"] is not None
        assert check["method"] in ("exact", MODULAR), f"{name}: fell back to float"
    if E.k0 == 3:
        assert {c["n"] for c in report.checks} == {2, 3, 4}
    if name == "k0_4_exp":
        five_web = next(c for c in report.checks if c["n"] == 2)
        assert five_web["value"] == 6 == calibrated_max_rank(2, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"{name} took {elapsed:.1f}s (limit 5min per family)"
    _report(5, f"maximal rank, {name}", elapsed)


def test_criterion_6_support_decomposition_tables():
    start = time.perf_counter()
    for name in ALL_FAMILIES:
        E, _ = get_family(name)
        report = _rank_report(name)
        empirical = report.witnesses["N_table_empirical"]
        assert empirical == exact_support_dims(E.k0, E.k0).N_values, name
        assert report.witnesses["N_table_match"] is True
    elapsed = time.perf_counter() - start
    _report(6, "empirical support tables match the counting recursion", elapsed)


def test_criterion_7_invariance_suite():
    start = time.perf_counter()

    # (a) seed invariance: finite criterion for every family at two seeds,
    # rank estimates for one exact and one float family
    for name in ALL_FAMILIES:
        E, _ = get_family(name)
        verdicts = {
            check_finite_criterion(E, GenericPointSampler(seed=seed)).verdict
            for seed in (0, 1)
        }
        assert verdicts == {TRUE}, f"{name}: seed-dependent verdict"
    quadrics, _ = get_family("k0_3_quadrics")
    for seed in (0, 1):
        report = verify_max_rank(quadrics, GenericPointSampler(seed=seed))
        assert report.verdict == TRUE
    exp_family, _ = get_family("k0_4_exp")
    exp_mode = exp_family.default_mode()
    W5 = assemble(exp_family, 2)
    values = set()
    for seed in (0, 1):
        point = generic_point_for_web(W5, GenericPointSampler(seed=seed), exp_mode)
        values.add(rank_estimate(W5, point, 5, 9, exp_mode).value)
    assert values == {6}

    # (b) reparametrization u -> u^3 + u of single integrals
    W3 = assemble(quadrics, 3)
    point = generic_point_for_web(W3, GenericPointSampler(seed=0), EXACT)
    for index in (0, 3, 9):
        changed = reparametrize_entry(W3, index)
        estimate = rank_estimate(changed, point, 4, 8, EXACT)
        assert estimate.value == 11, f"reparametrized entry {index}"
    wb, _ = get_family("k0_4_WB_sum")
    Wwb = assemble(wb, 3)
    point = generic_point_for_web(Wwb, GenericPointSampler(seed=0), EXACT)
    estimate = rank_estimate(reparametrize_entry(Wwb, 5), point, 5, 9, EXACT)
    assert estimate.value == 26

    # (c) ambient permutations of quasi-symmetric families
    for name, n, expected in [
        ("k0_3_quadrics", 3, 11),
        ("k0_4_pereira_pirio_affine", 2, 6),
    ]:
        E, _ = get_family(name)
        W = assemble(E, n)
        positions = list(range(2, n + 1)) + [1]
        permuted = permute_ambient(W, positions)
        point = generic_point_for_web(permuted, GenericPointSampler(seed=0), EXACT)
        estimate = rank_estimate(permuted, point, E.k0 + 1, E.k0 + 5, EXACT)
        assert estimate.value == expected, f"{name} permuted"
    permuted_quadrics = permute_ambient(assemble(quadrics, 3), [2, 3, 1])
    from webrank.ordinary import jet_ranks_at_point

    point = generic_point_for_web(
        permuted_quadrics, GenericPointSampler(seed=0), EXACT
    )
    ranks, _ = jet_ranks_at_point(permuted_quadrics, point, EXACT, 3)
    assert ranks == {1: 3, 2: 6, 3: 10}

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s (limit 5min)"
    _report(7, "seed / reparametrization / permutation invariance", elapsed)


def test_criterion_8_brute_force_oracle_agreement():
    start = time.perf_counter()
    quadrics, _ = get_family("k0_3_quadrics")
    W = assemble(quadrics, 2)  # the parallel 4-web {x1, x2, x1+x2, x1-x2}
    estimate = rank_estimate(W, (Fraction(0), Fraction(0)), 1, 8, EXACT)
    degreewise = [
        estimate.dims[1],
        estimate.dims[2] - estimate.dims[1],
        estimate.dims[3] - estimate.dims[2],
    ]
    oracle = [homogeneous_kernel_dim(m) for m in (1, 2, 3)]
    assert oracle == [2, 1, 0]
    assert degreewise == oracle
    assert estimate.value == 3 == max_rank_bound(2, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 8 took {elapsed:.2f}s (limit 1s)"
    _report(8, "independent homogeneous brute-force oracle", elapsed)
