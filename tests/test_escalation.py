"""Precision escalation of float ranks on marginal pivots.

A float rank whose pivot decisions are marginal is retried at twice the
precision, up to ESCALATION_LIMIT bits; past it the rank estimate, the
finite criterion and the direct check all answer without a float verdict.
"""

import json

import pytest

from webrank import linalg
from webrank.abelrank import generic_point_for_web, rank_estimate
from webrank.catalog import get_family
from webrank.cli import main
from webrank.ordinary import (
    GenericPointSampler,
    check_finite_criterion,
    check_ordinary_at,
)
from webrank.report import INCONCLUSIVE
from webrank.web import assemble

ESCALATED = [128, 256, 512]


@pytest.fixture
def always_marginal(monkeypatch):
    """Patch linalg.float_rank to flag a marginal pivot on every call;
    returns the list of precisions it was called at."""
    precisions = []

    def marginal(rows, units, precision):
        precisions.append(precision)
        return 0, {"marginal": True, "certificate": {}}

    monkeypatch.setattr(linalg, "float_rank", marginal)
    return precisions


def test_rank_at_32_bits_escalates_once(capsys):
    argv = ["rank", "--family", "k0_4_exp", "--n", "3", "--precision", "32"]
    code = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["method"] == "float64"
    assert payload["value"] == 26


def test_rank_estimate_gives_up_past_the_limit(always_marginal):
    E, _ = get_family("k0_4_exp")
    mode = E.default_mode()
    W = assemble(E, 2)
    point = generic_point_for_web(W, GenericPointSampler(seed=0), mode)
    estimate = rank_estimate(W, point, E.k0 + 1, E.k0 + 5, mode)
    assert estimate.value is None
    assert estimate.dims == {}
    assert estimate.note == (
        f"marginal pivots persist at order {E.k0 + 2} up to 512-bit precision"
    )
    assert always_marginal == ESCALATED


def test_finite_criterion_inconclusive_when_always_marginal(always_marginal):
    E, _ = get_family("k0_4_exp")
    report = check_finite_criterion(E, GenericPointSampler(seed=0))
    assert report.verdict == INCONCLUSIVE
    assert [check["verdict"] for check in report.checks] == [INCONCLUSIVE] * E.k0
    assert always_marginal and always_marginal == ESCALATED * (
        len(always_marginal) // 3
    )


def test_direct_check_inconclusive_when_always_marginal(always_marginal):
    E, _ = get_family("k0_4_exp")
    report = check_ordinary_at(E, 2, GenericPointSampler(seed=0))
    assert report.verdict == INCONCLUSIVE
    assert report.witnesses["points"] == []
    assert always_marginal and always_marginal == ESCALATED * (
        len(always_marginal) // 3
    )
