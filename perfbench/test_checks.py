"""The benchmark's report checks accept real reports and reject wrong ones.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest

import checks
import run

run.import_webrank()
from webrank import cli  # noqa: E402

# A float-mode balanced set small enough for a test (exp forces 128-bit floats).
FLOAT_WEBS = {"k0": 3, "webs": [["x1"], ["x1+x2", "exp(x1)+exp(x2)"], ["x1+x2+x3"]]}


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def exact_report():
    return _report(["verify-family", "--family", "k0_3_quadrics", "--corroborate"])


@pytest.fixture(scope="module")
def float_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("webs") / "exp3.json"
    path.write_text(json.dumps(FLOAT_WEBS))
    return _report(["verify-family", "--input", str(path)])


@pytest.fixture(scope="module")
def rank_report():
    return _report(["rank", "--family", "k0_3_quadrics", "--n", "3"])


def _verify(report):
    return checks.check_verify_family(report, 3, True, True, corroborate=True)


def _verify_float(report):
    return checks.check_verify_family(report, 3, True, True, corroborate=False)


def test_formulas_match_known_values():
    # Bol's 5-web (k0=4, n=2) has rank 6.  At k0=4 the ranks for n=3, 4 are
    # 4*15 - 35 + 1 = 26 and 4*35 - 70 + 1 = 71, so N(3) = 26 - 3*6 = 8 and
    # N(4) = 71 - 6*6 - 4*8 = 3.
    assert checks.web_size(2, 4) == 5
    assert checks.max_rank(2, 4) == 6
    assert [checks.max_rank(n, 4) for n in (3, 4)] == [26, 71]
    assert checks.support_table(4) == {2: 6, 3: 8, 4: 3}


def test_real_reports_pass(exact_report, float_report, rank_report):
    assert _verify(exact_report) == []
    assert _verify_float(float_report) == []
    assert checks.check_rank(rank_report, 3) == []


def test_rejects_wrong_rank_value(exact_report, rank_report):
    bad = copy.deepcopy(exact_report)
    bad["rank"]["per_n"][1]["value"] += 1
    assert _verify(bad)
    bad = copy.deepcopy(rank_report)
    bad["value"] -= 1
    assert checks.check_rank(bad, 3)


@pytest.mark.parametrize("verdict", ["false", "inconclusive"])
@pytest.mark.parametrize("key", ["balanced", "ordinary", "max_rank", "overall"])
def test_rejects_verdict_that_is_not_the_expected_one(exact_report, key, verdict):
    bad = copy.deepcopy(exact_report)
    bad["verdicts"][key] = verdict
    assert _verify(bad)


@pytest.mark.parametrize("verdict", ["false", "inconclusive"])
def test_rejects_rank_verdict(exact_report, rank_report, verdict):
    bad = copy.deepcopy(exact_report)
    bad["rank"]["per_n"][0]["verdict"] = verdict
    assert _verify(bad)
    bad = copy.deepcopy(rank_report)
    bad["verdict"] = verdict
    assert checks.check_rank(bad, 3)


def test_rejects_true_verdict_where_false_is_expected(exact_report):
    problems = checks.check_verify_family(exact_report, 3, True, False, True)
    assert any("verdict max_rank" in p for p in problems)


def test_rejects_unstabilized_dims_trace(exact_report):
    bad = copy.deepcopy(exact_report)
    record = bad["rank"]["per_n"][0]
    record["dims_trace"][str(record["stabilized_at"] + 1)] += 1
    assert _verify(bad)


def test_rejects_empirical_table_off_the_recursion(exact_report):
    bad = copy.deepcopy(exact_report)
    bad["rank"]["N_table_empirical"]["3"] += 1
    assert _verify(bad)


def test_rejects_direct_rank_below_bound(exact_report):
    bad = copy.deepcopy(exact_report)
    bad["ordinary"]["direct"][-1]["checks"][-1]["best_rank"] -= 1
    assert _verify(bad)


def test_rejects_float_witness_below_block_size(float_report):
    bad = copy.deepcopy(float_report)
    witness = bad["ordinary"]["condition_iv"]["checks"][1]["witness"]
    assert "rank" in witness
    witness["rank"] -= 1
    assert _verify_float(bad)


def test_rejects_zero_determinant(exact_report):
    bad = copy.deepcopy(exact_report)
    bad["ordinary"]["condition_iv"]["checks"][1]["witness"]["det"] = "0"
    assert _verify(bad)
