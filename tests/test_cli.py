import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from webrank import cli
from webrank.cli import main
from webrank.report import CONFIRMATIONS_FOR_FALSE, FALSE
from webrank.catalog import get_family
from webrank.web import BalancedSet

from helpers import inflate_first_rank_estimate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_text(capsys):
    code, out, _ = run_cli(capsys, "counts", "--k0", "4", "--n", "10")
    assert code == 0
    assert "1860" in out  # calibrated max rank in dimension 10
    assert "N(2)=6, N(3)=8, N(4)=3" in out


def test_counts_json(capsys):
    code, out, _ = run_cli(capsys, "counts", "--k0", "3", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["per_n"][-1]["calibrated_max_rank"] == 26
    assert payload["N_table"] == {"2": 3, "3": 2}
    assert payload["config"]["seed"] == 0


def test_catalog_lists_families(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "k0_3_quadrics" in out
    assert "k0_4_pereira_pirio_affine" in out


def test_validate_family(capsys):
    code, out, _ = run_cli(capsys, "validate", "--family", "k0_3_quadrics")
    assert code == 0
    assert "true" in out


def test_check_ordinary_with_direct(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-ordinary",
        "--family",
        "k0_3_quadrics",
        "--direct",
        "--n",
        "3",
    )
    assert code == 0
    assert "finite criterion: true" in out


def test_rank_command(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--family", "k0_3_quadrics", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3
    assert payload["expected"] == 3
    assert payload["dims_trace"] == {"4": 3, "5": 3}


def test_verify_family_quadrics(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-family",
        "--family",
        "k0_3_quadrics",
        "--seed",
        "7",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["overall"] == "true"
    ranks = {c["n"]: c["value"] for c in payload["rank"]["per_n"]}
    assert ranks == {2: 3, 3: 11}
    assert payload["rank"]["N_table_empirical"] == {"2": 3, "3": 2}
    assert payload["expected"] == {"ordinary": True, "max_rank": True}


def test_verify_family_moebius_seed_1_is_balanced(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-family",
        "--family",
        "k0_3_moebius_sum",
        "--seed",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["balanced"] == "true"
    assert payload["verdicts"]["overall"] == "true"


def test_rank_json_without_generic_point(capsys, tmp_path):
    # log(-x1^2-x2^2-1) is undefined at every real point
    path = tmp_path / "nowhere.json"
    path.write_text(json.dumps({"k0": 2, "webs": [["x1"], ["log(-x1^2-x2^2-1)"]]}))
    code, out, _ = run_cli(
        capsys, "rank", "--input", str(path), "--n", "2", "--format", "json"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["config"]["command"] == "rank"
    assert payload["value"] is None
    assert payload["verdict"] == "inconclusive"
    assert payload["note"]


def test_reports_are_byte_identical_for_same_seed(capsys):
    argv = [
        "verify-family",
        "--family",
        "k0_3_sym_sum",
        "--seed",
        "3",
        "--format",
        "json",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_reports_differ_across_seeds_only_in_witnesses(capsys):
    _, first, _ = run_cli(
        capsys, "verify-family", "--family", "k0_3_sym_sum", "--seed", "3",
        "--format", "json",
    )
    _, second, _ = run_cli(
        capsys, "verify-family", "--family", "k0_3_sym_sum", "--seed", "4",
        "--format", "json",
    )
    assert json.loads(first)["verdicts"] == json.loads(second)["verdicts"]


def test_crosscheck_command(capsys):
    code, out, _ = run_cli(
        capsys, "crosscheck", "--family", "k0_3_quadrics", "--n", "2", "--n", "3"
    )
    assert code == 0
    assert "true" in out


def test_bad_family_file_exits_one(capsys, tmp_path):
    bad = {
        "k0": 4,
        "webs": [
            ["x1"],
            ["x1+x2", "x1-x2", "x1*x2"],
            ["x1+x2+x3", "x1+2*x2+3*x3", "2*x1+3*x2+4*x3"],
            ["x1+x2+x3+x4"],
        ],
    }
    path = tmp_path / "bad_family.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "check-ordinary", "--input", str(path))
    assert code == 1
    assert "k=3: false" in out


def test_file_input_roundtrip(capsys, tmp_path):
    _, spec = get_family("k0_3_harmonic_inv")
    path = tmp_path / "family.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"k0": spec.k0, "webs": spec.webs}, handle)
    code, out, _ = run_cli(capsys, "validate", "--input", str(path))
    assert code == 0


def test_costly_power_is_refused_quickly(capsys, tmp_path):
    # x1^1000000 would expand for minutes; the file is refused before that
    path = tmp_path / "web.json"
    path.write_text(json.dumps({"k0": 2, "webs": [["x1^1000000"], ["x1+x2"]]}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "validate", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 65
    assert "above 1000" in err
    path.write_text(json.dumps({"k0": 2, "webs": [["x1^1000"], ["x1+x2"]]}))
    code, _, _ = run_cli(capsys, "validate", "--input", str(path))
    assert code == 0


def test_costly_constant_power_is_refused_quickly(capsys, tmp_path):
    # the parser folds a constant power, so it is refused before it is computed
    path = tmp_path / "web.json"
    for integral, refusal in [
        ("x1*999999^1000000", "above 1000"),
        ("x1*(999999^1000)^1000", "above 64000 bits"),
    ]:
        path.write_text(json.dumps({"k0": 2, "webs": [[integral], ["x1+x2"]]}))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 65
        assert refusal in err
    path.write_text(json.dumps({"k0": 2, "webs": [["x1*3^1000"], ["x1+x2"]]}))
    code, _, _ = run_cli(capsys, "validate", "--input", str(path))
    assert code == 0


def test_unknown_family_exit_code(capsys):
    code, _, err = run_cli(capsys, "validate", "--family", "nope")
    assert code == 66
    assert "unknown family" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "validate", "--input", "/does/not/exist.json")
    assert code == 66


def test_malformed_json_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", "--input", str(path))
    assert code == 65


@pytest.mark.parametrize(
    "webs",
    [
        [[1], ["x1+x2"]],  # an integral that is not a string
        [None, ["x1+x2"]],  # an arity that is not a list
        ["x1", ["x1+x2"]],  # a bare string for an arity
    ],
)
def test_malformed_webs_exit_code(capsys, tmp_path, webs):
    path = tmp_path / "web.json"
    path.write_text(json.dumps({"k0": 2, "webs": webs}))
    code, _, err = run_cli(capsys, "validate", "--input", str(path))
    assert code == 65
    assert "list of integral strings" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-family"],
        ["check-ordinary"],
        ["check-ordinary", "--direct"],
        ["crosscheck"],
        ["rank", "--n", "2"],
    ],
    ids=" ".join,
)
def test_wrong_integral_count_exit_code(capsys, tmp_path, argv):
    # two integrals where arity 1 takes monomial_count(1, 1) = 1: refused
    # before any check assembles the web
    path = tmp_path / "web.json"
    path.write_text(json.dumps({"k0": 2, "webs": [["x1", "x1^3"], ["x1+x2"]]}))
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 65
    assert out == "" and "Traceback" not in err
    assert "the arity-1 web has 2 integrals, expected 1" in err


def test_validate_reports_a_wrong_integral_count(capsys, tmp_path):
    path = tmp_path / "web.json"
    path.write_text(json.dumps({"k0": 2, "webs": [["x1", "x1^3"], ["x1+x2"]]}))
    code, out, _ = run_cli(capsys, "validate", "--input", str(path), "--format", "json")
    assert code == 1
    checks = json.loads(out)["report"]["checks"]
    (check,) = [c for c in checks if c["check"] == "cardinality" and c["k"] == 1]
    assert (check["expected"], check["actual"], check["verdict"]) == (1, 2, "false")


def test_unreadable_input_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", "--input", str(tmp_path))
    assert code == 66
    assert "cannot read" in err


def test_missing_input_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "validate")
    assert code == 64


@pytest.mark.parametrize(
    "command", ["validate", "check-ordinary", "rank", "verify-family", "crosscheck"]
)
def test_family_with_input_is_usage_error(capsys, tmp_path, command):
    # one of the two sources would be dropped without a word
    path = tmp_path / "web.json"
    path.write_text(json.dumps({"k0": 2, "webs": [["x1"], ["x1+x2"]]}))
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--family", "k0_2_linear", "--input", str(path)])
    assert exit_info.value.code == 64
    assert "not allowed with argument --family" in capsys.readouterr().err


RANK_QUADRICS = ["rank", "--family", "k0_3_quadrics"]
FIXTURES = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "argv",
    [
        RANK_QUADRICS + ["--n", "2", "--m-start", "5", "--m-cap", "3"],
        RANK_QUADRICS + ["--n", "2", "--m-start", "0"],
        RANK_QUADRICS + ["--n", "1"],
        RANK_QUADRICS + ["--n", "0"],
        ["validate", "--family", "k0_3_quadrics", "--n", "0"],
        ["check-ordinary", "--family", "k0_3_quadrics", "--direct", "--n", "0"],
        ["crosscheck", "--family", "k0_3_quadrics", "--n", "1"],
        ["verify-family", "--family", "k0_3_quadrics", "--m-cap", "3"],
        ["verify-family", "--family", "k0_4_exp", "--precision", "4"],
        ["rank", "--family", "k0_4_exp", "--n", "2", "--precision", "4"],
        # options the command would otherwise ignore
        RANK_QUADRICS + ["--n", "2", "--n", "3"],
        ["validate", "--family", "k0_3_quadrics", "--n", "2", "--n", "3"],
        ["check-ordinary", "--family", "k0_3_quadrics", "--n", "3"],
        # a rank estimate stabilizes on two orders
        RANK_QUADRICS + ["--n", "3", "--m-start", "3", "--m-cap", "3"],
        ["verify-family", "--family", "k0_3_quadrics", "--m-cap", "4"],
        # a start order below k0 cannot certify: below it, every ordinary
        # web has the same dims, and these two webs are not of maximal rank
        ["rank", "--input", str(FIXTURES / "k0_5_wb_extension.json")]
        + ["--n", "4", "--m-start", "4"],
        ["rank", "--input", str(FIXTURES / "nonhexagonal_k0_2.json")]
        + ["--n", "2", "--m-start", "1"],
        RANK_QUADRICS + ["--n", "3", "--m-start", "1", "--m-cap", "2"],
    ],
)
def test_out_of_range_options_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("webrank: ")


def test_default_m_cap_below_the_start_order_names_the_default(capsys):
    # k0_2_linear: the default --m-cap is k0 + 5 = 7, not above --m-start 10
    code, out, err = run_cli(
        capsys, "rank", "--family", "k0_2_linear", "--n", "2", "--m-start", "10"
    )
    assert code == 64
    assert out == ""
    assert err.strip() == "webrank: --m-cap (default k0 + 5) must be >= 11, got 7"


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "webrank.cli", "counts", "--k0", "4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 64


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "webrank.cli", "counts", "--k0", "3", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "11" in result.stdout


# Runs the CLI in a fresh interpreter and prints whether mpmath and
# dataclasses were loaded.
MPMATH_PROBE = """
import sys
from webrank import cli
code = cli.main(sys.argv[1:])
print(code, "mpmath" in sys.modules, "dataclasses" in sys.modules)
"""
SRC = Path(__file__).resolve().parents[1] / "src"


def mpmath_probe(*argv):
    result = subprocess.run(
        [sys.executable, "-c", MPMATH_PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    code, mpmath_loaded, dataclasses_loaded = result.stdout.split()[-3:]
    assert dataclasses_loaded == "False"
    return int(code), mpmath_loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-family", "--family", "k0_3_quadrics", "--format", "json"],
        ["counts", "--k0", "3", "--n", "4"],
        ["catalog"],
    ],
)
def test_exact_jobs_never_load_mpmath(argv):
    assert mpmath_probe(*argv) == (0, False)


def test_float_jobs_load_mpmath():
    argv = ["rank", "--input", str(LOG_DOMAIN), "--n", "2", "--format", "json"]
    assert mpmath_probe(*argv) == (0, True)


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--family", "k0_4_exp", "--n", "2"],
        ["verify-family", "--family", "k0_4_exp"],
        ["validate", "--family", "k0_4_exp"],
    ],
    ids=lambda argv: argv[0],
)
def test_modular_jobs_never_load_mpmath(argv):
    # the exp family runs mod q from series to kernel, and so does the
    # check that each of its integrals uses all its variables
    assert mpmath_probe(*argv, "--format", "json") == (0, False)


# --------------------------------------------------------------------------
# negative controls of the maximal-rank check (k0 = 2 test fixtures)

NON_HEXAGONAL = {"k0": 2, "webs": [["x1"], ["x1^2+x2+x1*x2"]]}
HEXAGONAL = {"k0": 2, "webs": [["x1"], ["x1+x2+x1*x2"]]}


def rank_json(capsys, tmp_path, web, seed):
    path = tmp_path / "web.json"
    path.write_text(json.dumps(web))
    code, out, _ = run_cli(
        capsys, "rank", "--input", str(path), "--n", "2",
        "--seed", str(seed), "--format", "json",
    )
    return code, json.loads(out)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_non_hexagonal_control_is_false(capsys, tmp_path, seed):
    code, payload = rank_json(capsys, tmp_path, NON_HEXAGONAL, seed)
    assert code == 1
    assert payload["verdict"] == "false"
    assert (payload["value"], payload["expected"]) == (0, 1)
    points = payload["mismatch_points"]
    assert len(points) == CONFIRMATIONS_FOR_FALSE
    assert len({tuple(p["point"]) for p in points}) == len(points)
    assert all(p["value"] == 0 and p["dims_trace"] for p in points)
    assert points[-1]["point"] == payload["point"]


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_hexagonal_control_is_true(capsys, tmp_path, seed):
    code, payload = rank_json(capsys, tmp_path, HEXAGONAL, seed)
    assert code == 0
    assert payload["verdict"] == "true"
    assert (payload["value"], payload["expected"]) == (1, 1)
    assert "mismatch_points" not in payload


def test_rank_one_mismatching_point_is_not_false(capsys, tmp_path, monkeypatch):
    inflate_first_rank_estimate(monkeypatch)
    code, payload = rank_json(capsys, tmp_path, HEXAGONAL, 0)
    assert code == 0
    assert payload["verdict"] == "true"
    (mismatch,) = payload["mismatch_points"]
    assert mismatch["value"] == 2
    assert payload["point"] != mismatch["point"]


def test_verify_family_non_hexagonal_control(capsys, tmp_path):
    path = tmp_path / "web.json"
    path.write_text(json.dumps(NON_HEXAGONAL))
    code, out, _ = run_cli(
        capsys, "verify-family", "--input", str(path), "--format", "json"
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["verdicts"]["max_rank"] == "false"
    (record,) = payload["rank"]["per_n"]
    assert len(record["mismatch_points"]) == CONFIRMATIONS_FOR_FALSE


def test_constant_zero_mod_q_is_ranked_in_float_mode(capsys, tmp_path):
    # the coefficient of x2, (2^61 - 1)/2^61, is 0 mod q: mod q the arity-2
    # integral read as free of x2, and the web as neither balanced nor
    # ordinary
    web = {
        "k0": 2,
        "webs": [
            ["exp(x1)"],
            ["x1 + 2305843009213693951/2305843009213693952*x2 + exp(x1)"],
        ],
    }
    path = tmp_path / "web.json"
    path.write_text(json.dumps(web))
    code, out, _ = run_cli(
        capsys, "verify-family", "--input", str(path), "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert set(payload["verdicts"].values()) == {"true"}
    assert payload["balanced_valid"]["witnesses"]["mode"] == "float128"


FLOAT_DEPENDENT_GRADIENTS = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "dependent_gradients_float_k0_4.json"
)


@pytest.mark.parametrize("seed", ["0", "3"])
def test_float_dependent_gradients_are_not_ordinary(capsys, seed):
    # jet products rounded to 53 bits and ranked at 128 once certified this
    # web: block k=3 read invertible and order 4 reached rank 35
    code, out, _ = run_cli(
        capsys,
        "check-ordinary",
        "--input",
        str(FLOAT_DEPENDENT_GRADIENTS),
        "--direct",
        "--n",
        "4",
        "--seed",
        seed,
        "--format",
        "json",
    )
    assert code == 1
    ordinary = json.loads(out)["ordinary"]
    blocks = {c["k"]: c["verdict"] for c in ordinary["condition_iv"]["checks"]}
    assert blocks[3] == FALSE
    (direct,) = ordinary["direct"]
    assert {c["h"]: c["best_rank"] for c in direct["checks"]}[4] == 31


def test_verify_family_precision_reaches_every_stage(capsys):
    # the balanced-set check ran at the default 128 bits whatever --precision
    # said; the log web stays in float mode
    code, out, _ = run_cli(
        capsys,
        "verify-family",
        "--input",
        str(LOG_DOMAIN),
        "--precision",
        "256",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["precision_bits"] == 256
    assert payload["balanced_valid"]["witnesses"]["mode"] == "float256"
    assert payload["ordinary"]["condition_iv"]["witnesses"]["mode"] == "float256"


LOG_DOMAIN = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "log_domain_k0_2.json"
)


def test_direct_check_skips_points_outside_the_log_domain(capsys):
    # the partial 1/x2 of log(x2) is defined at x2 < 0; the integral's own
    # expansion rejects such a point.  The seed-5 search of n = 2 draws two
    # of them, (11/8, -8/3) and (37/19, -98/45), before the certifying one
    code, out, _ = run_cli(
        capsys,
        "check-ordinary",
        "--input",
        str(LOG_DOMAIN),
        "--direct",
        "--n",
        "2",
        "--seed",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    (direct,) = json.loads(out)["ordinary"]["direct"]
    assert direct["verdict"] == "true"
    witnesses = direct["witnesses"]
    assert witnesses["certifying_point"]["point"] == ["31/46", "69/52"]
    for record in witnesses["points"]:
        assert all(Fraction(c) > 0 for c in record["point"])


K0_5_WB_EXTENSION = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "k0_5_wb_extension.json"
)


def test_k0_5_wb_extension_rank_is_pinned(capsys):
    # the naive k0=5 extension of the WB webs is below the maximum (379 at
    # n=5); its exact systems (882x791 and 1008x1286 at each point) are the
    # largest any job here eliminates, and their entries grow the most
    code, out, _ = run_cli(
        capsys,
        "rank",
        "--input",
        str(K0_5_WB_EXTENSION),
        "--n",
        "5",
        "--seed",
        "0",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["dims_trace"] == {"6": 329, "7": 324, "8": 324}
    assert payload["verdict"] == FALSE


@pytest.mark.parametrize("family", ["k0_3_quadrics", "k0_4_WB_sum", "k0_4_exp"])
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_rank_verify_family_and_direct_check_share_a_point(capsys, family, seed):
    # one point search per dimension: rank --n 3 estimates at the point
    # verify-family estimates at in n = 3, which the direct check certifies
    common = ["--family", family, "--seed", seed, "--format", "json"]
    _, out, _ = run_cli(capsys, "rank", "--n", "3", *common)
    rank_point = json.loads(out)["point"]
    _, out, _ = run_cli(capsys, "verify-family", *common)
    (record,) = [r for r in json.loads(out)["rank"]["per_n"] if r["n"] == 3]
    _, out, _ = run_cli(capsys, "check-ordinary", "--direct", "--n", "3", *common)
    (direct,) = json.loads(out)["ordinary"]["direct"]
    certifying = direct["witnesses"]["certifying_point"]["point"]
    assert rank_point == record["point"] == certifying


def test_rank_point_inside_the_log_domain_is_unchanged(capsys):
    code, out, _ = run_cli(
        capsys,
        "rank",
        "--input",
        str(LOG_DOMAIN),
        "--n",
        "2",
        "--seed",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    # the direct check's certifying point at the same seed
    assert json.loads(out)["point"] == ["31/46", "69/52"]


PARSER_SEQUENCE = [
    ["validate", "--family", "k0_3_quadrics", "--n", "2", "--n", "3"],
    ["validate", "--family", "k0_3_quadrics", "--n", "2", "--format", "json"],
    ["verify-family", "--family", "k0_2_linear", "--seed", "3", "--corroborate"],
    ["verify-family", "--family", "k0_2_linear", "--format", "json"],
    ["counts", "--k0", "3", "--n", "4", "--format", "json"],
    ["counts", "--k0", "3", "--n", "4"],
    ["rank", "--family", "k0_3_quadrics", "--n", "2", "--precision", "64"],
    ["rank", "--family", "k0_3_quadrics", "--n", "2"],
]


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch):
    # the parser main builds once per process against a fresh one per call:
    # appended --n values, --corroborate and options with defaults must not
    # carry over from one call to the next
    reused = [run_cli(capsys, *argv) for argv in PARSER_SEQUENCE]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run_cli(capsys, *argv) for argv in PARSER_SEQUENCE]
    assert reused == fresh
    checks = json.loads(reused[1][1])["report"]["checks"]
    assert [check["n"] for check in checks if "n" in check] == [2]
    config = json.loads(reused[3][1])["config"]
    assert config["seed"] == 0 and config["corroborate"] is False
    assert not reused[5][1].startswith("{")  # --format is text again


MODE_COMMANDS = [
    ["validate"],
    ["check-ordinary", "--direct"],
    ["rank", "--n", "2"],
    ["verify-family", "--corroborate"],
    ["crosscheck"],
]


@pytest.mark.parametrize("family", ["k0_3_quadrics", "k0_4_exp"])
@pytest.mark.parametrize("command", MODE_COMMANDS, ids=lambda argv: argv[0])
def test_each_command_decides_the_mode_once(capsys, monkeypatch, family, command):
    # the checks take the caller's mode: one derivation per command
    calls = []
    derive = BalancedSet.default_mode

    def counted(E, *args):
        calls.append(args)
        return derive(E, *args)

    monkeypatch.setattr(BalancedSet, "default_mode", counted)
    code, _, _ = run_cli(capsys, *command, "--family", family)
    assert code == 0
    assert len(calls) == 1
