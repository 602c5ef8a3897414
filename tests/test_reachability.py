"""benchmarks/reachability.py finds the package's functions and tells the
entered ones from the rest.

Its pass over the whole report matrix runs here too, and every function it
finds never entered must be one of NEVER_ENTERED, each with the reason it
stays.  A change that strands a function, or reaches a listed one, fails
here and edits the list.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "reachability.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the pass, does not run it
    return module


def test_defined_functions_include_methods_and_nested_ones(reach):
    names = set(reach.defined_functions().values())
    assert {"cli.main", "linalg.exact_rank", "tpoly.MonomialCodes.mul"} <= names
    assert "tpoly.taylor.<locals>.walk" in names
    assert not any("<lambda>" in name or "comp>" in name for name in names)


def test_a_catalog_job_enters_the_cli_but_no_kernel(reach):
    functions = reach.defined_functions()
    reached = reach.entered(lambda matrix: [["catalog"]])
    names = {name for key, name in functions.items() if key in reached}
    assert {"cli.main", "catalog.family_names"} <= names
    assert "linalg.exact_rank" not in names


TEST_ORACLE = "the tests' oracle"
ACCEPTANCE = "an acceptance check the tests run"
SAFETY = "a safety path no matrix job takes"
VALUE = "value semantics the tests use; no CLI job compares or hashes a record"

NEVER_ENTERED = {
    "cli._Parser.error": SAFETY + " (a malformed command line)",
    "combin.verify_counting_identities": ACCEPTANCE,
    "expr.ParseError.__init__": SAFETY + " (a web definition that does not parse)",
    "expr._eval": TEST_ORACLE + " (direct evaluation)",
    "expr.diff": TEST_ORACLE + " (symbolic partials)",
    "expr.evaluate": TEST_ORACLE + " (direct evaluation)",
    "expr.relabel": ACCEPTANCE + " (quasi-symmetry) and the tests' pullbacks",
    "frozen.Frozen.__eq__": VALUE,
    "frozen.Frozen.__hash__": VALUE,
    "frozen.Frozen.__repr__": VALUE + " (assertion messages)",
    "frozen.Frozen.__setattr__": VALUE + " (immutability)",
    "frozen.Frozen._values": VALUE,
    "jets.jet_coefficient": TEST_ORACLE + " (jet matrix entries)",
    "jets.quadruple": TEST_ORACLE + " (row order of degree_multi_indices)",
    "jets.support": TEST_ORACLE + " (through quadruple)",
    "linalg.rank_float_rows": TEST_ORACLE + " (the mpf float kernel)",
    "scalars.Mode.escalate": SAFETY
    + " (a marginal float rank; tests/test_escalation.py plants one)",
    "scalars.scalar_to_str": SAFETY + " (a scalar reaching report.jsonable)",
    "scalars.zero_tolerance": SAFETY + " (the mpf minor test's rounding band)",
    "tpoly.MonomialCodes.decode": TEST_ORACLE + " (codes back to exponents)",
    "tpoly._vanishing_divisor": SAFETY + " (a divisor that vanishes mod q)",
    "tpoly.taylor.<locals>.inverse": SAFETY + " (a float quotient series)",
    "web._foliation_present": ACCEPTANCE + " (quasi-symmetry)",
    "web._foliation_present.<locals>.samples": ACCEPTANCE + " (quasi-symmetry)",
    "web._largest": SAFETY + " (the mpf minor test's rounding band)",
    "web._minors_vanish": SAFETY + " (the mpf minor test's rounding band)",
    "web.gradients_proportional": TEST_ORACLE + " (proportionality screen)",
    "web.is_quasi_symmetric": ACCEPTANCE + " (quasi-symmetry)",
}


def test_the_report_matrix_enters_every_function_but_the_listed_ones():
    # the script's own pass, in a fresh interpreter, so functions that run
    # only while webrank is first imported count as entered, as they do
    # when the script is run by hand
    run = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    )
    *lines, total = run.stdout.splitlines()
    missed = {line.split()[0] for line in lines}
    assert total.startswith(f"{len(missed)} of ")
    assert missed == set(NEVER_ENTERED)
