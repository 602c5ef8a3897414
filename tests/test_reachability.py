"""benchmarks/reachability.py finds the package's functions and tells the
entered ones from the rest.

The script is run by hand over the whole report matrix; here it traces one
cheap job.
"""

import importlib.util
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
